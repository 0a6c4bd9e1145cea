"""The unified chunk planner: every engine's work-splitting in one place.

Before this module, three layers each carried their own ad-hoc
``chunk_size="auto"`` convention:

* ``worlds/estimator`` sized ANF evaluation slices so the stacked
  ``(W·n, 2^b)`` HyperLogLog register matrix stays ~2 MB (cache
  resident), and non-ANF slices so the transient unpacked keep matrix
  stays ~32 MB (the two rules now apply to the two kernel groups of
  one evaluation, not to the evaluation as a whole);
* ``worlds/releases`` streamed release batches 32 at a time;
* ``worlds/batch.draw_packed_keep_bits`` grouped uniform draws so the
  float64 transient stays ~8 MB.

They are now *pinned properties of this module* — including the PR-8
``>= 1`` clamp that keeps huge-``n`` graphs from computing a zero chunk
size — and every consumer (the estimator, the release stream, the
sweep grid) plans through one :class:`ChunkPlan` abstraction.  A plan
is just the deterministic ``[lo, hi)`` decomposition of ``total``
items; which *items* those are (worlds, releases, grid cells) is the
caller's concern.
Plans never touch an RNG stream, so planning is trivially
bit-stable: the same ``(total, chunk_size)`` always yields the same
chunks, whichever backend executes them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ANF_REGISTER_STACK_BYTES",
    "KEEP_MATRIX_BYTES",
    "PACKED_DRAW_BYTES",
    "RELEASE_CHUNK_DEFAULT",
    "SAMPLE_CHUNK_DEFAULT",
    "Chunk",
    "ChunkPlan",
    "draw_rows_per_pass",
    "world_eval_chunk_size",
]

#: Keep each ANF slice's ``(W·n, 2^b)`` register stack around ~2 MB —
#: on big graphs one huge stacked diffusion is memory-bandwidth-bound
#: and measurably slower than a handful of L2-sized ones.
ANF_REGISTER_STACK_BYTES = 2 << 20

#: Bound the per-slice unpacked keep matrix (``W × m`` bools) to ~32 MB
#: for the names that build no register stack (degree/triangle kernels,
#: BFS backends).
KEEP_MATRIX_BYTES = 32 << 20

#: Bound the float64 uniform transient of a packed keep-bit draw (~8 MB).
PACKED_DRAW_BYTES = 8 << 20

#: Releases streamed per batch (the cross-release union working-set bound).
RELEASE_CHUNK_DEFAULT = 32

#: Worlds sampled per estimator pass (the keep-matrix memory bound).
SAMPLE_CHUNK_DEFAULT = 32


def world_eval_chunk_size(
    num_vertices: int, num_candidate_pairs: int, *, anf: bool, anf_b: int = 6
) -> int:
    """Worlds per evaluation slice for one :class:`~repro.worlds.batch.WorldBatch`.

    The consolidated ``chunk_size="auto"`` rule of the batch statistics
    engine, chosen per kernel group: the distance names on the stacked
    ANF diffusion (``anf=True``) get slices whose ``(W·n, 2^b)``
    register stack stays cache-resident — a single world once ``n``
    passes 16,384 at ``b = 6`` — while every other name (degree family,
    S_CC, the BFS backends) is bounded by the transient unpacked keep
    matrix (``anf=False``), so the triangle kernel sees whole lane
    slices.  Always ``>= 1``.
    """
    if anf:
        return max(
            1, ANF_REGISTER_STACK_BYTES // max(num_vertices << anf_b, 1)
        )
    return max(1, KEEP_MATRIX_BYTES // max(num_candidate_pairs, 1))


def draw_rows_per_pass(num_candidate_pairs: int) -> int:
    """Worlds per uniform-draw pass in ``draw_packed_keep_bits``."""
    return max(1, PACKED_DRAW_BYTES // max(num_candidate_pairs, 1))


@dataclass(frozen=True)
class Chunk:
    """One contiguous ``[lo, hi)`` span of a :class:`ChunkPlan`."""

    index: int
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ChunkPlan:
    """Deterministic decomposition of ``total`` items into bounded chunks.

    ``kind`` is a label for telemetry ("worlds", "releases", "cells",
    …); it does not affect the decomposition.  Iterating a plan
    yields :class:`Chunk` objects in index order — the order every
    backend must preserve when reassembling results.
    """

    kind: str
    total: int
    chunk_size: int

    def __post_init__(self):
        if self.total < 0:
            raise ValueError(f"total must be non-negative, got {self.total}")
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    def __len__(self) -> int:
        return -(-self.total // self.chunk_size) if self.total else 0

    def __iter__(self):
        for index, lo in enumerate(range(0, self.total, self.chunk_size)):
            yield Chunk(index, lo, min(lo + self.chunk_size, self.total))

    @classmethod
    def worlds(
        cls,
        total: int,
        *,
        num_vertices: int,
        num_candidate_pairs: int,
        anf: bool,
        chunk_size: int | None = None,
    ) -> "ChunkPlan":
        """World-evaluation plan for one kernel group (the estimator's auto rule)."""
        if chunk_size is None:
            chunk_size = world_eval_chunk_size(
                num_vertices, num_candidate_pairs, anf=anf
            )
        return cls("worlds", total, chunk_size)

    @classmethod
    def releases(cls, total: int, *, chunk_size: int | None = None) -> "ChunkPlan":
        """Release-stream plan (default :data:`RELEASE_CHUNK_DEFAULT`)."""
        return cls(
            "releases",
            total,
            RELEASE_CHUNK_DEFAULT if chunk_size is None else chunk_size,
        )

    @classmethod
    def cells(cls, total: int) -> "ChunkPlan":
        """Grid-cell plan: one cell per chunk (cells are the work unit)."""
        return cls("cells", total, 1)
