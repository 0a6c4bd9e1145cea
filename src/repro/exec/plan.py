"""Work-splitting bounds of the possible-world engine.

Two sizing rules live here, each a pure function of a batch's shape
and clamped to ``>= 1`` so huge-``n`` graphs never get a zero size:

* :func:`world_eval_chunk_size` — worlds per evaluation slice of one
  kernel group: the stacked ``(W·n, 2^b)`` HyperLogLog register matrix
  of the ANF names stays ~2 MB (cache resident), and the transient
  unpacked keep matrix of every other name stays ~32 MB;
* :func:`draw_rows_per_pass` — worlds per uniform draw in
  ``worlds/batch.draw_packed_keep_bits``, so the float64 transient
  stays ~8 MB.

:meth:`repro.worlds.estimator.BatchStatisticsEngine.evaluate` cuts a
batch into ``range(0, W, size)`` slices by the first rule and runs them
in process or on a :class:`~repro.exec.executor.ChunkExecutor` pool.
The rules never touch an RNG stream, so the same batch always gets the
same slices, whichever backend executes them.
"""

from __future__ import annotations

__all__ = [
    "ANF_REGISTER_STACK_BYTES",
    "KEEP_MATRIX_BYTES",
    "PACKED_DRAW_BYTES",
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


def world_eval_chunk_size(
    num_vertices: int, num_candidate_pairs: int, *, anf: bool
) -> int:
    """Worlds per evaluation slice for one :class:`~repro.worlds.batch.WorldBatch`.

    Chosen per kernel group: the distance names on the stacked ANF
    diffusion (``anf=True``) get slices whose ``(W·n, 2^6)`` register
    stack (the engine runs HyperANF at ``b = 6``) stays cache-resident
    — a single world once ``n`` passes 16,384 — while every other name
    (degree family, S_CC, the BFS backends) is bounded by the transient
    unpacked keep matrix (``anf=False``), so the triangle kernel sees
    whole lane slices.  Always ``>= 1``.
    """
    if anf:
        return max(1, ANF_REGISTER_STACK_BYTES // max(num_vertices << 6, 1))
    return max(1, KEEP_MATRIX_BYTES // max(num_candidate_pairs, 1))


def draw_rows_per_pass(num_candidate_pairs: int) -> int:
    """Worlds per uniform-draw pass in ``draw_packed_keep_bits``."""
    return max(1, PACKED_DRAW_BYTES // max(num_candidate_pairs, 1))
