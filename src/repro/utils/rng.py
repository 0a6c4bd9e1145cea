"""Random-number-generator plumbing.

Every randomized routine in this library accepts a ``seed`` argument that
may be ``None`` (fresh OS entropy), an ``int`` (deterministic), or an
already-constructed :class:`numpy.random.Generator`.  Centralising the
coercion here keeps call sites one-line and guarantees reproducibility of
experiments: the benchmark harness passes explicit integer seeds
throughout.
"""

from __future__ import annotations

import numpy as np

#: Union of everything :func:`as_rng` accepts.
SeedLike = "int | None | np.random.Generator | np.random.SeedSequence"


def as_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a deterministic stream, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged so that callers can thread one stream through
        a pipeline of calls).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed, n: int) -> list[np.random.SeedSequence]:
    """The ``n`` child :class:`~numpy.random.SeedSequence` roots of ``seed``.

    The counter-based substream derivation: child ``i`` is
    ``SeedSequence(seed).spawn(n)[i]``, a pure function of
    ``(seed, n, i)``.  Because no bit-stream state is consumed, any
    process can derive any child independently — which is what lets the
    sweep grid shard cells across workers while staying bit-identical
    to the serial loop (each cell's generator is the same object either
    way).  Seed sequences are picklable, so they also travel on the
    :mod:`repro.exec` task channel directly.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n)
