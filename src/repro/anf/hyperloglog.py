"""HyperLogLog cardinality counters — the registers behind HyperANF.

A HyperLogLog counter summarises a set with ``m = 2^b`` 5-bit-ish
registers; the union of two sets is the elementwise *max* of their
registers, which is the property HyperANF exploits to propagate
reachability balls along edges (Boldi, Rosa, Vigna, WWW'11 [3]).

The helpers here (:func:`init_registers`, :func:`estimate_many`)
operate on an ``(n, m)`` uint8 matrix — one row per graph vertex —
which is the layout the HyperANF diffusion kernel needs.

Hashing is splitmix64, implemented with wrap-around uint64 arithmetic,
so results are deterministic across platforms and seeds are honoured.
"""

from __future__ import annotations

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser: a fast, well-mixed 64-bit hash.

    Operates elementwise on a uint64 array (wrap-around semantics).
    """
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        x = x ^ (x >> np.uint64(31))
    return x


def _alpha(m: int) -> float:
    """Bias-correction constant α_m of the HLL estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _rho(w: np.ndarray, max_rho: int) -> np.ndarray:
    """Position of the least-significant set bit, 1-based, capped.

    ``w == 0`` maps to the cap (all usable bits were zero).
    """
    out = np.full(w.shape, max_rho, dtype=np.uint8)
    remaining = w.copy()
    pos = np.ones(w.shape, dtype=np.uint8)
    unresolved = remaining != 0
    # loop over bit positions; terminates in <= max_rho iterations
    while unresolved.any():
        low_bit = (remaining & np.uint64(1)).astype(bool)
        newly = unresolved & low_bit
        out[newly] = np.minimum(pos[newly], max_rho)
        unresolved &= ~low_bit
        remaining >>= np.uint64(1)
        pos += np.uint8(1)
        if int(pos.flat[0]) > max_rho:
            break
    return out


def init_registers(n: int, *, b: int = 6, seed: int = 0) -> np.ndarray:
    """Register matrix for ``n`` singleton sets ``{0}, {1}, ..., {n-1}``.

    Row ``v`` is the HLL summary of the set ``{v}`` — the radius-0
    reachability ball.  ``b`` register-index bits give ``m = 2^b``
    registers and relative standard error ``≈ 1.04/√m`` (≈ 13% at the
    default ``b = 6``; the paper's setup note reports HyperANF drifts of
    0.2–2% after jackknifing multiple runs).

    Parameters
    ----------
    n:
        Number of vertices.
    b:
        Register-index bits; ``4 ≤ b ≤ 16``.
    seed:
        Mixed into the hash so that independent runs (for jackknifing)
        see independent register noise.
    """
    if not 4 <= b <= 16:
        raise ValueError(f"b must be in [4, 16], got {b}")
    m = 1 << b
    ids = np.arange(n, dtype=np.uint64)
    hashed = splitmix64(ids ^ splitmix64(np.full(n, seed, dtype=np.uint64)))
    bucket = (hashed & np.uint64(m - 1)).astype(np.int64)
    w = hashed >> np.uint64(b)
    max_rho = 64 - b + 1
    rho = _rho(w, max_rho)
    regs = np.zeros((n, m), dtype=np.uint8)
    regs[np.arange(n), bucket] = rho
    return regs


#: ``2^-r`` for every possible uint8 register value — the estimator's
#: only transcendental, tabulated once.  Entries are exact powers of two,
#: so the lookup is bit-identical to calling ``np.exp2`` elementwise.
_EXP2_NEG = np.exp2(-np.arange(256, dtype=np.float64))


def estimate_many(regs: np.ndarray) -> np.ndarray:
    """Cardinality estimate per row of a register matrix.

    Applies the standard HLL estimator with the small-range (linear
    counting) correction; the large-range correction is unnecessary with
    64-bit hashes at graph scales.
    """
    regs = np.asarray(regs)
    if regs.ndim == 1:
        regs = regs[None, :]
    n_rows, m = regs.shape
    alpha = _alpha(m)
    power = (
        _EXP2_NEG[regs]
        if regs.dtype == np.uint8
        else np.exp2(-regs.astype(np.float64))
    )
    raw = alpha * m * m / power.sum(axis=1)
    zeros = (regs == 0).sum(axis=1)
    small = (raw <= 2.5 * m) & (zeros > 0)
    with np.errstate(divide="ignore"):
        linear = m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
    out = np.where(small, linear, raw)
    return out
