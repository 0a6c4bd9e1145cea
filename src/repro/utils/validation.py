"""Argument-validation helpers shared across the library.

All validators raise ``ValueError`` (or ``TypeError`` for non-numerics)
with messages that name the offending parameter, so failures surface at
API boundaries instead of deep inside numeric kernels.
"""

from __future__ import annotations


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_vertex(v: int, n: int, name: str = "vertex") -> int:
    """Validate a vertex id against a graph of ``n`` vertices."""
    v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"{name} must be in [0, {n}), got {v}")
    return v
