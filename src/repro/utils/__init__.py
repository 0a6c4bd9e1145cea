"""Shared low-level helpers: seeded RNG plumbing and validation.

These utilities are deliberately small and dependency-free (numpy only) so
that every other subpackage can rely on them without import cycles.
"""

from repro.utils.rng import as_rng
from repro.utils.validation import check_probability, check_vertex

__all__ = [
    "as_rng",
    "check_probability",
    "check_vertex",
]
