"""Attack models and alternative privacy measures (extensions of §2/§8)."""

from repro.attacks.belief import belief_level_from_column, belief_obfuscation_levels
from repro.attacks.degree_trail import (
    degree_trails,
    expected_degree_trails,
    reidentification_rate,
    trail_matches,
    trail_uniqueness_rate,
)

__all__ = [
    "belief_level_from_column",
    "belief_obfuscation_levels",
    "degree_trails",
    "expected_degree_trails",
    "trail_matches",
    "reidentification_rate",
    "trail_uniqueness_rate",
]
