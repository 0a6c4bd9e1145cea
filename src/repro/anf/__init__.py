"""HyperANF / HyperLogLog substrate for distance statistics on big graphs."""

from repro.anf.distance_stats import (
    anf_distance_histogram,
    neighbourhood_function_to_histogram,
)
from repro.anf.hyperanf import NeighbourhoodFunction, hyperanf
from repro.anf.hyperloglog import (
    HyperLogLog,
    estimate_many,
    init_registers,
    splitmix64,
)
from repro.anf.jackknife import jackknife, jackknife_mean

__all__ = [
    "HyperLogLog",
    "splitmix64",
    "init_registers",
    "estimate_many",
    "hyperanf",
    "NeighbourhoodFunction",
    "anf_distance_histogram",
    "neighbourhood_function_to_histogram",
    "jackknife",
    "jackknife_mean",
]
