"""Golden pins of the generators' edge sets across commits.

Every dataset surrogate and every sequential generator draws from its
RNG in an order that depends on how it walks its own partial graph (the
Holme–Kim triad step picks a neighbour by position in an iteration
order).  A storage refactor can change that order without changing any
property the other generator tests check, so these pins hash the exact
``edge_codes()`` of fixed-seed graphs: the serve-mixed graph, the three
scale-0.2 surrogates, the paper-scale configuration model and one small
case of each sequential generator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.datasets import (
    dblp_like,
    flickr_like,
    paper_scale_dataset,
    y360_like,
)
from repro.graphs.generators import (
    affiliation_graph,
    barabasi_albert,
    erdos_renyi,
    watts_strogatz,
)

GOLDEN = {
    "dblp_like_0.2": (
        lambda: dblp_like(scale=0.2, seed=0),
        900, 2691,
        "d312e8c892e41b411caef9c553ac4a18ee320f56960451df4f3052ff0d64fe43",
    ),
    "flickr_like_0.2": (
        lambda: flickr_like(scale=0.2, seed=0),
        600, 5900,
        "9cdb2936fda7fae9eccda2685df56218d69686ac1159aa4ebed19190b1d00e4e",
    ),
    "y360_like_0.2": (
        lambda: y360_like(scale=0.2, seed=0),
        1200, 2396,
        "df926480f6754d7ccf5173b1b326b2715c1ff37c5138ee4b0bcea3638f2928c6",
    ),
    "dblp_like_1.0": (
        lambda: dblp_like(scale=1.0, seed=0),
        4500, 13491,
        "4d3a6fe1e5a7b2c73ab04ecb35bee98a03da5ab5337e517b69ad8823db415749",
    ),
    "paper_dblp_0.05": (
        lambda: paper_scale_dataset("dblp", scale=0.05, seed=0, cache_dir=None),
        11321, 35575,
        "552bd8e53952978b4bd8276708d1e7dbae34e1d66ce162e5cdbfb4c3fc1b8ae7",
    ),
    "erdos_renyi": (
        lambda: erdos_renyi(60, 0.1, seed=1),
        60, 177,
        "ff555b1f4cb1e3a346333f48f23b2be0cef35e6fb53c81117ad99e106d1bbf81",
    ),
    "erdos_renyi_complete": (
        lambda: erdos_renyi(7, 1.0, seed=0),
        7, 21,
        "959ea93687d7e49babead9aa6895744953d4591262f60972e0d8ec8aeb186289",
    ),
    "barabasi_albert": (
        lambda: barabasi_albert(80, 3, seed=2),
        80, 231,
        "8cc4fc80b16a119aeeadcd3a3d5fd05b27094cd19159213129bbd3a4dabeacf5",
    ),
    "watts_strogatz": (
        lambda: watts_strogatz(40, 4, 0.3, seed=3),
        40, 80,
        "c5576ce4b57168160613d052179ddbbeb9d4255ccdad1d474d429bafb80e8d2f",
    ),
    "affiliation_graph": (
        lambda: affiliation_graph(100, 40, [0.5, 0.3, 0.2], seed=4),
        100, 114,
        "e05834c0e27d68c41921ac42fd0aa906773bce7a6fc31e2155cb6cae21acc024",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_edge_codes_golden(name, monkeypatch):
    monkeypatch.delenv("REPRO_DATASET_CACHE", raising=False)
    build, n, m, digest = GOLDEN[name]
    g = build()
    assert (g.num_vertices, g.num_edges) == (n, m)
    codes = np.ascontiguousarray(g.edge_codes(), dtype="<i8")
    assert hashlib.sha256(codes.tobytes()).hexdigest() == digest
