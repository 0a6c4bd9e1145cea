"""Array-native vs sequential Algorithm-1 search on the dblp surrogate.

The PR-4 perf claim: the array engine (vectorised candidate toggling,
the batched base/fold posterior, probe-level ``SearchContext`` reuse)
must run a full Table-2-style ``obfuscate`` grid ≥2× faster end-to-end
than the retained sequential ground-truth engine on the dblp surrogate
(n ≈ 2k), while producing the *identical* search trace, candidate sets
and released graph at every seed.

``test_obfuscation_search_equivalence`` pins the identity (it is the CI
smoke job); ``test_obfuscation_search_speedup`` times the grid after a
warm-up pass and writes ``benchmarks/results/obfuscation_speedup.csv``.

The grid mirrors the experiment harness: the paper's k ∈ {20, 60, 100}
and ε ∈ {1e-3, 1e-4}, with ε rescaled by ``scaled_eps`` to preserve the
tolerated-vertex *count* on the smaller surrogate (the harness's one
documented adaptation).

``test_pair_keyed_fold_coverage`` pins the array engine's structural
claim: because every pair's perturbation is keyed by the pair, the
base/fold posterior (one cached edge-DP per probe, each attempt's
additions folded in, all attempts evaluated in one stacked pass) serves
most posterior rows without a recompute.

Environment knobs:

``REPRO_BENCH_SEARCH_SCALE``     surrogate size (default 0.45 → n ≈ 2k;
                                 CI smoke uses 0.1)
``REPRO_BENCH_SEARCH_ATTEMPTS``  Algorithm-2 attempts per σ (default 3,
                                 the harness setting)

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obfuscation_search.py -s
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.core.search import obfuscate
from repro.experiments.config import scaled_eps
from repro.graphs.datasets import dblp_like

SEARCH_SCALE = float(os.environ.get("REPRO_BENCH_SEARCH_SCALE", 0.45))
SEARCH_ATTEMPTS = int(os.environ.get("REPRO_BENCH_SEARCH_ATTEMPTS", 3))
SEED = 0
DELTA = 1e-3

#: The paper's Table-2 privacy grid (ε values are paper values,
#: rescaled per run by :func:`repro.experiments.config.scaled_eps`).
K_VALUES = (20, 60, 100)
PAPER_EPS_VALUES = (1e-3, 1e-4)


@pytest.fixture(scope="module")
def graph():
    """The dblp surrogate (n ≈ 2000 at the default scale)."""
    return dblp_like(scale=SEARCH_SCALE, seed=SEED)


def _grid(graph):
    n = graph.num_vertices
    return [
        (k, paper_eps, scaled_eps(paper_eps, "dblp", n))
        for k in K_VALUES
        for paper_eps in PAPER_EPS_VALUES
    ]


def _run(graph, k, eps, engine):
    return obfuscate(
        graph,
        k=k,
        eps=eps,
        seed=SEED,
        attempts=SEARCH_ATTEMPTS,
        delta=DELTA,
        engine=engine,
    )


def _assert_identical(array_result, seq_result):
    assert [
        (s.sigma, s.eps_achieved, s.phase) for s in array_result.trace
    ] == [(s.sigma, s.eps_achieved, s.phase) for s in seq_result.trace]
    assert array_result.eps_achieved == seq_result.eps_achieved
    assert array_result.edges_processed == seq_result.edges_processed
    if math.isnan(array_result.sigma):
        assert math.isnan(seq_result.sigma)
    else:
        assert array_result.sigma == seq_result.sigma
    if array_result.success:
        assert sorted(array_result.uncertain.candidate_pairs()) == sorted(
            seq_result.uncertain.candidate_pairs()
        )


def test_obfuscation_search_equivalence(graph):
    """Same seed ⇒ same trace, same σ, same release on either engine."""
    n = graph.num_vertices
    for k, paper_eps, eps in _grid(graph)[:2]:
        _assert_identical(
            _run(graph, k, eps, "array"), _run(graph, k, eps, "sequential")
        )
    # one unscaled (hard) cell exercises the all-failures doubling path
    _assert_identical(
        _run(graph, 60, 1e-4, "array"), _run(graph, 60, 1e-4, "sequential")
    )


def test_obfuscation_search_speedup(graph):
    """The ≥2× end-to-end claim over the Table-2 grid (n ≈ 2k)."""
    grid = _grid(graph)
    # Warm-up: one full cell per engine, so allocator/cache effects do
    # not bill the first measured cell.
    _run(graph, grid[0][0], grid[0][2], "sequential")
    _run(graph, grid[0][0], grid[0][2], "array")

    def _best_of(engine, k, eps, rounds=2):
        best, result = math.inf, None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = _run(graph, k, eps, engine)
            best = min(best, time.perf_counter() - t0)
        return best, result

    rows = []
    total_seq = total_array = 0.0
    for k, paper_eps, eps in grid:
        t_seq, seq = _best_of("sequential", k, eps)
        t_array, arr = _best_of("array", k, eps)
        _assert_identical(arr, seq)
        total_seq += t_seq
        total_array += t_array
        rows.append(
            {
                "dataset": "dblp",
                "scale": SEARCH_SCALE,
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "k": k,
                "paper_eps": paper_eps,
                "eps_used": round(eps, 6),
                "probes": len(arr.trace),
                "success": arr.success,
                "sequential_seconds": round(t_seq, 4),
                "array_seconds": round(t_array, 4),
                "speedup": round(t_seq / t_array, 2),
            }
        )

    speedup = total_seq / total_array
    rows.append(
        {
            "dataset": "dblp",
            "scale": SEARCH_SCALE,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "k": "all",
            "paper_eps": "all",
            "eps_used": "",
            "probes": sum(r["probes"] for r in rows),
            "success": "",
            "sequential_seconds": round(total_seq, 4),
            "array_seconds": round(total_array, 4),
            "speedup": round(speedup, 2),
        }
    )
    from conftest import save_results

    save_results(rows, "obfuscation_speedup.csv")
    print(
        f"\nAlgorithm-1 search over {len(grid)} Table-2 cells "
        f"(scale={SEARCH_SCALE}, n={graph.num_vertices}): sequential "
        f"{total_seq:.2f}s, array {total_array:.2f}s — {speedup:.2f}x"
    )
    # The headline bound holds at the documented scale; tiny smoke
    # surrogates leave too little vectorisable work per probe.  Kept a
    # notch under the measured ~3.6-3.9x — absolute ratios drift with
    # runner profile (see bench_worlds.py); perf_gate.py owns the
    # relative regression check.
    floor = 2.0 if SEARCH_SCALE >= 0.4 else 1.2
    assert speedup >= floor, (
        f"expected >={floor}x end-to-end, measured {speedup:.2f}x"
    )


def test_pair_keyed_fold_coverage(graph):
    """The base/fold path serves most posterior rows across the grid.

    ≥80% of rows at the documented scale, ≥60% on the tiny CI smoke
    surrogate, where hub rows (CLT, always recomputed) are a larger
    fraction.  Every successful cell's release meets its tolerance.
    """
    folded = recomputed = 0
    for k, paper_eps, eps in _grid(graph):
        result = _run(graph, k, eps, "array")
        if result.success:
            assert result.eps_achieved <= eps, (k, paper_eps)
        folded += result.rows_folded
        recomputed += result.rows_recomputed
    coverage = folded / max(folded + recomputed, 1)
    floor = 0.8 if SEARCH_SCALE >= 0.4 else 0.6
    assert coverage >= floor, f"fold coverage {coverage:.3f} < {floor}"
