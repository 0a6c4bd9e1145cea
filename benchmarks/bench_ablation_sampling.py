"""Ablation — sampling error vs world count (Lemma 2 / Corollary 1).

The paper samples 100 worlds and reports tight SEMs (Table 5).  This
benchmark measures how the observed estimation error of the clustering
coefficient decays with r ∈ {10, 25, 50, 100} and checks it stays below
the Hoeffding envelope at every r (S_CC ∈ [0, 1] so the bound is usable
directly, as in §6.4).
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.experiments.harness import run_obfuscation_sweep
from repro.experiments.report import render_table
from repro.graphs.triangles import clustering_coefficient
from repro.stats.sampling import hoeffding_error_probability
from repro.worlds import estimate_statistic


def test_ablation_sampling_error(benchmark, cache, config):
    sweep = cache.sweep(eps_values=(1e-3,))
    entry = next(e for e in sweep if e.dataset == "dblp" and e.result.success)
    uncertain = entry.result.uncertain

    # Reference: a high-precision estimate (many worlds).
    reference = estimate_statistic(
        uncertain, clustering_coefficient, worlds=200, seed=99
    ).mean

    def measure(r: int) -> dict:
        errors = []
        for trial in range(6):
            summary = estimate_statistic(
                uncertain, clustering_coefficient, worlds=r, seed=(13, trial, r)
            )
            errors.append(abs(summary.mean - reference))
        return {
            "worlds": r,
            "mean_abs_error": float(np.mean(errors)),
            "max_abs_error": float(np.max(errors)),
            "hoeffding_bound_eps_at_5pct": float(
                np.sqrt(np.log(2 / 0.05) / (2 * r))
            ),
        }

    first = benchmark.pedantic(
        lambda: measure(10), rounds=1, iterations=1, warmup_rounds=0
    )
    rows = [first] + [measure(r) for r in (25, 50, 100)]
    emit(
        "Ablation: sampling error vs world count (S_CC, dblp k=20)",
        render_table(rows),
        rows,
        "ablation_sampling.csv",
    )

    # Error decays with r (allowing noise: max error at r=100 below
    # max error at r=10).
    assert rows[-1]["max_abs_error"] <= rows[0]["max_abs_error"] + 1e-3

    # Observed deviations stay below the 95% Hoeffding epsilon at each r
    # (the bound holds with margin since S_CC's real range is narrower).
    for row in rows:
        assert row["max_abs_error"] <= row["hoeffding_bound_eps_at_5pct"]
