"""Extension — degree-trail attack risk across sequential releases (§8).

The paper's conclusions pose the applicability of Medforth & Wang's
degree-trail attack to probabilistic releases as an open question.
This benchmark quantifies it on the dblp surrogate: an evolving network
published three times, attacked through the degree trails of

1. plain (unprotected) releases,
2. the expected degrees of (k, ε)-obfuscated uncertain releases,
3. a sampled world of each uncertain release.

Expected outcome: the uncertain releases strictly reduce the
re-identification rate relative to plain publication, and stronger k
reduces it further — uncertainty helps, but (as the paper anticipates)
does not nullify the attack.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.attacks.degree_trail import (
    degree_trails,
    expected_degree_trails,
    reidentification_rate,
    trail_uniqueness_rate,
)
from repro.core.search import obfuscate_with_fallback
from repro.experiments.report import render_table
from repro.graphs.graph import Graph
from repro.uncertain.sampling import sample_world

SNAPSHOTS = 3


def _evolve(graph, steps: int, rng) -> list:
    out = []
    n = graph.num_vertices
    edges = set(graph.edges())
    for _ in range(steps):
        added = 0
        while added < max(1, int(0.04 * len(edges))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in edges:
                edges.add(edge)
                added += 1
        out.append(Graph.from_edges(n, edges))
    return out


def test_ext_degree_trail(benchmark, cache, config):
    base = config.graph("dblp")
    rng = np.random.default_rng(config.seed)
    snapshots = _evolve(base, SNAPSHOTS, rng)
    original_trails = degree_trails(snapshots)
    plain_rate = reidentification_rate(original_trails, original_trails)

    def attack_at(k: int) -> dict:
        releases = []
        for i, snap in enumerate(snapshots):
            eps = config.eps_for("dblp", 1e-3)
            result = obfuscate_with_fallback(
                snap, k, eps,
                c_values=config.c_chain,
                seed=(config.seed, k, i),
                attempts=2,
                delta=5e-3,
            )
            assert result.success
            releases.append(result.uncertain)
        expected = expected_degree_trails(releases)
        sampled = np.stack(
            [sample_world(r, seed=(config.seed, 5, i)).degrees()
             for i, r in enumerate(releases)],
            axis=1,
        ).astype(float)
        return {
            "k": k,
            "reid_expected_degrees": reidentification_rate(
                original_trails, expected, tol=0.5
            ),
            "reid_sampled_world": reidentification_rate(
                original_trails, sampled, tol=0.5
            ),
        }

    first = benchmark.pedantic(
        lambda: attack_at(20), rounds=1, iterations=1, warmup_rounds=0
    )
    rows = [
        {
            "k": "plain release",
            "reid_expected_degrees": plain_rate,
            "reid_sampled_world": plain_rate,
        },
        first,
        attack_at(60),
    ]
    emit(
        "Extension: degree-trail re-identification across "
        f"{SNAPSHOTS} sequential releases (dblp)",
        render_table(rows),
        rows,
        "ext_degree_trail.csv",
    )
    print(f"(unique original trails: {trail_uniqueness_rate(original_trails):.1%})")

    # Uncertainty must not make the attack easier, via either attack path.
    for row in rows[1:]:
        assert row["reid_expected_degrees"] <= plain_rate + 1e-9
        assert row["reid_sampled_world"] <= plain_rate + 1e-9
    # And the stronger obfuscation (k=60) leaks no more than k=20.
    assert rows[2]["reid_sampled_world"] <= rows[1]["reid_sampled_world"] + 0.01
