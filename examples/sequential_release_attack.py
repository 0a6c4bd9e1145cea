"""Scenario: the degree-trail attack on sequential releases (§8).

    python examples/sequential_release_attack.py

The paper's conclusions flag Medforth & Wang's degree-trail attack as an
open question for probabilistic releases: if the same evolving network
is published repeatedly, can an adversary who watched a target's degree
evolve re-identify it across the releases?

This script measures that risk on a growing network published three
ways:

1. plain releases (no protection) — the upper bound of the risk;
2. uncertain releases, attacked through *expected* degrees;
3. uncertain releases, attacked through a sampled world.
"""

import numpy as np

from repro import obfuscate
from repro.attacks import (
    degree_trails,
    expected_degree_trails,
    reidentification_rate,
    trail_uniqueness_rate,
)
from repro.graphs import Graph, dblp_like
from repro.uncertain import sample_world

SNAPSHOTS = 3
K, EPS = 10, 0.1


def main() -> None:
    # An evolving network: the dblp surrogate gains edges between snapshots.
    rng = np.random.default_rng(0)
    base = dblp_like(scale=0.12, seed=0)
    n = base.num_vertices
    edges = set(base.edges())
    snapshots = []
    for _ in range(SNAPSHOTS):
        added = 0
        while added < int(0.05 * len(edges)):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in edges:
                edges.add(edge)
                added += 1
        snapshots.append(Graph.from_edges(n, edges))

    original_trails = degree_trails(snapshots)
    print(f"{len(snapshots)} snapshots of {snapshots[0].num_vertices} vertices")
    print(f"unique degree trails in the original sequence: "
          f"{trail_uniqueness_rate(original_trails):.1%}")

    # 1. Naive sequential publication.
    naive = reidentification_rate(original_trails, original_trails)
    print(f"\nre-identification, plain releases:            {naive:.1%}")

    # 2. Each snapshot published as an uncertain graph.
    releases = []
    for i, snap in enumerate(snapshots):
        result = obfuscate(snap, k=K, eps=EPS, seed=100 + i, attempts=2, delta=5e-3)
        assert result.success
        releases.append(result.uncertain)

    expected = expected_degree_trails(releases)
    via_expected = reidentification_rate(original_trails, expected, tol=0.5)
    print(f"re-identification via expected degrees:       {via_expected:.1%}")

    sampled = np.stack(
        [sample_world(r, seed=7).degrees() for r in releases], axis=1
    ).astype(float)
    via_sampled = reidentification_rate(original_trails, sampled, tol=0.5)
    print(f"re-identification via one sampled world:      {via_sampled:.1%}")

    print("\nuncertainty injection shrinks the degree-trail attack surface, "
          "but does not eliminate it — the open problem the paper poses.")


if __name__ == "__main__":
    main()
