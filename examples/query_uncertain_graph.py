"""Scenario: analysing a published uncertain graph as a consumer (§6).

    python examples/query_uncertain_graph.py

You received an uncertain graph — someone else's (k, ε)-obfuscated
release — and want trustworthy statistics out of it.  This script shows
the §6 toolkit:

* exact closed forms for the linear statistics (edge count, average
  degree);
* Hoeffding-planned possible-world sampling for everything else,
  with the sample size chosen from Corollary 1;
* jackknifed HyperANF for the distance-based statistics.
"""

import numpy as np

from repro import obfuscate
from repro.anf import anf_distance_histogram, jackknife
from repro.graphs import y360_like
from repro.stats import (
    average_distance,
    effective_diameter,
    expected_average_degree,
    expected_num_edges,
    hoeffding_sample_size,
)
from repro.graphs.triangles import clustering_coefficient
from repro.uncertain import WorldSampler
from repro.worlds import estimate_statistic


def main() -> None:
    # Stand-in for "a release you downloaded": obfuscate a Y360 surrogate.
    graph = y360_like(scale=0.15, seed=0)
    published = obfuscate(graph, k=10, eps=0.1, seed=0, attempts=2, delta=1e-3).uncertain
    print(f"received uncertain graph: {published.num_vertices} vertices, "
          f"{published.num_candidate_pairs} uncertain pairs")

    # 1. Linear statistics: no sampling needed (§6.2).
    print(f"\nexact E[S_NE] = {expected_num_edges(published):.2f}")
    print(f"exact E[S_AD] = {expected_average_degree(published):.4f}")

    # 2. Bounded statistic with a guarantee: clustering coefficient.
    #    S_CC ∈ [0, 1]; how many worlds for ±0.05 at 95% confidence?
    r = hoeffding_sample_size(0.05, 0.05, 0.0, 1.0)
    print(f"\nCorollary 1: r = {r} worlds for |error| < 0.05 w.p. 0.95")
    r_used = min(r, 100)  # cap for demo runtime; bound then holds at ±eps'
    summary = estimate_statistic(
        published, clustering_coefficient, worlds=r_used, seed=1, name="S_CC"
    )
    print(f"S_CC over {r_used} worlds: mean={summary.mean:.4f} "
          f"(rel. SEM {summary.relative_sem:.2%})")

    # 3. Distance statistics via HyperANF + jackknife (§6.3 protocol).
    sampler = WorldSampler(published)
    rng = np.random.default_rng(2)
    runs = []
    for i in range(8):
        world = sampler.sample(seed=rng)
        runs.append(anf_distance_histogram(world, seed=i))
    apd, apd_se = jackknife(runs, lambda hs: float(np.mean([average_distance(h) for h in hs])))
    edi, edi_se = jackknife(runs, lambda hs: float(np.mean([effective_diameter(h) for h in hs])))
    print(f"\nS_APD   = {apd:.3f}  (jackknife SE {apd_se:.3f})")
    print(f"S_EDiam = {edi:.3f}  (jackknife SE {edi_se:.3f})")

    # 4. Per-pair queries from the uncertain-graph literature the paper
    #    cites: reliability, distance distributions, majority k-NN.
    from repro.uncertain import k_nearest_neighbors, median_distance, reliability

    hub = int(np.argmax(published.expected_degrees()))
    far = (hub + published.num_vertices // 2) % published.num_vertices
    rel = reliability(published, hub, far, worlds=100, seed=3)
    med = median_distance(published, hub, far, worlds=100, seed=3)
    print(f"\nreliability({hub} -> {far})      = {rel:.2f}")
    print(f"median distance({hub} -> {far})  = {med}")
    knn = k_nearest_neighbors(published, hub, 3, worlds=100, seed=4)
    print(f"majority 3-NN of vertex {hub}: "
          + ", ".join(f"{v} (support {s:.2f})" for v, s in knn))


if __name__ == "__main__":
    main()
