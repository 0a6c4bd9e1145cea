"""Scenario: a data owner publishes a co-authorship network.

    python examples/publish_coauthorship.py

The intro scenario of the paper: an institution wants to release its
collaboration graph for research without exposing who is who.  The
script:

1. builds a co-authorship workload with the affiliation (clique-union)
   generator — papers are cliques of their authors;
2. obfuscates it at (k = 20, ε = 0.05);
3. writes the publishable artefact (``u v p`` triples) to disk;
4. produces the utility report a reviewer would ask for: original vs
   published statistics, with possible-world sample means and SEMs.
"""

import tempfile
from pathlib import Path

from repro import obfuscate, read_uncertain_graph, write_uncertain_graph
from repro.graphs import affiliation_graph
from repro.stats import paper_statistics
from repro.worlds import WorldStatisticsEstimator

K, EPS = 20, 0.05


def main() -> None:
    # ~700 authors, 900 papers of 2-5 authors, preferential participation.
    graph = affiliation_graph(
        700, 900, [0.35, 0.40, 0.18, 0.07], novelty=0.35, seed=7
    )
    print(f"co-authorship graph: {graph.num_vertices} authors, "
          f"{graph.num_edges} collaboration edges")

    result = obfuscate(graph, k=K, eps=EPS, seed=1, attempts=3, delta=1e-3)
    assert result.success
    print(f"obfuscated at sigma = {result.sigma:.6f} "
          f"(eps achieved {result.eps_achieved:.4f})")

    # The publishable artefact.
    out_dir = Path(tempfile.mkdtemp(prefix="repro_publish_"))
    out_path = out_dir / "coauthorship_uncertain.txt"
    write_uncertain_graph(result.uncertain, out_path)
    print(f"published file: {out_path} "
          f"({result.uncertain.num_candidate_pairs} uncertain pairs)")

    # A consumer loads it back and analyses it by possible-world sampling.
    published = read_uncertain_graph(out_path)
    stats = paper_statistics(distance_backend="anf")
    originals = {name: func(graph) for name, func in stats.items()}
    estimator = WorldStatisticsEstimator(published, stats)
    summaries = estimator.run(worlds=30, seed=3)

    print(f"\n{'statistic':<10} {'original':>12} {'published':>12} "
          f"{'rel.err':>8} {'rel.SEM':>8}")
    for name, summary in summaries.items():
        rel_err = summary.relative_error(originals[name])
        print(f"{name:<10} {originals[name]:>12.4f} {summary.mean:>12.4f} "
              f"{rel_err:>8.2%} {summary.relative_sem:>8.2%}")


if __name__ == "__main__":
    main()
