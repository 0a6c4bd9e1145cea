"""repro — Injecting Uncertainty in Graphs for Identity Obfuscation.

A from-scratch Python reproduction of Boldi, Bonchi, Gionis, Tassa
(PVLDB 5(11), 2012).  The package publishes social graphs as *uncertain
graphs* — each candidate edge carries a probability — achieving
(k, ε)-obfuscation of vertex identities with less utility loss than
whole-edge randomization.

Typical use::

    from repro import dblp_like, obfuscate

    graph = dblp_like(scale=0.2, seed=0)
    result = obfuscate(graph, k=20, eps=0.05, seed=0)
    published = result.uncertain          # an UncertainGraph

Subpackages
-----------
``repro.graphs``     certain-graph substrate (structure, generators, datasets)
``repro.uncertain``  uncertain-graph model and possible-world sampling
``repro.worlds``     batched possible-world engine (§6 utility evaluation)
``repro.core``       the paper's obfuscation algorithms (§3–§5)
``repro.baselines``  random sparsification/perturbation comparators (§7.3)
``repro.stats``      utility statistics and Hoeffding bounds (§6)
``repro.anf``        HyperANF / HyperLogLog distance substrate
``repro.attacks``    extensions: degree-trail attack, belief measure
``repro.experiments`` table/figure harness behind the benchmarks
"""

from repro.core import (
    ObfuscationParams,
    ObfuscationResult,
    compute_degree_posterior,
    generate_obfuscation,
    is_k_eps_obfuscation,
    obfuscate,
    obfuscate_with_fallback,
    tolerance_achieved,
)
from repro.graphs import (
    Graph,
    dblp_like,
    flickr_like,
    load_dataset,
    read_edge_list,
    write_edge_list,
    y360_like,
)
from repro.uncertain import (
    UncertainGraph,
    WorldSampler,
    read_uncertain_graph,
    sample_world,
    write_uncertain_graph,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "UncertainGraph",
    "WorldSampler",
    "sample_world",
    "obfuscate",
    "obfuscate_with_fallback",
    "generate_obfuscation",
    "ObfuscationParams",
    "ObfuscationResult",
    "compute_degree_posterior",
    "tolerance_achieved",
    "is_k_eps_obfuscation",
    "dblp_like",
    "flickr_like",
    "y360_like",
    "load_dataset",
    "read_edge_list",
    "write_edge_list",
    "read_uncertain_graph",
    "write_uncertain_graph",
    "__version__",
]
