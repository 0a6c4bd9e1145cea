"""Certain-graph substrate: data structure, algorithms, generators, datasets."""

from repro.graphs.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    dblp_like,
    flickr_like,
    load_dataset,
    paper_degree_exponent,
    paper_scale_dataset,
    y360_like,
)
from repro.graphs.generators import (
    affiliation_graph,
    barabasi_albert,
    configuration_model_edges,
    erdos_renyi,
    powerlaw_cluster,
    powerlaw_degree_sequence,
    watts_strogatz,
)
from repro.graphs.graph import Graph, pair_index
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.traversal import all_pairs_distances, bfs_distances
from repro.graphs.triangles import (
    centered_triple_count,
    clustering_coefficient,
    connected_triple_count,
    transitivity,
    triangle_count,
)

__all__ = [
    "Graph",
    "pair_index",
    "bfs_distances",
    "all_pairs_distances",
    "triangle_count",
    "centered_triple_count",
    "connected_triple_count",
    "clustering_coefficient",
    "transitivity",
    "erdos_renyi",
    "affiliation_graph",
    "barabasi_albert",
    "powerlaw_cluster",
    "watts_strogatz",
    "powerlaw_degree_sequence",
    "configuration_model_edges",
    "DatasetSpec",
    "DATASET_SPECS",
    "dblp_like",
    "flickr_like",
    "y360_like",
    "load_dataset",
    "paper_degree_exponent",
    "paper_scale_dataset",
    "read_edge_list",
    "write_edge_list",
]
