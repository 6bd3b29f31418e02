"""Graph substrate: CSR graphs, generators, IO, samplers, partitioning, stats."""

from .csr import CSRGraph, coo_to_csr, validate_csr
from .generators import (
    barabasi_albert,
    complete,
    erdos_renyi,
    grid_2d,
    powerlaw_cluster,
    ring,
    rmat,
    social_community,
    star,
    stochastic_block_model,
    watts_strogatz,
)
from .io import load_npz, read_edge_list, read_metis, save_npz, write_edge_list, write_metis
from .partition import VertexPartition, compute_num_parts, contiguous_partition
from .samplers import (
    AliasTable,
    NegativeSampler,
    PositiveSampler,
    random_walk_positive_batch,
    sample_negative_batch,
    sample_positive_batch,
)
from .stats import GraphStats, compute_stats, connected_components, degree_histogram, largest_component

__all__ = [
    "CSRGraph",
    "coo_to_csr",
    "validate_csr",
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "stochastic_block_model",
    "watts_strogatz",
    "powerlaw_cluster",
    "social_community",
    "star",
    "ring",
    "complete",
    "grid_2d",
    "read_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
    "read_metis",
    "write_metis",
    "VertexPartition",
    "contiguous_partition",
    "compute_num_parts",
    "PositiveSampler",
    "NegativeSampler",
    "AliasTable",
    "sample_positive_batch",
    "sample_negative_batch",
    "random_walk_positive_batch",
    "GraphStats",
    "compute_stats",
    "degree_histogram",
    "connected_components",
    "largest_component",
]
