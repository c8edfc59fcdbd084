"""Graph substrate: CSR graphs, builders, I/O, subgraphs, quotient graphs,
the distributed per-PE structure, dynamic (mutable) graphs, and
validation helpers."""

from .csr import Graph
from .dynamic import (
    BatchResult,
    DynamicGraph,
    MutationBatch,
    MutationError,
    VertexAdd,
    generate_mutation_stream,
    random_mutation_batch,
    read_mutation_stream,
    write_mutation_stream,
)
from .build import (
    from_edge_list,
    from_adjacency,
    from_scipy_sparse,
    from_networkx,
    to_networkx,
    to_scipy_sparse,
    empty_graph,
    path_graph,
    cycle_graph,
    star_graph,
    complete_graph,
    grid2d_graph,
)
from .io import (
    read_metis,
    write_metis,
    read_dimacs,
    write_dimacs,
    read_partition,
    write_partition,
)
from .subgraph import induced_subgraph, relabel, SubgraphMap
from .quotient import quotient_graph, block_neighbors, cut_between
from .distributed import DistributedGraph, LocalView
from .validate import validate_graph, validate_partition, validate_matching

__all__ = [
    "Graph",
    "BatchResult",
    "DynamicGraph",
    "MutationBatch",
    "MutationError",
    "VertexAdd",
    "generate_mutation_stream",
    "random_mutation_batch",
    "read_mutation_stream",
    "write_mutation_stream",
    "from_edge_list",
    "from_adjacency",
    "from_scipy_sparse",
    "from_networkx",
    "to_networkx",
    "to_scipy_sparse",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid2d_graph",
    "read_metis",
    "write_metis",
    "read_dimacs",
    "write_dimacs",
    "read_partition",
    "write_partition",
    "induced_subgraph",
    "relabel",
    "SubgraphMap",
    "quotient_graph",
    "block_neighbors",
    "cut_between",
    "DistributedGraph",
    "LocalView",
    "validate_graph",
    "validate_partition",
    "validate_matching",
]
