"""Exact solver for the minimax induced-subgraph degree invariant.

For a graph G, the sub-dimension of a vertex set S is the smallest
possible maximum degree of an induced subgraph on at least half of S
(rounded down, plus one) of its vertices, and the dimension of G is the
largest sub-dimension over all induced subgraphs.  The package computes
both exactly with replayable certificates, plus the coloring bound, the
critical-subgraph machinery, Cayley-graph translation arguments, and
unit-distance embeddings built from proper colorings.
"""

from .cayley import (
    AbelianGroup,
    GeneratorSet,
    cayley_graph,
    dim_via_transitivity,
    translate,
)
from .coloring import (
    Coloring,
    DecompositionRound,
    chromatic_bound_from_dim,
    chromatic_number,
    chromatic_number_within,
    critical_subgraph,
    decomposition_coloring,
    decomposition_round_bound,
    greedy_coloring,
    is_proper,
)
from .core import (
    Graph,
    bits_of,
    ceil_log2,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    encode_graph6,
    format_edge_list,
    hypercube_graph,
    induced_subgraph,
    mask_of,
    max_degree_within,
    parse_edge_list,
    parse_graph6,
    path_graph,
    relabel,
    subsets_of_mask,
    subsets_of_size,
)
from .dimension import (
    DimCertificate,
    SubdimCertificate,
    dim_exact,
    subdim,
    subdim_exists,
    subdim_naive,
)
from .embedding import (
    Embedding,
    EmbeddingReport,
    format_embedding,
    unit_distance_embed,
    verify_embedding,
)
from .errors import CapExceeded, DomainError, ParseError
from .limits import DEFAULT_CAP, resolve_cap
from .verify import SUITE_NAMES, enumerate_labeled_graphs, run_all, run_suite

__version__ = "0.1.0"
