"""Exact decision procedures for well-covered, W2, SQC/SC/PC, vertex
decomposable, Cohen-Macaulay, Gorenstein and doubly Cohen-Macaulay graphs,
decided homologically on independence complexes, plus exhaustive
verification of the relevant classification theorems on all small graphs.
"""

from .canon import canonical_form, canonical_order, is_isomorphic, isomorphism_map
from .complexes import (
    DEFAULT_FIELDS,
    FieldSpec,
    HomologyProfile,
    SimplicialComplex,
    betti_profile,
    core,
    delete,
    from_facet_list,
    independence_complex,
    is_cm,
    is_cm_graph,
    is_doubly_cm,
    is_doubly_cm_graph,
    is_gorenstein_graph,
    link,
    parse_fields,
    to_facet_list,
)
from .decomposability import SheddingCertificate, is_shedding_vertex, is_vertex_decomposable, replay_certificate
from .enumeration import (
    EnumFilter,
    VerificationReport,
    connected_counts,
    enumerate_connected,
    enumerate_connected_upto,
    theorem_ids,
    verify_theorem,
)
from .families import catalog, fixture_expectations, gen_G, gen_H, pinter_extend, validate_fixture
from .graph import (
    INFINITY,
    BlockDecomposition,
    Graph,
    GraphInputError,
    NotAnEdgeError,
    PreconditionError,
    UnknownVertexError,
    UnsupportedSizeError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from .graphio import from_edge_list, from_graph6, read_graph6_file, to_dot, to_edge_list, to_graph6
from .independence import (
    IndependentSetReport,
    independence_number,
    independent_set_report,
    is_w2,
    is_well_covered,
    maximal_independent_sets,
)
from .planarity import is_planar
from .recognition import (
    ClassificationReport,
    PcCertificate,
    SqcCertificate,
    basic_3_cycles,
    basic_4_cycles,
    basic_5_cycles,
    cactus_cm_condition,
    classify,
    is_block_cactus,
    is_cactus,
    is_simplicial_graph,
    recognize_pc,
    recognize_sc,
    recognize_sqc,
    simplicial_vertices,
    square_cm_criterion,
    t3_partition_condition,
    t3_simplicial_condition,
)

__version__ = "0.1.0"
