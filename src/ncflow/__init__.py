"""Non-conflicting group-valued flows on cubic graphs and the normal
edge-colorings they induce.

The public surface re-exports the graph model, matching/2-factor machinery,
the flow engine, the coloring layer, generators, and the interchange formats.
"""

from .errors import ContractError, InputError, NcflowError, ResourceLimitError
from .flows import (
    ALPHA,
    ALPHA_BETA,
    BETA,
    ConflictEdge,
    ConflictReport,
    FlowAssignment,
    conflicts,
    even_cycle_flow,
    extract_disjoint_matchings,
    find_nonconflicting_flow,
    klein_bits,
    klein_from_bits,
    klein_name,
    loop_canonicalize,
    min_conflict_flow,
    nonconflicting_for_every_two_factor,
    two_cycle_factor_flow,
    two_odd_cycle_flow,
    verify_flow,
)
from .graph import (
    ContractedGraph,
    Pseudograph,
    bridges,
    build_graph,
    connected_components,
    contract_two_factor,
    girth,
    is_claw_free,
    is_connected,
    is_cubic,
    three_edge_cuts,
)
from .coloring import (
    EdgeColoring,
    chi_n_exact,
    classify_edge,
    coloring_from_flow,
    h_coloring,
    is_normal,
    lift_over_2_cut,
    lift_over_triangle,
    structural_abnormality,
    verify_conjecture4_witness,
    z2cubed_flow_coloring,
)
from .generators import (
    counterexample_family,
    diamond,
    expand_vertices_to_5cycles,
    fig3_graph,
    fig4_graph,
    k4,
    k6,
    k23,
    k23_with_p10v,
    k33,
    permutation_graph,
    petersen,
    petersen_minus_edge,
    petersen_minus_vertex,
    replace_edge_with_string,
    replace_vertex_with_triangle,
    ring_of_diamonds,
    string_gadget,
    string_of_diamonds,
    triangle_replace_all,
)
from .matchings import (
    Cycle,
    PerfectMatching,
    TwoFactor,
    complement_two_factor,
    enumerate_perfect_matchings,
    matchings_meeting_all_3cuts_once,
    matchings_through_edge,
    odd_cycle_count,
)

__version__ = "0.1.0"
