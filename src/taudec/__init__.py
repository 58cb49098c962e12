"""Sign-decomposition toolkit for support tau-tilting theory of
radical-square-zero quiver algebras: finiteness, exact counts, explicit
tilting enumeration with g-vectors, and the glued Hasse quiver."""

from .brauer import (
    CompositionSums,
    IdentityCheck,
    brauer_cycle_count,
    brauer_cycle_quiver,
    brauer_line_count,
    brauer_line_quiver,
    catalan_checks,
    composition_sums,
    verify_identities,
)
from .dynkin import NON_DYNKIN, DynkinType, NonDynkinError, catalan, classify, tilting_count
from .glue import (
    GLUING,
    INTERNAL,
    GluedHasse,
    HasseNode,
    glued_hasse,
    sign_slice_path_quiver,
)
from .matrices import (
    IntMatrix,
    IntVector,
    cartan_matrix,
    diagonal_matrix,
    g_from_dim_vector,
    identity_matrix,
    mat_mul,
    mat_vec,
    reflect_at,
    sign_diagonal,
    sink_reflection_matrix,
)
from .quiver import (
    UNIT,
    Arrow,
    QuiverError,
    SignVector,
    Valuation,
    ValuedGraph,
    ValuedQuiver,
    check_signs,
    components,
    graph_components,
    normalize,
    opposite,
    parse_quiver,
    quiver_file_text,
    separated_quiver,
    sign_subquiver,
    source_sink_signs,
    two_term_tilting,
    underlying_graph,
)
from .repa import (
    IntervalModule,
    PathQuiver,
    TiltingModule,
    UnsupportedComponentError,
    bongartz_complete,
    delete_vertex,
    euler_form,
    ext_dim,
    fac_contains,
    hom_dim,
    indicator,
    interval,
    intervals,
    path_quiver,
    tilting_hasse,
    tilting_modules,
    total_dim_vector,
)
from .signdec import (
    INFINITE,
    Infinite,
    count_for_signs,
    count_support_tilting,
    enumerate_signs,
    finiteness_witness,
    is_tau_tilting_finite,
    sign_slice_components,
)
