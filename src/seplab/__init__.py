"""Exact-arithmetic laboratory for separating modules.

Sparse polynomials over the rationals or a prime field, group actions on
their coefficient spaces, rank-based complexity measures, easy-class circuit
samplers, separation experiments, and finite-field function-space tools —
everything computed exactly, no floats anywhere.
"""

from .errors import InfeasibleError
from .field import Field, RATIONALS, field_from_name, prime_field
from .poly import (
    Poly,
    add,
    coefficient_of,
    derivative,
    evaluate,
    grlex_key,
    monomial,
    monomials_exact,
    monomials_upto,
    multiply,
    negate,
    poly_to_json,
    scalar_multiply,
    substitute,
    substitute_linear,
    subtract,
    variable,
    zero,
)
from .linalg import (
    Subspace,
    identity_matrix,
    is_invertible,
    kernel,
    mat_mul,
    rank,
    right_kernel,
    rref,
    span,
    span_rank,
)
from .measures import (
    MeasureReport,
    compute_measure,
    derivative_rows,
    dim_partials,
    hessian,
    hessian_rank_at,
    shifted_partials_rank,
)
from .groups import (
    GroupElement,
    InvarianceReport,
    apply,
    enumerate_invertible,
    enumerate_permutations,
    gl_order,
    identity_element,
    induced_coeff_map,
    invariance_check,
    linear_element,
    permutation_element,
    random_invertible,
)
from .functions import (
    determinant_poly,
    elementary_symmetric,
    from_spec,
    mod3_multilinear,
    permanent_poly,
    random_dense_poly,
)
from .circuits import (
    Depth4Circuit,
    EasySampler,
    NWBoundReport,
    expand,
    sample_depth3,
    sample_depth4,
    sampler_from_spec,
    verify_nw_bound,
)
from .sepmod import (
    Ambient,
    ClosureReport,
    ExplicitSpan,
    MinorsOfMeasure,
    ModuleEvaluation,
    ProductModule,
    SeparationReport,
    evaluate_module,
    explicit_product,
    group_closure,
    in_span,
    minors_explicit,
    poly_det,
    poly_matrix_minors,
    run_separation,
    symbolic_partial_deriv_matrix,
    vanishes_on,
)
from .f2lab import (
    AgreementReport,
    GKReport,
    TruthTable,
    distance_to_degree,
    format_table,
    function_monomials,
    gk_intersection_test,
    gl_points,
    index_point,
    intersect_all,
    multilinear_to_truth_table,
    parse_table,
    point_index,
    reduce_pointwise,
    table_from_int,
    truth_table,
    truth_table_to_multilinear,
    vanishing_ideal_basis,
)
from .seeding import derive_seed, trial_rng

__version__ = "0.1.0"
