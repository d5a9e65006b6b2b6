"""Defining equations for rational normal scrolls, with verification tooling."""

from .polyring import (
    GF,
    VAR_S,
    VAR_T,
    VAR_V,
    VAR_W,
    VAR_Z,
    ZZ,
    Domain,
    DomainMismatchError,
    Polynomial,
    Substitution,
    VarId,
    binomial_row,
    format_poly,
    grevlex_key,
    is_prime,
    monomial,
    t_var,
    u_var,
    x_var,
)
from .scroll import (
    BridgeMeta,
    EquationSet,
    ScrollProfile,
    WeightGroup,
    bridge,
    bridge_meta,
    build_profile,
    curve_equation,
    equation_set,
    g_polynomial,
    minors_2x2,
    term_bound,
    weight_groups,
)
from .textio import (
    ParseContext,
    ParseError,
    parse_poly,
    poly_from_json,
    poly_to_json,
)
from .verify import (
    BudgetExceededError,
    VarietyReport,
    check_bridge_determinant_power,
    check_bridge_scroll_vanishing,
    check_construction_budget,
    check_parametrization,
    check_suite,
    compare_varieties,
    generic_minor,
    plucker_identity,
    projective_size,
    scroll_param_map,
)

__version__ = "0.1.0"
