"""Hamiltonian dynamics with generalized, possibly state-dependent
Poisson brackets: bracket-consistency checks by exact differentiation,
non-canonical integration with invariant monitors, degenerate-limit
dimensional reduction, and the hodograph solution families of the planar
transport pair."""

from .expressions import (
    Const,
    DomainError,
    Dual,
    Expression,
    ExpressionError,
    Name,
    ParseError,
    UnboundNameError,
    derivative,
    evaluate,
    free_names,
    gradient,
    parse,
    substitute,
    to_source,
)
from .brackets import (
    DegeneracyReport,
    JacobiReport,
    PoissonStructure,
    StructureError,
    canonical,
    constant_theta_f,
    custom,
    d_operator_values,
    general_planar,
    omega_matrix,
    theta_f_field,
)
from .dynamics import (
    EvolutionReport,
    FlowProblem,
    Trajectory,
    evolution_residuals,
    integrate,
    time_derivative_split,
    vanishing_combinations,
    velocity,
    zero_crossing_frequency,
)
from .reduction import (
    EpsilonSweep,
    ReducedSystem,
    ReductionError,
    ReductionReport,
    SpectrumReport,
    SurfaceSample,
    build_reduced,
    check_reduction,
    epsilon_sweep,
    implicit_theta,
    implicit_theta_constraint_residuals,
    integrate_reduced,
    leaf_cloud,
    momentum_offsets,
    reduction_constants,
    spectrum_and_frequency,
    surface_cloud,
    total_variation_residual,
)
from .hodograph import (
    Grid2D,
    HodographError,
    HodographFamily,
    adaptive_simpson,
    build_family,
    default_filters,
    jacobian_minimum,
    limit_sweep,
    pde_residual,
    reduced_limit_family,
)

__version__ = "0.1.0"
