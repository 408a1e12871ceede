"""Flat-ring cyclide coordinates, simply-periodic Lame functions, and
expansions of the fundamental solution of the 3-D Laplace equation."""

__version__ = "0.1.0"

from .coords import (
    AlgebraicFlatRing,
    CartesianPoint,
    FlatRingPoint,
    ToroidalPoint,
    Variant,
    algebraic_to_cartesian,
    cartesian_to_algebraic,
    cartesian_to_flatring,
    cartesian_to_toroidal,
    chi_cylindrical,
    chi_flatring,
    coordinate_surface_residual,
    flatring_to_cartesian,
    metric_h,
    toroidal_to_cartesian,
)
from .dirichlet import (
    BoundaryData,
    CoefficientTable,
    FlatRingDomain,
    coefficients,
    external_from_boundary,
    solve_interior,
    solve_point_source,
)
from .elliptic import (
    JacobiImag,
    JacobiTriple,
    Modulus,
    complete_k,
    jacobi_imag,
    jacobi_real,
    ns2_series_coeffs,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    OrderingError,
    PoleError,
    QuadratureWarning,
)
from .harmonics import (
    HarmonicIndex,
    HarmonicKind,
    Truncation,
    addition_theorem_rhs,
    external_harmonic,
    flatring_summand,
    green_expansion,
    integral_relation_check,
    internal_harmonic,
    limit_comparison,
    toroidal_green_expansion,
    toroidal_harmonic,
    toroidal_limit_summand,
)
from .lame import (
    LameBasis,
    LameFamily,
    OrderSet,
    basis,
    basis_for,
    clear_caches,
    eigenvalue_bracket,
    family_of_superscript,
    order_set,
    shell_depth,
    shell_specs,
)
from .legendre import (
    gamma_ratio,
    legendre_p,
    legendre_q,
    toroidal_p_table,
    toroidal_q_table,
)
