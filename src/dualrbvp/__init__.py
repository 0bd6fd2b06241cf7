"""Riemann boundary value problems for monogenic functions over dual
complex numbers: algebra, contours, Cauchy-type integrals, canonical
factorization, and solvers with residual verification."""

from .algebra import (
    BasisE,
    DualComplex,
    PointE,
    basis_validate,
    biharmonic_basis,
    classical_basis,
    dc_add,
    dc_exp,
    dc_inv,
    dc_ln,
    dc_mul,
    dc_neg,
    dc_norm,
    dc_pow_int,
    dc_sub,
    point_embed,
    point_from_value,
)
from .canonical import CanonicalX, build_canonical_X, compute_index, continuous_log
from .contour import (
    Contour,
    build_contour,
    circle_contour,
    ellipse_contour,
    explicit_contour,
    polygon_contour,
    theta_measure,
)
from .diagnostics import dini_estimate, modulus_of_continuity, regularity_report
from .expr import evaluate, parse, to_str
from .integral import (
    CauchyIntegralFn,
    boundary_values,
    cauchy_integral,
    contour_integral,
    jump_check,
)
from .rbvp import (
    RBVPProblem,
    RBVPSolution,
    SolvabilityReport,
    Tolerances,
    check_solvability,
    residual_report,
    solve_auto,
    solve_homogeneous,
    solve_jump,
    solve_nonhomogeneous,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
