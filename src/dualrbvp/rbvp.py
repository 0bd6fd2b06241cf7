"""Solvers for the boundary relation  Phi+ = G Phi- + g  on a closed curve.

Three cases, dispatched on the data:

* jump (G identically 1):      Phi+- = g~ + c  for an arbitrary constant c;
* homogeneous (g identically 0): Phi+- = X+- P(zeta), P of degree <= kappa,
  and only the zero solution when kappa < 0;
* non-homogeneous:             Phi+- = X+- (psi~ + P), psi = g (X+)^(-1),
  subject to moment conditions  integral of psi(tau) tau^(s-1) = 0,
  s = 1..-kappa, when kappa < 0.

Solutions carry vectorized side evaluators, boundary tables and residual
reporting.  Each side's table is assembled at the smooth nodes from the
one-sided limits of the solution's two Cauchy-type integrals, each taken
once per side: X+- from the exponent (``CanonicalX.boundary``) and psi~+-.
Phi- is never derived from Phi+, so the residual stays an independent
check.  ``boundary_error_estimate`` is the largest first-order propagated
extrapolation error |X| (e_psi + |psi~ + P| e_E) over both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .algebra import BasisE, DualComplex, PointE, dc_inv, dc_mul, dc_norm, dc_pow_int
from .canonical import CanonicalX, build_canonical_X
from .contour import Contour
from .errors import (
    InputError,
    OriginNotInteriorError,
    PolynomialDegreeError,
    UnsolvableError,
)
from .integral import (
    BoundaryTable,
    CauchyIntegralFn,
    boundary_samples,
    boundary_values,
    contour_integral,
)
from . import expr as _expr


@dataclass
class Tolerances:
    residual: float = 1e-6
    index_integrality: float = 1e-3
    moment: Optional[float] = None

    @property
    def moment_tol(self) -> float:
        return self.residual if self.moment is None else self.moment


def _as_expr(e, default_text: str):
    if e is None:
        return _expr.parse(default_text)
    if isinstance(e, str):
        return _expr.parse(e)
    return e


def expr_is_one(e) -> bool:
    return _expr.is_const_value(e, 1 + 0j)


def expr_is_zero(e) -> bool:
    return _expr.is_const_value(e, 0j)


@dataclass
class RBVPProblem:
    """Boundary data for one problem instance."""

    basis: BasisE
    contour: Contour
    G: object = None                      # expression; None means constant 1
    g: object = None                      # expression; None means constant 0
    poly_coeffs: list = field(default_factory=list)   # DualComplex coefficients
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        self.G = _as_expr(self.G, "1")
        self.g = _as_expr(self.g, "0")
        if self.contour.basis is not self.basis:
            raise InputError("contour was built on a different basis")
        if not expr_is_one(self.G):
            if self.contour.winding_number(0.0, 0.0)[0] == 0:
                raise OriginNotInteriorError(
                    "a non-constant coefficient requires the origin inside the curve")

    def g_samples(self) -> DualComplex:
        return boundary_samples(self.g, self.contour)

    def G_samples(self) -> DualComplex:
        return boundary_samples(self.G, self.contour)


@dataclass
class SolvabilityReport:
    kappa: int
    moments: list                 # DualComplex values, s = 1..-kappa
    moment_norms: list
    solvable: bool
    tolerance: float


@dataclass
class ResidualReport:
    sup_residual: float
    per_node: np.ndarray
    indices: np.ndarray
    infinity_bound: float
    infinity_by_radius: list
    boundary_error_estimate: float


def _poly_eval(coeffs: list, zeta: DualComplex) -> DualComplex:
    """P(zeta) = sum coeffs[j] zeta^j via Horner."""
    shape = np.shape(zeta.c1)
    zero = DualComplex(np.zeros(shape, dtype=complex) if shape else 0j,
                       np.zeros(shape, dtype=complex) if shape else 0j)
    if not coeffs:
        return zero
    acc = DualComplex(zero.c1 + coeffs[-1].c1, zero.c2 + coeffs[-1].c2)
    for c in reversed(coeffs[:-1]):
        acc = dc_mul(acc, zeta)
        acc = DualComplex(acc.c1 + c.c1, acc.c2 + c.c2)
    return acc


@dataclass(eq=False)
class RBVPSolution:
    """A solved problem: side evaluators, boundary tables, and reports."""

    kind: str                                   # jump | homogeneous | nonhomogeneous
    problem: RBVPProblem
    plus_fn: Callable[[PointE], DualComplex]
    minus_fn: Callable[[PointE], DualComplex]
    canonical: Optional[CanonicalX] = None
    psi: Optional[DualComplex] = None
    psi_tilde: Optional[CauchyIntegralFn] = None
    poly_coeffs: list = field(default_factory=list)
    constant: Optional[DualComplex] = None
    solvability: Optional[SolvabilityReport] = None
    trivial_only: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def kappa(self) -> Optional[int]:
        return self.canonical.kappa if self.canonical is not None else None

    def plus(self, points: PointE) -> DualComplex:
        return self.plus_fn(points)

    def minus(self, points: PointE) -> DualComplex:
        return self.minus_fn(points)

    def boundary_table(self, side: str) -> BoundaryTable:
        """Phi+ or Phi- at the smooth nodes, assembled from component tables:

        * jump: psi~+- + c;
        * homogeneous: X+- P(tau), or 0 when only the trivial solution exists;
        * non-homogeneous: X+- (psi~+- + P(tau)).
        """
        if side not in self._cache:
            self._cache[side] = self._assemble(side)
        return self._cache[side]

    def _assemble(self, side: str) -> BoundaryTable:
        contour = self.problem.contour
        if self.trivial_only:
            idx = contour.smooth_indices()
            zero = np.zeros(len(idx), dtype=complex)
            return BoundaryTable(indices=idx, values=DualComplex(zero, zero.copy()),
                                 error_estimates=np.zeros(len(idx)), side=side)
        if self.kind == "jump":
            t = boundary_values(self.psi_tilde, contour, side)
            return replace(t, values=t.values + self.constant)
        x = self.canonical.boundary(side)
        tau = contour.values()
        factor = _poly_eval(self.poly_coeffs,
                            DualComplex(np.asarray(tau.c1)[x.indices],
                                        np.asarray(tau.c2)[x.indices]))
        err = 0.0
        if self.kind == "nonhomogeneous":
            t = boundary_values(self.psi_tilde, contour, side)
            factor = t.values + factor
            err = np.asarray(dc_norm(x.values)) * t.error_estimates
        err = err + np.asarray(dc_norm(factor)) * x.error_estimates
        return replace(x, values=dc_mul(x.values, factor), error_estimates=err)

    def scaled(self, k: DualComplex) -> "RBVPSolution":
        """Constant multiple of the solution (module structure over the algebra).

        Scaling commutes with boundary limits, so the parent's tables are
        computed once and scaled in place.
        """
        out = replace(self, plus_fn=lambda p: dc_mul(k, self.plus_fn(p)),
                      minus_fn=lambda p: dc_mul(k, self.minus_fn(p)),
                      psi=None, psi_tilde=None, _cache={})
        for side in ("+", "-"):
            t = self.boundary_table(side)
            out._cache[side] = replace(
                t, values=dc_mul(k, t.values),
                error_estimates=float(dc_norm(k)) * t.error_estimates)
        return out

    def superposed(self, other: "RBVPSolution") -> "RBVPSolution":
        """Pointwise sum with another solution on the same contour."""
        if other.problem.contour.content_hash() != self.problem.contour.content_hash():
            raise InputError("superposed solutions must share one contour")
        out = replace(self,
                      plus_fn=lambda p: self.plus_fn(p) + other.plus_fn(p),
                      minus_fn=lambda p: self.minus_fn(p) + other.minus_fn(p),
                      psi=None, psi_tilde=None, _cache={})
        for side in ("+", "-"):
            a = self.boundary_table(side)
            b = other.boundary_table(side)
            out._cache[side] = replace(
                a, values=a.values + b.values,
                error_estimates=a.error_estimates + b.error_estimates)
        return out


def solve_jump(problem: RBVPProblem, constant: Optional[DualComplex] = None) -> RBVPSolution:
    """Jump problem Phi+ - Phi- = g: both sides are the Cauchy-type integral
    of g, plus one arbitrary additive constant."""
    if not expr_is_one(problem.G):
        raise InputError("jump solver requires coefficient identically 1")
    c = constant if constant is not None else DualComplex(0j, 0j)
    gt = CauchyIntegralFn(problem.contour, problem.g_samples())

    def side(points: PointE) -> DualComplex:
        v = gt(points)
        return DualComplex(v.c1 + c.c1, v.c2 + c.c2)

    return RBVPSolution(kind="jump", problem=problem, plus_fn=side, minus_fn=side,
                        psi=gt.density, psi_tilde=gt, constant=c)


def _check_poly(coeffs: list, kappa: int) -> list:
    if kappa < 0:
        if any(float(dc_norm(c)) != 0.0 for c in coeffs):
            raise PolynomialDegreeError(
                "negative index admits no polynomial part")
        return []
    if len(coeffs) > kappa + 1:
        raise PolynomialDegreeError(
            f"index {kappa} admits at most {kappa + 1} coefficients, "
            f"got {len(coeffs)}")
    return list(coeffs)


def solve_homogeneous(problem: RBVPProblem) -> RBVPSolution:
    """Homogeneous problem Phi+ = G Phi-: X times a free polynomial of degree
    at most kappa, or only the zero solution when kappa < 0."""
    if not expr_is_zero(problem.g):
        raise InputError("homogeneous solver requires free term identically 0")
    x = build_canonical_X(problem.contour, problem.G,
                          integrality_tol=problem.tolerances.index_integrality)
    if x.kappa < 0:
        zero = _zero_evaluator()
        return RBVPSolution(kind="homogeneous", problem=problem,
                            plus_fn=zero, minus_fn=zero, canonical=x,
                            poly_coeffs=[], trivial_only=True,
                            solvability=SolvabilityReport(
                                kappa=x.kappa, moments=[], moment_norms=[],
                                solvable=True,
                                tolerance=problem.tolerances.moment_tol))
    coeffs = _check_poly(problem.poly_coeffs, x.kappa)

    def plus(points: PointE) -> DualComplex:
        return dc_mul(x.plus(points), _poly_eval(coeffs, points.value()))

    def minus(points: PointE) -> DualComplex:
        return dc_mul(x.minus(points), _poly_eval(coeffs, points.value()))

    return RBVPSolution(kind="homogeneous", problem=problem, plus_fn=plus,
                        minus_fn=minus, canonical=x, poly_coeffs=coeffs)


def _zero_evaluator():
    def zero(points: PointE) -> DualComplex:
        shape = np.shape(points.x)
        z = np.zeros(shape, dtype=complex) if shape else 0j
        return DualComplex(z, np.copy(z) if shape else 0j)
    return zero


def _psi_samples(problem: RBVPProblem, x: CanonicalX) -> DualComplex:
    """Density psi = g (X+)^(-1) at all contour nodes.

    X+ is the canonical factor's interior table at the smooth nodes; a
    corner node takes X+ of its nearest smooth node (corner nodes are
    excluded from residual accounting anyway).
    """
    table = x.boundary("+")
    smooth = table.indices
    nearest = np.arange(problem.contour.n)
    for k in np.nonzero(problem.contour.corner_mask)[0]:
        nearest[k] = smooth[np.argmin(np.abs(smooth - k))]
    pos = np.searchsorted(smooth, nearest)
    xplus = DualComplex(np.asarray(table.values.c1)[pos],
                        np.asarray(table.values.c2)[pos])
    return dc_mul(problem.g_samples(), dc_inv(xplus))


def check_solvability(problem: RBVPProblem, x: CanonicalX,
                      psi: Optional[DualComplex] = None) -> SolvabilityReport:
    """Moment conditions for a negative index; vacuous otherwise."""
    tol = problem.tolerances.moment_tol
    if x.kappa >= 0:
        return SolvabilityReport(kappa=x.kappa, moments=[], moment_norms=[],
                                 solvable=True, tolerance=tol)
    if psi is None:
        psi = _psi_samples(problem, x)
    tau = problem.contour.values()
    moments = []
    norms = []
    for s in range(1, -x.kappa + 1):
        weight = dc_pow_int(tau, s - 1)
        m = contour_integral(problem.contour, dc_mul(psi, weight))
        moments.append(m)
        norms.append(float(dc_norm(m)))
    solvable = all(n <= tol for n in norms)
    return SolvabilityReport(kappa=x.kappa, moments=moments, moment_norms=norms,
                             solvable=solvable, tolerance=tol)


def solve_nonhomogeneous(problem: RBVPProblem) -> RBVPSolution:
    """General problem Phi+ = G Phi- + g via the canonical factorization."""
    x = build_canonical_X(problem.contour, problem.G,
                          integrality_tol=problem.tolerances.index_integrality)
    psi = _psi_samples(problem, x)
    report = check_solvability(problem, x, psi=psi)
    if not report.solvable:
        raise UnsolvableError(report)
    coeffs = _check_poly(problem.poly_coeffs, x.kappa)
    psi_tilde = CauchyIntegralFn(problem.contour, psi)
    # off the curve the exponent of X and psi~ are one stacked integral: one
    # distance query and one kernel pass per set of points
    logs = x.log_samples
    both = CauchyIntegralFn(problem.contour, DualComplex(
        np.stack([logs.c1, psi.c1]), np.stack([logs.c2, psi.c2])))

    def evaluator(side: str):
        def phi(points: PointE) -> DualComplex:
            v = both(points)
            zeta = points.value()
            p = _poly_eval(coeffs, zeta)
            xs = x.from_exponent(side, zeta, DualComplex(v.c1[0], v.c2[0]))
            return dc_mul(xs, DualComplex(v.c1[1] + p.c1, v.c2[1] + p.c2))
        return phi

    return RBVPSolution(kind="nonhomogeneous", problem=problem,
                        plus_fn=evaluator("+"), minus_fn=evaluator("-"),
                        canonical=x, psi=psi,
                        psi_tilde=psi_tilde, poly_coeffs=coeffs,
                        solvability=report)


DEFAULT_INFINITY_RADII = (10.0, 100.0, 1000.0)


def residual_report(solution: RBVPSolution, problem: Optional[RBVPProblem] = None,
                    radii=DEFAULT_INFINITY_RADII) -> ResidualReport:
    """Boundary-condition defect and boundedness of the exterior part.

    Phi+ and Phi- on the curve are the solution's boundary tables at the
    smooth nodes; the exterior part is sampled on rings of growing radius
    around the contour.
    """
    p = problem if problem is not None else solution.problem
    plus = solution.boundary_table("+")
    minus = solution.boundary_table("-")
    idx = plus.indices
    gv = boundary_samples(p.g, p.contour)
    Gv = boundary_samples(p.G, p.contour)
    g_at = DualComplex(np.asarray(gv.c1)[idx], np.asarray(gv.c2)[idx])
    G_at = DualComplex(np.asarray(Gv.c1)[idx], np.asarray(Gv.c2)[idx])
    rhs = dc_mul(G_at, minus.values)
    defect = DualComplex(plus.values.c1 - rhs.c1 - g_at.c1,
                         plus.values.c2 - rhs.c2 - g_at.c2)
    res = np.asarray(dc_norm(defect))
    cx, cy = p.contour.centroid
    half = max(p.contour.diameter / 2.0, 1e-12)
    by_radius = []
    ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    for r in radii:
        px = cx + r * half * np.cos(ang)
        py = cy + r * half * np.sin(ang)
        v = solution.minus(PointE(px, py, p.basis))
        by_radius.append(float(np.max(dc_norm(v))))
    return ResidualReport(sup_residual=float(res.max()), per_node=res,
                          indices=idx, infinity_bound=float(max(by_radius)),
                          infinity_by_radius=by_radius,
                          boundary_error_estimate=float(
                              max(plus.error_estimates.max(),
                                  minus.error_estimates.max())))


def solve_auto(problem: RBVPProblem) -> RBVPSolution:
    """Dispatch: constant-1 coefficient to the jump solver, zero free term
    to the homogeneous solver, anything else to the general solver."""
    if expr_is_one(problem.G):
        return solve_jump(problem)
    if expr_is_zero(problem.g):
        return solve_homogeneous(problem)
    return solve_nonhomogeneous(problem)
