"""Solvers for the boundary relation  Phi+ = G Phi- + g  on a closed curve.

Three cases, dispatched on the data:

* jump (G identically 1):      Phi+- = g~ + c  for an arbitrary constant c;
* homogeneous (g identically 0): Phi+- = X+- P(zeta), P of degree <= kappa,
  and only the zero solution when kappa < 0;
* non-homogeneous:             Phi+- = X+- (psi~ + P), psi = g (X+)^(-1),
  subject to moment conditions  integral of psi(tau) tau^(s-1) = 0,
  s = 1..-kappa, when kappa < 0.

Solutions carry vectorized side evaluators, boundary tables and residual
reporting.  Each side's table is assembled at every node from the node
limits (``CauchyIntegralFn.node_limits``) of the solution's Cauchy-type
integrals: X+- from the exponent (``CanonicalX.boundary``) and psi~+-.
Offset extrapolation only checks them: each solution calls
``boundary_values`` once per side on one integral (the stacked
[exponent, psi] integral, the exponent alone, or g~), at the smooth nodes,
and the gap to the node limits, propagated to first order as
|X| (e_psi + |psi~ + P| e_E), is the table's error estimate there.
``boundary_error_estimate`` is the largest of them over both sides, or
None when no node could be checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .algebra import BasisE, DualComplex, PointE, dc_exp, dc_mul, dc_norm, dc_pow_int
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
    boundary_error_estimate: Optional[float]


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
    # the one integral whose offset limits check the boundary tables
    check_integral: Optional[CauchyIntegralFn] = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def kappa(self) -> Optional[int]:
        return self.canonical.kappa if self.canonical is not None else None

    def plus(self, points: PointE) -> DualComplex:
        return self.plus_fn(points)

    def minus(self, points: PointE) -> DualComplex:
        return self.minus_fn(points)

    def boundary_table(self, side: str) -> BoundaryTable:
        """Phi+ or Phi- at every node, assembled from node limits:

        * jump: psi~+- + c;
        * homogeneous: X+- P(tau), or 0 when only the trivial solution exists;
        * non-homogeneous: X+- (psi~+- + P(tau)).
        """
        if side not in self._cache:
            self._cache[side] = self._assemble(side)
        return self._cache[side]

    def _assemble(self, side: str) -> BoundaryTable:
        contour = self.problem.contour
        idx = np.arange(contour.n)
        if self.trivial_only:
            zero = np.zeros(contour.n, dtype=complex)
            return BoundaryTable(indices=idx, values=DualComplex(zero, zero.copy()),
                                 error_estimates=np.zeros(contour.n), side=side)
        if self.kind == "jump":
            limits = [self.psi_tilde.node_limits(side)]
            values = limits[0] + self.constant
        else:
            x = self.canonical.boundary(side).values
            factor = _poly_eval(self.poly_coeffs, contour.values())
            limits = [self.canonical.exponent.node_limits(side)]
            if self.kind == "nonhomogeneous":
                limits.append(self.psi_tilde.node_limits(side))
                factor = limits[1] + factor
            values = dc_mul(x, factor)
        err = np.full(contour.n, np.nan)
        checked = self._check(side, limits)
        if checked is not None:
            at, gaps = checked
            if self.kind == "jump":
                err[at] = gaps[0]
            else:
                e_psi = gaps[1] if self.kind == "nonhomogeneous" else 0.0
                err[at] = (np.asarray(dc_norm(x))[at]
                           * (e_psi + np.asarray(dc_norm(factor))[at] * gaps[0]))
        return BoundaryTable(indices=idx, values=values, error_estimates=err,
                             side=side)

    def _check(self, side: str, limits: list):
        """Gap between the offset-extrapolated limits of ``check_integral``
        (one row per entry of ``limits``) and the node limits, at the smooth
        nodes: (indices, one gap array per row), or None without a smooth
        node."""
        contour = self.problem.contour
        if contour.corner_mask.all():
            return None
        table = boundary_values(self.check_integral, contour, side)
        at = table.indices
        got1 = np.atleast_2d(table.values.c1)
        got2 = np.atleast_2d(table.values.c2)
        return at, [np.asarray(dc_norm(DualComplex(got1[r] - np.asarray(v.c1)[at],
                                                   got2[r] - np.asarray(v.c2)[at])))
                    for r, v in enumerate(limits)]

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
                        psi=gt.density, psi_tilde=gt, constant=c,
                        check_integral=gt)


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
                        minus_fn=minus, canonical=x, poly_coeffs=coeffs,
                        check_integral=x.exponent)


def _zero_evaluator():
    def zero(points: PointE) -> DualComplex:
        shape = np.shape(points.x)
        z = np.zeros(shape, dtype=complex) if shape else 0j
        return DualComplex(z, np.copy(z) if shape else 0j)
    return zero


def _psi_samples(problem: RBVPProblem, x: CanonicalX) -> DualComplex:
    """Density psi = g (X+)^(-1) = g exp(-E+) at every node, with E+ the
    exponent's interior node limits."""
    e = x.exponent.node_limits("+")
    return dc_mul(problem.g_samples(), dc_exp(DualComplex(-e.c1, -e.c2)))


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
    # distance query and one kernel pass per set of points, and one offset
    # check per side of the boundary tables
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
                        solvability=report, check_integral=both)


DEFAULT_INFINITY_RADII = (10.0, 100.0, 1000.0)


def residual_report(solution: RBVPSolution, problem: Optional[RBVPProblem] = None,
                    radii=DEFAULT_INFINITY_RADII) -> ResidualReport:
    """Boundary-condition defect and boundedness of the exterior part.

    Phi+ and Phi- on the curve are the solution's boundary tables at every
    node; the exterior part is sampled on rings of growing radius around
    the contour.
    """
    p = problem if problem is not None else solution.problem
    plus = solution.boundary_table("+")
    minus = solution.boundary_table("-")
    rhs = dc_mul(boundary_samples(p.G, p.contour), minus.values)
    g = boundary_samples(p.g, p.contour)
    defect = DualComplex(plus.values.c1 - rhs.c1 - g.c1,
                         plus.values.c2 - rhs.c2 - g.c2)
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
    est = np.concatenate([plus.error_estimates, minus.error_estimates])
    est = est[~np.isnan(est)]
    return ResidualReport(sup_residual=float(res.max()), per_node=res,
                          indices=plus.indices, infinity_bound=float(max(by_radius)),
                          infinity_by_radius=by_radius,
                          boundary_error_estimate=float(est.max()) if est.size else None)


PROBE_RING = 32
PROBE_LATTICE = 16


def trace_defects(contour: Contour, plus: DualComplex, minus: DualComplex
                  ) -> tuple[Optional[float], Optional[float]]:
    """Plemelj-Sokhotski test of two node tables (Gakhov, *Boundary Value
    Problems*; Muskhelishvili, *Singular Integral Equations*).

    ``plus`` is the interior trace of a monogenic function exactly when its
    Cauchy-type integral vanishes outside the curve; ``minus`` is the trace
    of one monogenic outside and bounded at infinity exactly when its
    integral is constant (= Phi-(infinity)) inside.  Returns max |C[plus]|
    on a ring of PROBE_RING points at twice the half-diameter around the
    bounding-box centre, and the largest distance of C[minus] from its mean
    over the points of a PROBE_LATTICE^2 lattice on the bounding box that
    lie inside the curve; either is None when no probe qualifies.  Probes
    stay two guard bands from the curve, so only the native rule runs:
    neither the node-limit rule nor offset extrapolation takes part.
    """
    lo, hi = contour.xy.min(axis=0), contour.xy.max(axis=0)
    mid, half = (lo + hi) / 2.0, float(np.hypot(*(hi - lo))) / 2.0
    ang = 2.0 * np.pi * np.arange(PROBE_RING) / PROBE_RING
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], PROBE_LATTICE),
                         np.linspace(lo[1], hi[1], PROBE_LATTICE))
    out = []
    for table, x, y, inside in (
            (plus, mid[0] + 2.0 * half * np.cos(ang),
             mid[1] + 2.0 * half * np.sin(ang), False),
            (minus, gx.ravel(), gy.ravel(), True)):
        keep = (((contour.winding_number(x, y) != 0) == inside)
                & (contour.dist_to(x, y) >= 2.0 * contour.guard_band))
        if not keep.any():
            out.append(None)
            continue
        v = CauchyIntegralFn(contour, table)(PointE(x[keep], y[keep], contour.basis))
        if inside:
            v = DualComplex(v.c1 - np.mean(v.c1), v.c2 - np.mean(v.c2))
        out.append(float(np.max(dc_norm(v))))
    return out[0], out[1]


def solve_auto(problem: RBVPProblem) -> RBVPSolution:
    """Dispatch: constant-1 coefficient to the jump solver, zero free term
    to the homogeneous solver, anything else to the general solver."""
    if expr_is_one(problem.G):
        return solve_jump(problem)
    if expr_is_zero(problem.g):
        return solve_homogeneous(problem)
    return solve_nonhomogeneous(problem)
