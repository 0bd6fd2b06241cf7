"""Solvers for the boundary relation  Phi+ = G Phi- + g  on a closed curve.

Every solution is one formula (Gakhov, *Boundary Value Problems*):

    Phi+- = X+- (psi~ + P),   psi = g (X+)^(-1) = g exp(-E+),

with X the canonical factor of G (exponent E), psi~ the Cauchy-type
integral of psi and P a polynomial of degree at most kappa, subject to the
moment conditions  integral of psi(tau) tau^(s-1) = 0, s = 1..-kappa, and
P = 0 when kappa < 0.  The special cases need no code of their own:

* jump (G identically 1): kappa = 0, E = 0 and X = 1 exactly, so
  Phi+- = g~ + P with P an arbitrary constant;
* homogeneous (g identically 0): psi = 0 exactly, so Phi+- = X+- P, and only
  the zero solution exists when kappa < 0.

The entry points differ only in their input checks and in the ``kind``
label they record.  A solution holds data (X, psi, P) and one stacked
integral [E, psi]; a row that is identically zero (E for a jump problem,
psi for a homogeneous one) is left out of every kernel sum, so the
special cases cost no more than before.  Each side's table is assembled
at every node from the node limits (``CauchyIntegralFn.node_limits``) of
[E, psi].  Offset extrapolation only checks them: ``boundary_values`` runs
once per side on [E, psi], at a 64-node sample of the smooth nodes, all
offsets in one pass, and the gaps e_E and e_psi to the node limits,
propagated to first order as |X| (e_psi + |psi~ + P| e_E), are the table's
error estimate there (NaN at the other nodes).  ``boundary_error_estimate``
is the largest of them over both sides, or None when no node could be
checked; a diagnostic, since the sample can miss the worst node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import DualComplex, PointE, dc_exp, dc_mul, dc_norm, dc_pow_int
from .canonical import CanonicalX, build_canonical_X
from .contour import Contour
from .errors import (
    InputError,
    PolynomialDegreeError,
    UnsolvableError,
)
from .integral import (
    BoundaryTable,
    CauchyIntegralFn,
    boundary_defect,
    boundary_samples,
    boundary_values,
    contour_integral,
)
from . import expr as _expr


@dataclass
class Tolerances:
    """The residual tolerance judges the boundary relation and the moment
    conditions alike."""

    residual: float = 1e-6


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
    """Boundary data for one problem instance; its plane E is the
    contour's basis."""

    contour: Contour
    G: object = None                      # expression; None means constant 1
    g: object = None                      # expression; None means constant 0
    poly_coeffs: list = field(default_factory=list)   # DualComplex coefficients
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        self.G = _as_expr(self.G, "1")
        self.g = _as_expr(self.g, "0")

    def g_samples(self) -> DualComplex:
        return boundary_samples(self.g, self.contour)


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
    """A solved problem as data: Phi+- = X+- (psi~ + P), with X from
    ``canonical``, psi~ the Cauchy-type integral of ``psi`` and P the
    polynomial of ``poly_coeffs``."""

    kind: str                     # label: jump | homogeneous | nonhomogeneous
    problem: RBVPProblem
    canonical: CanonicalX
    psi: DualComplex              # g exp(-E+) at every node
    poly_coeffs: list
    solvability: SolvabilityReport
    # the stacked integral [E, psi]: one distance query and one kernel pass
    # per set of points, and the one integral the offset check reads
    integral: CauchyIntegralFn = field(init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.integral = self.canonical.exponent.stacked_with(self.psi)

    @property
    def kappa(self) -> Optional[int]:
        return None if self.kind == "jump" else self.canonical.kappa

    @property
    def trivial_only(self) -> bool:
        return self.kind == "homogeneous" and self.canonical.kappa < 0

    def plus(self, points: PointE) -> DualComplex:
        return self._side("+", points)

    def minus(self, points: PointE) -> DualComplex:
        return self._side("-", points)

    def _side(self, side: str, points: PointE,
              dist: Optional[np.ndarray] = None) -> DualComplex:
        """Phi+ or Phi- at points off the curve; ``dist`` passes on their
        distances to it when the caller has already measured them."""
        v = self.integral(points) if dist is None else self.integral._at(points, dist)
        zeta = points.value()
        p = _poly_eval(self.poly_coeffs, zeta)
        x = self.canonical.from_exponent(side, zeta, DualComplex(v.c1[0], v.c2[0]))
        return dc_mul(x, DualComplex(v.c1[1] + p.c1, v.c2[1] + p.c2))

    def boundary_table(self, side: str) -> BoundaryTable:
        """Phi+ or Phi- at every node: X+- (psi~+- + P(tau)) from the node
        limits of [E, psi]."""
        if side not in self._cache:
            self._cache[side] = self._assemble(side)
        return self._cache[side]

    def _assemble(self, side: str) -> BoundaryTable:
        contour = self.problem.contour
        tau = contour.values()
        lim = self.integral.node_limits(side)
        x = self.canonical.from_exponent(side, tau, DualComplex(lim.c1[0], lim.c2[0]))
        factor = DualComplex(lim.c1[1], lim.c2[1]) + _poly_eval(self.poly_coeffs, tau)
        err = np.full(contour.n, np.nan)
        if not contour.corner_mask.all():
            # gaps between the offset-extrapolated limits and the node limits
            # of E and psi~ at the checked nodes, to first order in Phi
            table = boundary_values(self.integral, contour, side)
            at = table.indices
            e_exp, e_psi = (np.asarray(dc_norm(DualComplex(
                table.values.c1[r] - lim.c1[r][at],
                table.values.c2[r] - lim.c2[r][at]))) for r in (0, 1))
            err[at] = (np.asarray(dc_norm(x))[at]
                       * (e_psi + np.asarray(dc_norm(factor))[at] * e_exp))
        return BoundaryTable(indices=np.arange(contour.n), values=dc_mul(x, factor),
                             error_estimates=err, side=side)


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


def _psi_samples(problem: RBVPProblem, x: CanonicalX) -> DualComplex:
    """Density psi = g (X+)^(-1) = g exp(-E+) at every node, with E+ the
    exponent's interior node limits."""
    e = x.exponent.node_limits("+")
    return dc_mul(problem.g_samples(), dc_exp(DualComplex(-e.c1, -e.c2)))


def check_solvability(problem: RBVPProblem, x: CanonicalX,
                      psi: Optional[DualComplex] = None) -> SolvabilityReport:
    """Moment conditions for a negative index; vacuous otherwise."""
    tol = problem.tolerances.residual
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


def _solve(problem: RBVPProblem, kind: str) -> RBVPSolution:
    """The one construction: X, then psi = g exp(-E+), then the moment
    conditions and the polynomial part."""
    x = build_canonical_X(problem.contour, problem.G)
    psi = _psi_samples(problem, x)
    report = check_solvability(problem, x, psi=psi)
    if not report.solvable:
        raise UnsolvableError(report)
    return RBVPSolution(kind=kind, problem=problem, canonical=x, psi=psi,
                        poly_coeffs=_check_poly(problem.poly_coeffs, x.kappa),
                        solvability=report)


def solve_jump(problem: RBVPProblem) -> RBVPSolution:
    """Jump problem Phi+ - Phi- = g: X = 1, so Phi+- = g~ + P with P a
    constant."""
    if not expr_is_one(problem.G):
        raise InputError("jump solver requires coefficient identically 1")
    return _solve(problem, "jump")


def solve_homogeneous(problem: RBVPProblem) -> RBVPSolution:
    """Homogeneous problem Phi+ = G Phi-: psi = 0, so Phi+- = X+- P with P of
    degree at most kappa, or only the zero solution when kappa < 0."""
    if not expr_is_zero(problem.g):
        raise InputError("homogeneous solver requires free term identically 0")
    return _solve(problem, "homogeneous")


def solve_nonhomogeneous(problem: RBVPProblem) -> RBVPSolution:
    """General problem Phi+ = G Phi- + g via the canonical factorization."""
    return _solve(problem, "nonhomogeneous")


# ring radii, in half-diameters of the contour, of the exterior samples
INFINITY_RADII = (10.0, 100.0, 1000.0)


def residual_report(solution: RBVPSolution) -> ResidualReport:
    """Boundary-condition defect and boundedness of the exterior part.

    Phi+ and Phi- on the curve are the solution's boundary tables at every
    node; the exterior part is sampled on rings of growing radius around
    the contour.
    """
    p = solution.problem
    plus = solution.boundary_table("+")
    minus = solution.boundary_table("-")
    res = boundary_defect(p.contour, p.G, p.g, plus.values, minus.values)
    cx, cy = p.contour.centroid
    half = max(p.contour.diameter / 2.0, 1e-12)
    by_radius = []
    ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    for r in INFINITY_RADII:
        px = cx + r * half * np.cos(ang)
        py = cy + r * half * np.sin(ang)
        v = solution.minus(PointE(px, py, p.contour.basis))
        by_radius.append(float(np.max(dc_norm(v))))
    est = np.concatenate([plus.error_estimates, minus.error_estimates])
    est = est[~np.isnan(est)]
    return ResidualReport(sup_residual=float(res.max()),
                          infinity_bound=float(max(by_radius)),
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
    stay at least one guard band from the curve, where ``CauchyIntegralFn``
    runs the native rule alone: neither the refined near-curve rule, nor
    the node-limit rule, nor offset extrapolation takes part.
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
        keep = contour.interior_mask(x, y) == int(inside)
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
