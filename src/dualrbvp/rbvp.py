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
[E, psi], and nothing else: building a table runs no check.

Off the curve a solution is read from its node tables, the traces of one
sectionally monogenic function, by Cauchy's formula in barycentric form
(Helsing & Ojala, J. Comput. Phys. 2008): Phi+ = C[Phi+] / C[1] inside and
Phi- = (C[Phi-] - Phi-(infinity)) / (C[1] - 1) outside, with C the native
rule's Cauchy-type sum.  The quotient cancels the quadrature error near the
curve, so it needs no guard band.  Phi-(infinity) is P's coefficient of
z^kappa when P has degree kappa, and 0 otherwise.

On a smooth contour the sum runs over every step-th node only, the fewest
N' = N / 2^j nodes at which the table's and the node coordinates' Fourier
coefficients with |k| >= N'/4 are at rounding (``Contour.resolved_rule``).
The quotient keeps its accuracy there because it reproduces any trace its
nodes resolve: the N'-node trigonometric interpolants of the table and of
the curve equal the N-node ones to rounding, and the quotient's error near
the curve is that of the table's interpolant, not that of the quadrature
(Helsing & Ojala 2008).  An under-resolved table, a curve whose
coordinates are not band-limited, and a polygon keep all N nodes, and the
node tables themselves, which the result records, always have N rows.

``residual_report`` is where a solve checks itself: the boundary relation
on the tables, and the offset check of their node limits (module docstring
of ``integral``).
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
    BoundedPoints,
    CauchyIntegralFn,
    _kernel_sum,
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


@dataclass
class ResidualReport:
    sup_residual: float
    boundary_error_estimate: Optional[float]


def _poly_eval(coeffs: list, zeta: DualComplex) -> DualComplex:
    """P(zeta) = sum coeffs[j] zeta^j via Horner."""
    zero = np.zeros(np.shape(zeta.c1), dtype=complex)
    if not coeffs:
        return DualComplex(zero, zero)
    acc = DualComplex(zero + coeffs[-1].c1, zero + coeffs[-1].c2)
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
    # the stacked integral [E, psi]: its node limits build the tables, and
    # it is the one integral the offset check evaluates
    integral: CauchyIntegralFn = field(init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.integral = self.canonical.exponent.stacked_with(self.psi)

    @property
    def kappa(self) -> Optional[int]:
        return None if self.kind == "jump" else self.canonical.kappa

    def off_curve(self, side: str, points: PointE) -> DualComplex:
        """Phi+ at points inside the curve or Phi- at points outside it:
        one kernel sum over [table, 1] on the fewest nodes that resolve the
        table and the curve, and one quotient (module docstring)."""
        c = self.problem.contour
        table = self.boundary_table(side)
        step, tau, dtau = c.resolved_rule(table)
        n = c.n // step
        z = c.basis.vector(np.ravel(points.x), np.ravel(points.y))
        v = _kernel_sum(tau, dtau, DualComplex(
            np.stack([table.c1[::step], np.ones(n)]),
            np.stack([table.c2[::step], np.zeros(n)])), z.c1, z.c2)
        num, den = DualComplex(v.c1[0], v.c2[0]), DualComplex(v.c1[1], v.c2[1])
        if side == "-":
            kappa, coeffs = self.canonical.kappa, self.poly_coeffs
            at_infinity = coeffs[kappa] if 0 <= kappa < len(coeffs) else 0.0
            num, den = num - at_infinity, den - 1.0
        out = num / den
        shape = np.shape(points.x)
        return DualComplex(out.c1.reshape(shape), out.c2.reshape(shape))

    def boundary_table(self, side: str) -> DualComplex:
        """Phi+ or Phi- at every node: X+- (psi~+- + P(tau))."""
        if side not in self._cache:
            _, x, factor = self._factors(side)
            self._cache[side] = dc_mul(x, factor)
        return self._cache[side]

    def _factors(self, side: str) -> tuple[DualComplex, DualComplex, DualComplex]:
        """The node limits of [E, psi] on one side, and from them X+- and
        psi~+- + P(tau) at every node."""
        tau = self.problem.contour.values()
        lim = self.integral.node_limits(side)
        x = self.canonical.from_exponent(side, tau, DualComplex(lim.c1[0], lim.c2[0]))
        factor = DualComplex(lim.c1[1], lim.c2[1]) + _poly_eval(self.poly_coeffs, tau)
        return lim, x, factor


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
                                 solvable=True)
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
                             solvable=solvable)


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


def residual_report(solution: RBVPSolution) -> ResidualReport:
    """Boundary-condition defect of the node tables, and the offset check
    of their node limits.

    The check runs ``boundary_values`` once per side on [E, psi], at a
    64-node sample of the smooth nodes, all offsets in one pass: the rows
    at 8 and 4 node spacings on the native rule, and those at 2, 1 and 1/2
    on the refined rules of order 2, 4 and 8 (``CauchyIntegralFn``).  The gaps
    e_E and e_psi to the node limits, propagated to first order as
    |X| (e_psi + |psi~ + P| e_E), estimate the table's error there.
    ``boundary_error_estimate`` is the largest of them over both sides, or
    None when no node is checked: every node is a corner, or every sampled
    node's approach points cross or near the curve (``boundary_values``).
    It is a diagnostic, since the sample can miss the worst node.
    """
    p = solution.problem
    res = boundary_defect(p.contour, p.G, p.g, solution.boundary_table("+"),
                          solution.boundary_table("-"))
    gaps = [np.empty(0)]
    if not p.contour.corner_mask.all():
        for side in "+-":
            lim, x, factor = solution._factors(side)
            table = boundary_values(solution.integral, p.contour, side)
            at = table.indices
            e_exp, e_psi = (np.asarray(dc_norm(DualComplex(
                table.values.c1[r] - lim.c1[r][at],
                table.values.c2[r] - lim.c2[r][at]))) for r in (0, 1))
            gaps.append(np.asarray(dc_norm(x))[at]
                        * (e_psi + np.asarray(dc_norm(factor))[at] * e_exp))
    gaps = np.concatenate(gaps)
    return ResidualReport(
        sup_residual=float(res.max()),
        boundary_error_estimate=float(gaps.max()) if gaps.size else None)


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
    stay at least one guard band from the curve (``Contour.interior_mask``,
    which settles most of them by its bounds), and go to
    ``CauchyIntegralFn`` with the guard band as their lower bound, so it
    measures none of them again and runs the native rule alone: neither
    the refined near-curve rule, nor the node-limit rule, nor offset
    extrapolation takes part.
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
        lower = np.full(int(keep.sum()), contour.guard_band)
        v = CauchyIntegralFn(contour, table)(BoundedPoints(
            x[keep], y[keep], contour.basis, lower, np.full_like(lower, np.inf)))
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
