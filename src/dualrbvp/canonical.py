"""Index of a boundary coefficient and the canonical factorization.

The index kappa of an invertible coefficient G on a closed curve is the
winding of its complex part about 0, computed by tracking a continuous
argument along the node loop.  The canonical function is

    X0(zeta) = exp( Cauchy-type integral of ln(tau^(-kappa) G(tau)) ),
    X(zeta)  = X0(zeta) interior,   zeta^(-kappa) X0(zeta) exterior,

a sectionally monogenic invertible function with X+ = G X- on the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DualComplex, PointE, dc_exp, dc_mul, dc_norm, dc_pow_int
from .contour import Contour
from .errors import (
    BranchAmbiguityError,
    ClosureFailureError,
    NonIntegerIndexError,
    NotInvertibleOnContourError,
    OriginNotInteriorError,
)
from .integral import BoundaryTable, CauchyIntegralFn, boundary_samples
# no longer called here, but still a name of this module: the bench tracer
# (bench/spans.py) rebinds it in every module that imports it
from .integral import boundary_values  # noqa: F401

MAX_REFINE_DEPTH = 4
TURN_LIMIT = np.pi / 2.0


def _refined_step_angle(sample, t0: float, t1: float, g0: complex, g1: complex,
                        depth: int) -> float:
    """Total argument change over [t0, t1], bisecting while a single step
    turns by a quarter turn or more."""
    step = float(np.angle(g1 / g0))
    if abs(step) < TURN_LIMIT:
        return step
    if depth >= MAX_REFINE_DEPTH:
        raise BranchAmbiguityError(
            f"argument turns by {step:.3f} rad between parameters "
            f"{t0:.6f} and {t1:.6f} even after refinement")
    tm = (t0 + t1) / 2.0
    gm = complex(sample(np.array([tm]))[0])
    if abs(gm) == 0.0:
        raise NotInvertibleOnContourError(
            f"coefficient vanishes near parameter {tm:.6f}")
    return (_refined_step_angle(sample, t0, tm, g0, gm, depth + 1)
            + _refined_step_angle(sample, tm, t1, gm, g1, depth + 1))


def _accumulated_argument(contour: Contour, sample) -> tuple[np.ndarray, float]:
    """Per-node continuous argument increments around the loop and their total."""
    g = sample(contour.t)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    bad = np.abs(g) <= floor
    if np.any(bad):
        raise NotInvertibleOnContourError(
            "coefficient complex part vanishes at contour node(s)",
            indices=np.nonzero(bad)[0])
    g_next = np.roll(g, -1)
    t_next = np.concatenate([contour.t[1:], [1.0]])
    ratios = g_next / g
    steps = np.angle(ratios)
    out = np.empty(contour.n)
    need = np.abs(steps) >= TURN_LIMIT
    out[~need] = steps[~need]
    for k in np.nonzero(need)[0]:
        out[k] = _refined_step_angle(sample, float(contour.t[k]), float(t_next[k]),
                                     complex(g[k]), complex(g_next[k]), 0)
    return out, float(out.sum())


@dataclass
class IndexResult:
    kappa: int
    raw: float


def compute_index(contour: Contour, G, integrality_tol: float = 1e-3) -> IndexResult:
    """Winding index of the coefficient's complex part along the curve.

    The rho part of the logarithm is single-valued, so it contributes
    nothing over a closed loop; only the accumulated argument matters.
    """
    _, total = _accumulated_argument(
        contour, lambda tq: boundary_samples(G, contour, tq).c1)
    raw = total / (2.0 * np.pi)
    kappa = int(np.rint(raw))
    if abs(raw - kappa) > integrality_tol:
        raise NonIntegerIndexError(
            f"winding {raw:.6f} is not close to an integer", raw=raw)
    return IndexResult(kappa=kappa, raw=raw)


def continuous_log(contour: Contour, G, kappa: int,
                   closure_tol: float = 1e-6) -> DualComplex:
    """Single-valued continuous branch of ln(tau^(-kappa) G(tau)) at the nodes.

    The complex part starts from the principal value at node 0 and follows
    the accumulated argument; the rho part is pointwise.  A loop that fails
    to close signals a wrong kappa.
    """
    tau = contour.values()
    w = dc_mul(dc_pow_int(tau, -int(kappa)), boundary_samples(G, contour))

    def sample(tq: np.ndarray) -> np.ndarray:
        tval = contour.value_at(tq)
        return boundary_samples(G, contour, tq).c1 * np.power(
            np.asarray(tval.c1, dtype=complex), -int(kappa))

    steps, total = _accumulated_argument(contour, sample)
    if abs(total) > 2.0 * np.pi * closure_tol + 1e-9:
        raise ClosureFailureError(
            f"branch fails to close: residual winding {total / (2 * np.pi):.6f} "
            "(wrong index?)", mismatch=float(abs(total)))
    theta0 = float(np.angle(w.c1[0]))
    theta = theta0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    ln1 = np.log(np.abs(w.c1)) + 1j * theta
    ln2 = w.c2 / w.c1
    return DualComplex(ln1, ln2)


@dataclass(eq=False)
class CanonicalX:
    """Canonical factor of a coefficient: evaluators and boundary tables."""

    contour: Contour
    kappa: int
    raw_index: float
    log_samples: DualComplex
    exponent: CauchyIntegralFn
    branch_start: complex
    origin_interior: bool
    _cache: dict = field(default_factory=dict, repr=False)

    def x0(self, points: PointE) -> DualComplex:
        return dc_exp(self.exponent(points))

    def from_exponent(self, side: str, zeta: DualComplex,
                      exponent: DualComplex) -> DualComplex:
        """X+ = exp(E) or X- = zeta^(-kappa) exp(E), from values E of the
        exponent at zeta (off the curve, or its one-sided limits on it)."""
        val = dc_exp(exponent)
        if side == "-":
            val = dc_mul(dc_pow_int(zeta, -self.kappa), val)
        return val

    def plus(self, points: PointE) -> DualComplex:
        """X on the interior side (caller supplies interior points)."""
        return self.x0(points)

    def minus(self, points: PointE) -> DualComplex:
        """X on the exterior side: zeta^(-kappa) X0(zeta)."""
        return self.from_exponent("-", points.value(), self.exponent(points))

    def boundary(self, side: str) -> BoundaryTable:
        """X+ or X- at every node, from the exponent's node limits E:
        X+ = exp(E+) and X- = tau^(-kappa) exp(E-).

        The on-curve rule carries no error estimate of its own, so
        ``error_estimates`` is NaN; a solution's offset check supplies one.
        """
        if side not in self._cache:
            n = self.contour.n
            val = self.from_exponent(side, self.contour.values(),
                                     self.exponent.node_limits(side))
            self._cache[side] = BoundaryTable(
                indices=np.arange(n), values=val,
                error_estimates=np.full(n, np.nan), side=side)
        return self._cache[side]

    def infinity_behavior(self) -> dict:
        """X- at infinity: 0 for positive index, 1 for zero index, and
        polynomial growth of order -kappa for negative index."""
        if self.kappa > 0:
            return {"limit": DualComplex(0j, 0j), "growth_order": 0}
        if self.kappa == 0:
            return {"limit": DualComplex(1 + 0j, 0j), "growth_order": 0}
        return {"limit": None, "growth_order": -self.kappa}


def build_canonical_X(contour: Contour, G,
                      integrality_tol: float = 1e-3) -> CanonicalX:
    """Construct the canonical factor for an invertible coefficient.

    Requires the origin inside the curve whenever the index is nonzero
    (otherwise zeta^(-kappa) is not invertible throughout the exterior).
    """
    idx = compute_index(contour, G, integrality_tol=integrality_tol)
    origin_interior = bool(contour.winding_number(0.0, 0.0)[0] != 0)
    if idx.kappa != 0 and not origin_interior:
        raise OriginNotInteriorError(
            f"index {idx.kappa} requires the origin inside the curve")
    logs = continuous_log(contour, G, idx.kappa)
    exponent = CauchyIntegralFn(contour, logs)
    return CanonicalX(contour=contour, kappa=idx.kappa, raw_index=idx.raw,
                      log_samples=logs, exponent=exponent,
                      branch_start=complex(logs.c1[0]),
                      origin_interior=origin_interior)


def verify_X_relation(x: CanonicalX, G) -> float:
    """Sup over the nodes of ||X+ - G X-||, the homogeneous relation."""
    plus = x.boundary("+")
    idx = plus.indices
    gv = boundary_samples(G, x.contour)
    g_at = DualComplex(np.asarray(gv.c1)[idx], np.asarray(gv.c2)[idx])
    lhs = plus.values
    rhs = dc_mul(g_at, x.boundary("-").values)
    return float(np.max(dc_norm(DualComplex(lhs.c1 - rhs.c1, lhs.c2 - rhs.c2))))
