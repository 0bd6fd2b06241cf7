"""Index of a boundary coefficient and the canonical factorization.

The index kappa of an invertible coefficient G on a closed curve is the
winding of its complex part about 0, computed by tracking a continuous
argument along the node loop.  The canonical function is

    X0(zeta) = exp( Cauchy-type integral of ln(tau^(-kappa) G(tau)) ),
    X(zeta)  = X0(zeta) interior,   zeta^(-kappa) X0(zeta) exterior,

a sectionally monogenic invertible function with X+ = G X- on the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DualComplex, dc_exp, dc_mul, dc_pow_int
from .contour import Contour
from .errors import (
    BranchAmbiguityError,
    ClosureFailureError,
    NotInvertibleOnContourError,
    OriginNotInteriorError,
)
from .integral import CauchyIntegralFn, boundary_samples
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


def _accumulated_argument(contour: Contour, g: np.ndarray,
                          sample) -> tuple[np.ndarray, float]:
    """Per-node continuous argument increments around the loop and their
    total, from the node samples ``g``; ``sample`` evaluates the function
    at curve parameters, and runs only where a step needs refinement."""
    floor = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    bad = np.abs(g) <= floor
    if np.any(bad):
        raise NotInvertibleOnContourError(
            "coefficient complex part vanishes at contour node(s)")
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


def compute_index(contour: Contour, G) -> IndexResult:
    """Winding index of the coefficient's complex part along the curve.

    The rho part of the logarithm is single-valued, so it contributes
    nothing over a closed loop; only the accumulated argument matters.
    Each step's angle is that of g_{k+1}/g_k, so the steps of the closed
    loop, refined ones included, telescope to 2 pi times an integer: ``raw``
    differs from ``kappa`` by rounding only.
    """
    _, total = _accumulated_argument(
        contour, boundary_samples(G, contour).c1,
        lambda tq: boundary_samples(G, contour, tq).c1)
    raw = total / (2.0 * np.pi)
    return IndexResult(kappa=int(np.rint(raw)), raw=raw)


def continuous_log(contour: Contour, G, kappa: int) -> DualComplex:
    """Single-valued continuous branch of ln(tau^(-kappa) G(tau)) at the nodes.

    The complex part starts from the principal value at node 0 and follows
    the accumulated argument; the rho part is pointwise.  The steps of the
    closed loop telescope to 2 pi times an integer, the winding left over
    by a wrong kappa, so a total beyond pi in size is a loop that fails to
    close, and anything smaller is rounding.
    """
    tau = contour.values()
    w = dc_mul(dc_pow_int(tau, -int(kappa)), boundary_samples(G, contour))

    def sample(tq: np.ndarray) -> np.ndarray:
        tval = contour.value_at(tq)
        return boundary_samples(G, contour, tq).c1 * np.power(
            np.asarray(tval.c1, dtype=complex), -int(kappa))

    steps, total = _accumulated_argument(contour, w.c1, sample)
    if abs(total) > np.pi:
        raise ClosureFailureError(
            f"branch fails to close: residual winding {total / (2 * np.pi):.6f} "
            "(wrong index?)")
    theta0 = float(np.angle(w.c1[0]))
    theta = theta0 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    ln1 = np.log(np.abs(w.c1)) + 1j * theta
    ln2 = w.c2 / w.c1
    return DualComplex(ln1, ln2)


@dataclass(eq=False)
class CanonicalX:
    """Canonical factor of a coefficient: the integral of its continuous log
    and the side formulas built on it."""

    contour: Contour
    kappa: int
    raw_index: float
    exponent: CauchyIntegralFn        # Cauchy-type integral of the log samples

    def from_exponent(self, side: str, zeta: DualComplex,
                      exponent: DualComplex) -> DualComplex:
        """X+ = exp(E) or X- = zeta^(-kappa) exp(E), from values E of the
        exponent at zeta (off the curve, or its one-sided limits on it)."""
        val = dc_exp(exponent)
        if side == "-":
            val = dc_mul(dc_pow_int(zeta, -self.kappa), val)
        return val


def build_canonical_X(contour: Contour, G) -> CanonicalX:
    """Construct the canonical factor for an invertible coefficient.

    Requires the origin inside the curve whenever the index is nonzero
    (otherwise zeta^(-kappa) is not invertible throughout the exterior).
    """
    idx = compute_index(contour, G)
    if idx.kappa != 0 and contour.winding_number(0.0, 0.0)[0] == 0:
        raise OriginNotInteriorError(
            f"index {idx.kappa} requires the origin inside the curve")
    return CanonicalX(contour=contour, kappa=idx.kappa, raw_index=idx.raw,
                      exponent=CauchyIntegralFn(
                          contour, continuous_log(contour, G, idx.kappa)))

