"""Regularity diagnostics: modulus of continuity, a Dini-type estimate,
and sup norms.

The Dini estimate is an upper-sum approximation of

    sup over anchors tau of  integral_0^1  omega(eta) / eta  d theta_tau(eta)

on a geometrically refined eta grid, with theta_tau the arc length of the
curve within distance eta of the anchor.  omega is read from one sorted
table of node-pair distances per function, theta for all anchors and eta
from one array call.  Finite sampling cannot decide the underlying
condition; the estimate is advisory and is reported with a
refinement-stability flag instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import dc_norm
from .contour import Contour, theta_measure
from .integral import boundary_samples, field_eval

ANCHOR_COUNT = 32
DINI_LEVELS = 40
ETA_RATIO = 2.0 ** 0.25  # refined dyadic grid: 4 points per octave


def _pair_table(contour: Contour, g):
    """Node-pair distances, sorted, and run_max, where run_max[k] is the
    largest ||g(t1) - g(t2)|| over the k nearest pairs (run_max[0] = 0)."""
    vals = boundary_samples(g, contour)
    x, y = contour.xy.T
    d1, d2 = np.asarray(vals.c1), np.asarray(vals.c2)
    i, j = np.triu_indices(contour.n, k=1)
    dist = np.hypot(x[i] - x[j], y[i] - y[j])
    gap = np.hypot(np.abs(d1[i] - d1[j]), np.abs(d2[i] - d2[j]))
    order = np.argsort(dist)
    run_max = np.maximum.accumulate(np.concatenate([[0.0], gap[order]]))
    return dist[order], run_max


def _modulus(table, eps_grid=None):
    """(eps_grid, omega) read from a pair table; the default grid halves
    from the largest pair distance down past the smallest nonzero one."""
    dist, run_max = table
    if eps_grid is None:
        lo = max(float(dist[np.searchsorted(dist, 0.0, side="right")]), 1e-12)
        hi = float(dist[-1])
        m = int(np.ceil(np.log(hi / lo) / np.log(2.0))) + 1
        eps_grid = hi / (2.0 ** np.arange(m))[::-1]
    eps_grid = np.asarray(eps_grid, dtype=float)
    return eps_grid, run_max[np.searchsorted(dist, eps_grid, side="right")]


def modulus_of_continuity(contour: Contour, g, eps_grid=None):
    """Sampled modulus omega(eps) = max ||g(t1) - g(t2)|| over node pairs
    with |t1 - t2| <= eps.  Returns (eps_grid, omega) arrays."""
    return _modulus(_pair_table(contour, g), eps_grid)


def dini_estimate(contour: Contour, g, levels: int = DINI_LEVELS) -> float:
    """Upper-sum estimate of the Dini integral over a subsample of anchors."""
    est, _ = _dini_partial_sums(contour, _pair_table(contour, g), levels)
    return float(est[-1])


def _dini_partial_sums(contour: Contour, table, levels: int):
    """Partial sums of the upper Darboux estimate, coarse eta first."""
    eta = 1.0 / (ETA_RATIO ** np.arange(levels + 1))
    eta = eta[eta >= max(contour.max_spacing, 1e-12)]
    if len(eta) < 2:
        eta = np.array([1.0, contour.max_spacing])
    _, omega = _modulus(table, eta)
    anchors = np.linspace(0, contour.n, ANCHOR_COUNT, endpoint=False).astype(int)
    theta = theta_measure(contour, anchors[:, None], eta[None, :])
    sums = (omega[:-1] / eta[1:]) * (theta[:, :-1] - theta[:, 1:])
    partial = np.cumsum(sums, axis=1).max(axis=0)
    return partial, eta


@dataclass
class RegularityReport:
    eps_grid: np.ndarray
    omega: np.ndarray
    dini_estimate: float
    dini_half_depth: float
    is_constant: bool
    lipschitz_slope: Optional[float]
    divergence_suspected: bool


def regularity_report(contour: Contour, g) -> RegularityReport:
    """Bundle of regularity diagnostics used by the verification report."""
    table = _pair_table(contour, g)
    eps, omega = _modulus(table)
    partial, _ = _dini_partial_sums(contour, table, DINI_LEVELS)
    full = float(partial[-1])
    half = float(partial[(len(partial) - 1) // 2])
    is_const = bool(omega.max() <= 1e-14)
    slope = None
    small = eps <= 0.25 * eps.max()
    if not is_const and small.sum() >= 2:
        slope = float(np.polyfit(eps[small], omega[small], 1)[0])
    divergent = half > 0 and full / max(half, 1e-300) > 1.8
    return RegularityReport(eps_grid=eps, omega=omega, dini_estimate=full,
                            dini_half_depth=half, is_constant=is_const,
                            lipschitz_slope=slope,
                            divergence_suspected=bool(divergent))


def sup_norm(f, points) -> float:
    """Largest value norm over a sample set.

    ``f`` may be an evaluator over points, an expression, or a precomputed
    sample set; ``points`` is a PointE array."""
    return float(np.max(dc_norm(field_eval(f, points))))
