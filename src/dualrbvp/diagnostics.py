"""Regularity diagnostics: modulus of continuity and a Dini-type estimate.

The Dini estimate is an upper-sum approximation of

    sup over anchors tau of  integral_0^1  omega(eta) / eta  d theta_tau(eta)

on a geometrically refined eta grid, with theta_tau the arc length of the
curve within distance eta of the anchor.

What depends only on the contour is computed once per contour and kept in
its cache: the default eps grid, from the smallest nonzero and the largest
node-pair distance, the eta grid, and theta at every anchor and eta, from
the segment sweep of ``theta_measure``.  omega of a function is one pass
over blocks of node rows, PAIR_CHUNK pairs at a time: each pair's distance
is binned into the sorted union of the grids wanted, the largest value gap
is kept per bin, and the running maximum over the bins is omega at every
grid point, exactly, without a table of all pairs.  Finite sampling cannot
decide the underlying condition; the estimate is advisory and is reported
with a refinement-stability flag instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contour import PAIR_CHUNK, Contour, theta_measure
from .integral import boundary_samples

ANCHOR_COUNT = 32
DINI_LEVELS = 40
ETA_RATIO = 2.0 ** 0.25  # refined dyadic grid: 4 points per octave


class _PairBlocks:
    """Row blocks of the node pairs: rows s..e-1 against columns s..N-1, so
    every unordered pair is met at least once; a symmetric duplicate or a
    node paired with itself changes no maximum.  A block holds at most
    PAIR_CHUNK pairs and an eighth of the rows, which keeps the duplicates
    to a sixteenth of the pairs.  Its planes are views of buffers allocated
    once per pass."""

    def __init__(self, n: int):
        self.n = n
        self.rows = -(-n // 8)
        size = min(n * self.rows, max(PAIR_CHUNK, n))
        self._real = np.empty((3, size))
        self._cplx = np.empty(size, dtype=complex)

    def __iter__(self):
        s, n = 0, self.n
        while s < n:
            e = min(n, s + max(1, min(self.rows, PAIR_CHUNK // (n - s))))
            yield s, e
            s = e

    def _plane(self, buf: np.ndarray, s: int, e: int) -> np.ndarray:
        return buf[:(e - s) * (self.n - s)].reshape(e - s, self.n - s)

    def dist(self, xy: np.ndarray, s: int, e: int) -> np.ndarray:
        """hypot(x_i - x_j, y_i - y_j) on the block."""
        x, y = xy[:, 0], xy[:, 1]
        dx = np.subtract(x[s:e, None], x[s:], out=self._plane(self._real[0], s, e))
        dy = np.subtract(y[s:e, None], y[s:], out=self._plane(self._real[1], s, e))
        return np.hypot(dx, dy, out=dx)

    def gap(self, c1: np.ndarray, c2: np.ndarray, s: int, e: int) -> np.ndarray:
        """||g_i - g_j|| = hypot(|c1_i - c1_j|, |c2_i - c2_j|) on the block;
        it leaves the plane of ``dist`` alone."""
        diff = self._plane(self._cplx, s, e)
        a1 = np.abs(np.subtract(c1[s:e, None], c1[s:], out=diff),
                    out=self._plane(self._real[1], s, e))
        a2 = np.abs(np.subtract(c2[s:e, None], c2[s:], out=diff),
                    out=self._plane(self._real[2], s, e))
        return np.hypot(a1, a2, out=a1)


def _default_eps(contour: Contour) -> np.ndarray:
    """The grid halving from the largest node-pair distance down past the
    smallest nonzero one; computed once per contour."""
    if "eps_grid" not in contour._cache:
        blocks = _PairBlocks(contour.n)
        lo, hi = np.inf, 0.0
        for s, e in blocks:
            dist = blocks.dist(contour.xy, s, e)
            lo = min(lo, float(np.min(dist, where=dist > 0, initial=np.inf)))
            hi = max(hi, float(dist.max()))
        lo = max(lo, 1e-12)
        m = int(np.ceil(np.log(hi / lo) / np.log(2.0))) + 1
        contour._cache["eps_grid"] = hi / (2.0 ** np.arange(m))[::-1]
    return contour._cache["eps_grid"].copy()


def _dini_geometry(contour: Contour, levels: int):
    """(eta grid, theta at ANCHOR_COUNT anchors x eta); computed once per
    contour and depth."""
    key = ("dini", levels)
    if key not in contour._cache:
        eta = 1.0 / (ETA_RATIO ** np.arange(levels + 1))
        eta = eta[eta >= max(contour.max_spacing, 1e-12)]
        if len(eta) < 2:
            eta = np.array([1.0, contour.max_spacing])
        anchors = np.linspace(0, contour.n, ANCHOR_COUNT,
                              endpoint=False).astype(int)
        contour._cache[key] = (
            eta, theta_measure(contour, anchors[:, None], eta[None, :]))
    return contour._cache[key]


def _omega(contour: Contour, g, *grids) -> list:
    """omega of ``g`` on each grid: the largest ||g(t1) - g(t2)|| over node
    pairs with |t1 - t2| <= eps, from one pass over the pair blocks."""
    vals = boundary_samples(g, contour)
    c1, c2 = np.asarray(vals.c1), np.asarray(vals.c2)
    if np.all(c1 == c1[0]) and np.all(c2 == c2[0]):
        return [np.zeros(np.shape(grid)) for grid in grids]
    grids = [np.asarray(grid, dtype=float) for grid in grids]
    edges = np.unique(np.concatenate([grid.ravel() for grid in grids]))
    # bin k holds the pairs with edges[k-1] < dist <= edges[k]
    top = np.zeros(len(edges) + 1)
    blocks = _PairBlocks(contour.n)
    for s, e in blocks:
        bins = np.searchsorted(edges, blocks.dist(contour.xy, s, e).ravel(),
                               side="left")
        np.maximum.at(top, bins, blocks.gap(c1, c2, s, e).ravel())
    run_max = np.maximum.accumulate(top)
    return [run_max[np.searchsorted(edges, grid)] for grid in grids]


def modulus_of_continuity(contour: Contour, g, eps_grid=None):
    """Sampled modulus omega(eps) = max ||g(t1) - g(t2)|| over node pairs
    with |t1 - t2| <= eps.  Returns (eps_grid, omega) arrays; the default
    grid halves from the largest pair distance down past the smallest
    nonzero one."""
    eps = _default_eps(contour) if eps_grid is None else np.asarray(
        eps_grid, dtype=float)
    return eps, _omega(contour, g, eps)[0]


def dini_estimate(contour: Contour, g, levels: int = DINI_LEVELS) -> float:
    """Upper-sum estimate of the Dini integral over a subsample of anchors."""
    eta, theta = _dini_geometry(contour, levels)
    return float(_partial_sums(eta, _omega(contour, g, eta)[0], theta)[-1])


def _partial_sums(eta, omega, theta):
    """Partial sums of the upper Darboux estimate, coarse eta first."""
    sums = (omega[:-1] / eta[1:]) * (theta[:, :-1] - theta[:, 1:])
    return np.cumsum(sums, axis=1).max(axis=0)


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
    eps = _default_eps(contour)
    eta, theta = _dini_geometry(contour, DINI_LEVELS)
    omega, omega_eta = _omega(contour, g, eps, eta)
    partial = _partial_sums(eta, omega_eta, theta)
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

