"""Regularity diagnostics: a Dini-type estimate of a boundary function.

The Dini estimate is an upper-sum approximation of

    sup over anchors tau of  integral_0^1  omega(eta) / eta  d theta_tau(eta)

on a geometrically refined eta grid, with theta_tau the arc length of the
curve within distance eta of the anchor.

What depends only on the contour is computed once per contour and kept in
its cache: the eta grid, and theta at every anchor and eta, from the
segment sweep of ``theta_measure``.  omega, the sampled modulus of
continuity, is read on the eta grid only, in one pass over blocks of node
rows, PAIR_CHUNK pairs at a time, shared by all the functions of one
``regularity_report`` call: each pair's distance is binned into the grid
once, the largest value gap of each function is kept per bin, and the
running maximum over the bins is omega at every grid point, exactly,
without a table of all pairs.  Finite sampling cannot decide the underlying condition; the
estimate is advisory and is reported with a refinement-stability flag
instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _dini_geometry(contour: Contour):
    """(eta grid, theta at ANCHOR_COUNT anchors x eta); computed once per
    contour."""
    if "dini" not in contour._cache:
        eta = 1.0 / (ETA_RATIO ** np.arange(DINI_LEVELS + 1))
        eta = eta[eta >= max(contour.max_spacing, 1e-12)]
        if len(eta) < 2:
            eta = np.array([1.0, contour.max_spacing])
        anchors = np.linspace(0, contour.n, ANCHOR_COUNT,
                              endpoint=False).astype(int)
        contour._cache["dini"] = (
            eta, theta_measure(contour, anchors[:, None], eta[None, :]))
    return contour._cache["dini"]


def _omega(contour: Contour, functions, grid) -> np.ndarray:
    """omega of each of ``functions`` on ``grid``, shaped (K, *grid): the
    largest ||g(t1) - g(t2)|| over node pairs with |t1 - t2| <= eps, from
    one pass over the pair blocks that measures and bins each block's pair
    distances once for all K."""
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((len(functions),) + grid.shape)
    live = []
    for k, g in enumerate(functions):
        vals = boundary_samples(g, contour)
        c1, c2 = np.asarray(vals.c1), np.asarray(vals.c2)
        if not (np.all(c1 == c1[0]) and np.all(c2 == c2[0])):
            live.append((k, c1, c2))
    if not live:
        return out
    edges = np.unique(grid)
    # bin k holds the pairs with edges[k-1] < dist <= edges[k]
    top = np.zeros((len(live), len(edges) + 1))
    blocks = _PairBlocks(contour.n)
    for s, e in blocks:
        bins = np.searchsorted(edges, blocks.dist(contour.xy, s, e).ravel(),
                               side="left")
        for row, (_, c1, c2) in zip(top, live):
            np.maximum.at(row, bins, blocks.gap(c1, c2, s, e).ravel())
    at = np.searchsorted(edges, grid)
    for row, (k, _, _) in zip(top, live):
        out[k] = np.maximum.accumulate(row)[at]
    return out


def _partial_sums(eta, omega, theta):
    """Partial sums of the upper Darboux estimate, coarse eta first."""
    sums = (omega[:-1] / eta[1:]) * (theta[:, :-1] - theta[:, 1:])
    return np.cumsum(sums, axis=1).max(axis=0)


@dataclass
class RegularityReport:
    dini_estimate: float
    dini_half_depth: float
    divergence_suspected: bool


def regularity_report(contour: Contour, *functions
                      ) -> tuple[RegularityReport, ...]:
    """One report per function: its Dini estimate, the partial sum at half
    the eta depth, and the refinement-stability flag that ``verify``
    reports.  The functions share one pass over the node pairs
    (``_omega``)."""
    eta, theta = _dini_geometry(contour)
    reports = []
    for omega in _omega(contour, functions, eta):
        partial = _partial_sums(eta, omega, theta)
        full = float(partial[-1])
        half = float(partial[(len(partial) - 1) // 2])
        divergent = half > 0 and full / max(half, 1e-300) > 1.8
        reports.append(RegularityReport(dini_estimate=full,
                                        dini_half_depth=half,
                                        divergence_suspected=bool(divergent)))
    return tuple(reports)
