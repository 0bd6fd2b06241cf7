"""Contour quadrature, Cauchy-type integrals, and boundary limits.

The Cauchy-type integral of a density psi on a contour gamma is

    psi~(zeta) = (1 / (2 pi i)) * sum_k  psi(tau_k) (tau_k - zeta)^(-1) dtau_k,

a function of zeta that is monogenic off the curve and vanishes at infinity.
Off-curve evaluation uses the contour's native quadrature; points inside the
guard band use one refined rule per integral, built on first use: an 8x
trigonometrically upsampled rule on smooth and explicit contours, and 16 Gauss
sub-panels per panel on polygons.

Either rule is one kernel sum.  A density may be a (K, N) stack of sample
sets, such as the exponent ln(tau^(-kappa) G) and psi = g/X+ of one
solution, and the sum over (target, source) pairs is then two matrix
products shared by all K: with u = tau - z, the pairwise factors
1/u1 and u2/u1^2 multiply the (N, K) blocks of weighted densities, because
(tau - z)^(-1) = 1/u1 - (u2/u1^2) rho.  Targets go in chunks of a fixed
number of pairs, so memory does not grow with the number of targets, and
rows that are identically zero are left out of the products.

Boundary values at the nodes come from one on-curve rule, singularity
subtraction (Helsing & Ojala, J. Comput. Phys. 2008; Plemelj-Sokhotski as
in Gakhov, *Boundary Value Problems*).  With

    S_j = (1 / (2 pi i)) [ sum_{k != j} (phi_k - phi_j)(tau_k - tau_j)^(-1) dtau_k + D_j ],

the one-sided limits at node j are C+ = phi_j + S_j and C- = S_j.  The
subtracted integrand is smooth on the curve, so the native quadrature keeps
its accuracy at every node, polygon corner nodes included; D_j is its
diagonal value phi'(tau_j) dtau_j.  ``CauchyIntegralFn.node_limits`` gives
these tables, and every construction reads them.

``boundary_values`` is the independent check: it evaluates an integral along
the inward or outward normal at shrinking offsets and extrapolates the
offset to zero (Neville scheme), at a 64-node sample of the smooth nodes,
all offsets in one pass.  Solutions call it once per side on one integral
and report its gap to the node limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DualComplex, PointE, dc_mul, dc_norm
from .contour import (
    GAUSS_ORDER,
    PAIR_CHUNK,
    UPSAMPLE,
    Contour,
    _GL_W,
    _GL_X,
    _trig_derivative,
)
from .errors import TooCloseToBoundaryError
from . import expr as _expr

N_OFFSETS = 5
CHECK_NODES = 64
OFFSET_SPACING_FACTOR = 8.0


# -- sampling helpers ----------------------------------------------------------

def _apply(f, z, **boundary) -> DualComplex:
    """The one dispatch on a function argument: a precomputed sample set is
    its own value, an expression is evaluated at ``z`` and at the boundary
    variables ``tau`` and ``t`` where given, and a callable is called at
    ``z``."""
    if isinstance(f, DualComplex):
        return f
    if _expr.is_expr(f):
        return _expr.evaluate(f, z=z, **boundary)
    if callable(f):
        return f(z)
    raise TypeError(f"cannot evaluate {type(f).__name__} as a function")


def boundary_samples(f, contour: Contour, t=None) -> DualComplex:
    """Samples of an expression, callable, or precomputed sample set at the
    contour nodes, or, given curve parameters ``t``, at ``contour.point_at(t)``
    in an array shaped like ``t`` (a sample set has no values between nodes)."""
    if t is None:
        t, points, tau = contour.t, contour.points(), contour.values()
    elif isinstance(f, DualComplex):
        raise TypeError("a sample set cannot be resampled at curve parameters")
    else:
        t = np.asarray(t, dtype=float)
        p = contour.point_at(t)
        points = PointE(p[..., 0], p[..., 1], contour.basis)
        tau = points.value()
    out = _apply(f, points, tau=tau, t=t)
    c1 = np.array(np.broadcast_to(np.asarray(out.c1, dtype=complex), t.shape))
    c2 = np.array(np.broadcast_to(np.asarray(out.c2, dtype=complex), t.shape))
    return DualComplex(c1, c2)


def boundary_defect(contour: Contour, G, g, plus: DualComplex,
                    minus: DualComplex) -> np.ndarray:
    """||Phi+ - G Phi- - g|| at every node, from node tables of Phi+- and
    the coefficient and free term sampled on the contour."""
    rhs = dc_mul(boundary_samples(G, contour), minus)
    gs = boundary_samples(g, contour)
    return np.asarray(dc_norm(DualComplex(plus.c1 - rhs.c1 - gs.c1,
                                          plus.c2 - rhs.c2 - gs.c2)))


# -- plain quadrature ------------------------------------------------------------

def contour_integral(contour: Contour, samples) -> DualComplex:
    """Closed-curve integral of node samples against the contour weights."""
    f = boundary_samples(samples, contour)
    w = contour.dtau()
    s1 = np.sum(f.c1 * w.c1)
    s2 = np.sum(f.c1 * w.c2 + f.c2 * w.c1)
    return DualComplex(s1, s2)


def _weighted_blocks(w: DualComplex, dens: DualComplex):
    """The rows of a (K, N) density stack that are not identically zero, and
    the (N, L) blocks a = d1 w1 and b = d1 w2 + d2 w1 of those L rows times
    the weights.  A zero row has a zero kernel sum, so it is left out of the
    matrix products: a vanishing exponent or psi in a stack costs nothing."""
    w1, w2 = np.asarray(w.c1), np.asarray(w.c2)
    d1, d2 = np.asarray(dens.c1), np.asarray(dens.c2)
    live = np.flatnonzero(d1.any(axis=1) | d2.any(axis=1))
    if live.size < len(d1):
        d1, d2 = d1[live], d2[live]
    return live, (np.ascontiguousarray((d1 * w1).T),
                  np.ascontiguousarray((d1 * w2 + d2 * w1).T))


def _scatter(live: np.ndarray, k: int, v1: np.ndarray, v2: np.ndarray) -> DualComplex:
    """(K, M) sums from the (M, L) sums of the live rows over 2 pi i; the
    other rows are zero."""
    scale = 1.0 / (2j * np.pi)
    if live.size == k:
        return DualComplex(v1.T * scale, v2.T * scale)
    out1 = np.zeros((k, len(v1)), dtype=complex)
    out2 = np.zeros_like(out1)
    out1[live] = v1.T * scale
    out2[live] = v2.T * scale
    return DualComplex(out1, out2)


def _kernel_sum(tau: DualComplex, w: DualComplex, dens: DualComplex,
                z1: np.ndarray, z2: np.ndarray) -> DualComplex:
    """sum_k dens_k (tau_k - z)^(-1) w_k / (2 pi i) at every target z.

    ``dens`` is a (K, N) stack of densities; the result is (K, M) for M
    targets.  Per (target, source) pair only inv_u = 1/(tau1 - z1) and
    q = (tau2 - z2) inv_u^2 are formed, because
    (tau - z)^(-1) = inv_u - (tau2 - z2) inv_u^2 rho; with the (N, L) blocks
    a = d1 w1 and b = d1 w2 + d2 w1 of the live rows the two components are
    inv_u @ a and inv_u @ b - q @ a.  Targets go in chunks of PAIR_CHUNK
    pairs, on two planes allocated once per call.
    """
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    live, (a, b) = _weighted_blocks(w, dens)
    out1 = np.empty((z1.size, live.size), dtype=complex)
    out2 = np.empty_like(out1)
    m = z1.size if live.size else 0
    chunk = max(1, min(m, PAIR_CHUNK // t1.size))
    planes = np.empty((2, chunk, t1.size), dtype=complex)
    for s in range(0, m, chunk):
        inv_u, q = planes[:, :min(chunk, m - s)]
        np.subtract(t1, z1[s:s + chunk, None], out=inv_u)
        np.divide(1.0, inv_u, out=inv_u)
        np.subtract(t2, z2[s:s + chunk, None], out=q)
        q *= inv_u
        q *= inv_u
        np.matmul(inv_u, a, out=out1[s:s + chunk])
        np.matmul(inv_u, b, out=out2[s:s + chunk])
        out2[s:s + chunk] -= q @ a
    return _scatter(live, len(dens.c1), out1, out2)


def _node_kernel_sum(tau: DualComplex, w: DualComplex,
                     dens: DualComplex) -> DualComplex:
    """sum_{k != j} dens_k (tau_k - tau_j)^(-1) w_k / (2 pi i) at every node j.

    The same two matrix products as ``_kernel_sum`` over the same live rows,
    with the nodes as targets, in chunks of PAIR_CHUNK pairs; the k = j pair
    is dropped by zeroing its factors.
    """
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    live, (a, b) = _weighted_blocks(w, dens)
    n = t1.size
    out1 = np.empty((n, live.size), dtype=complex)
    out2 = np.empty_like(out1)
    m = n if live.size else 0
    chunk = max(1, min(m, PAIR_CHUNK // n))
    planes = np.empty((2, chunk, n), dtype=complex)
    for s in range(0, m, chunk):
        inv_u, q = planes[:, :min(chunk, m - s)]
        diag = (np.arange(len(inv_u)), np.arange(s, s + len(inv_u)))
        np.subtract(t1, t1[s:s + chunk, None], out=inv_u)
        inv_u[diag] = 1.0
        np.divide(1.0, inv_u, out=inv_u)
        inv_u[diag] = 0.0
        np.subtract(t2, t2[s:s + chunk, None], out=q)
        q *= inv_u
        q *= inv_u
        np.matmul(inv_u, a, out=out1[s:s + chunk])
        np.matmul(inv_u, b, out=out2[s:s + chunk])
        out2[s:s + chunk] -= q @ a
    return _scatter(live, len(dens.c1), out1, out2)


# Legendre differentiation on the Gauss nodes of [-1, 1], one matrix for
# every panel: (f at the nodes) -> (df/dx at the nodes), exact to degree 7
_GL_DIFF = (np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 2)
            @ np.polynomial.legendre.legder(np.eye(GAUSS_ORDER))
            @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 1)))


def _panel_nodes(contour: Contour) -> np.ndarray:
    """(panels, GAUSS_ORDER) node indices of a polygon's Gauss panels."""
    starts = np.array([p[0] for p in contour.panels])
    return starts[:, None] + np.arange(GAUSS_ORDER)[None, :]


def _diagonal_term(contour: Contour, d1: np.ndarray, d2: np.ndarray):
    """D_j = phi'(tau_j) dtau_j, the k = j value of the subtracted integrand,
    for a (K, N) stack (phi' is the derivative in dual arithmetic).

    On trapezoid kinds dtau_j = (dtau/dt)_j / N, so D_j = (dphi/dt)_j / N.
    On a polygon phi' = (dphi/dx)(dtau/dx)^(-1) in the panel coordinate x,
    and dtau_j = w_j dtau/dx on a straight panel with Gauss weight w_j, so
    D_j = w_j (dphi/dx)_j.
    """
    if contour.kind != "polygon":
        n = contour.n
        return _trig_derivative(d1, n) / n, _trig_derivative(d2, n) / n
    idx = _panel_nodes(contour)
    out1, out2 = np.empty_like(d1), np.empty_like(d2)
    out1[..., idx] = (d1[..., idx] @ _GL_DIFF.T) * _GL_W
    out2[..., idx] = (d2[..., idx] @ _GL_DIFF.T) * _GL_W
    return out1, out2


def _subtracted_sum(contour: Contour, dens: DualComplex) -> DualComplex:
    """S_j at every node, shaped like ``dens``: the kernel sum of the stack
    [phi..., 1] without the k = j pair gives sum phi_k K_jk and
    sum K_jk, and S_j = sum phi_k K_jk - phi_j sum K_jk + D_j / (2 pi i)."""
    shape = np.shape(dens.c1)
    d1 = np.atleast_2d(np.asarray(dens.c1, dtype=complex))
    d2 = np.atleast_2d(np.asarray(dens.c2, dtype=complex))
    if not (d1.any() or d2.any()):
        # the ones row serves only live rows: a zero density has S = 0
        return DualComplex(np.zeros(shape, dtype=complex),
                           np.zeros(shape, dtype=complex))
    k = len(d1)
    v = _node_kernel_sum(contour.values(), contour.dtau(), DualComplex(
        np.vstack([d1, np.ones((1, contour.n))]),
        np.vstack([d2, np.zeros((1, contour.n))])))
    ones_sum = DualComplex(v.c1[k], v.c2[k])
    held = dc_mul(DualComplex(d1, d2), ones_sum)
    diag1, diag2 = _diagonal_term(contour, d1, d2)
    scale = 1.0 / (2j * np.pi)
    s1 = v.c1[:k] - held.c1 + diag1 * scale
    s2 = v.c2[:k] - held.c2 + diag2 * scale
    return DualComplex(s1.reshape(shape), s2.reshape(shape))


# -- Cauchy-type integral ---------------------------------------------------------

@dataclass(eq=False)
class CauchyIntegralFn:
    """Evaluable Cauchy-type integral of a fixed density on a fixed contour.

    ``density`` is one sample set, shape (N,), or a stack of K sample sets,
    shape (K, N).  A stack is evaluated with one distance query and one
    kernel pass per call, and its values are shaped (K, *points).
    """

    contour: Contour
    density: DualComplex
    _cache: dict = field(default_factory=dict, repr=False)

    def min_eval_distance(self) -> float:
        return self.contour.guard_band / UPSAMPLE

    def __call__(self, points: PointE) -> DualComplex:
        return self._at(points, self.contour.dist_to(points.x, points.y))

    def _at(self, points: PointE, dist: np.ndarray) -> DualComplex:
        """The integral at ``points``, given their flattened distances to the
        curve (``Contour.dist_to``), for callers that have measured them."""
        c = self.contour
        shape = np.shape(points.x)
        x = np.asarray(points.x, dtype=float).ravel()
        y = np.asarray(points.y, dtype=float).ravel()
        z = c.basis.vector(x, y)
        if np.any(dist < self.min_eval_distance()):
            raise TooCloseToBoundaryError(
                f"evaluation within {self.min_eval_distance():.3e} of the contour")
        near = dist < c.guard_band
        far = ~near
        stacked = np.ndim(self.density.c1) == 2
        dens = DualComplex(np.atleast_2d(self.density.c1),
                           np.atleast_2d(self.density.c2))
        out1 = np.empty((len(dens.c1), x.size), dtype=complex)
        out2 = np.empty_like(out1)
        if np.any(far):
            v = _kernel_sum(c.values(), c.dtau(), dens, z.c1[far], z.c2[far])
            out1[:, far], out2[:, far] = v.c1, v.c2
        if np.any(near):
            v = self._near_eval(dens, z.c1[near], z.c2[near])
            out1[:, near], out2[:, near] = v.c1, v.c2
        if not stacked:
            if not shape:
                return DualComplex(complex(out1[0, 0]), complex(out2[0, 0]))
            return DualComplex(out1[0].reshape(shape), out2[0].reshape(shape))
        return DualComplex(out1.reshape(out1.shape[:1] + shape),
                           out2.reshape(out2.shape[:1] + shape))

    def node_limits(self, side: str) -> DualComplex:
        """One-sided limits at every node, shaped like the density:
        C+ = phi + S and C- = S by singularity subtraction (module
        docstring); S is computed once per integral."""
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        if "S" not in self._cache:
            self._cache["S"] = _subtracted_sum(self.contour, self.density)
        s = self._cache["S"]
        return s + self.density if side == "+" else s

    def stacked_with(self, density: DualComplex) -> "CauchyIntegralFn":
        """The integral of the stack [self.density, density] of two sample
        sets.  Node limits go row by row, so the ones this integral already
        computed are kept and only the new row's are computed."""
        d = self.density
        out = CauchyIntegralFn(self.contour, DualComplex(
            np.stack([d.c1, density.c1]), np.stack([d.c2, density.c2])))
        if "S" in self._cache:
            s, t = self._cache["S"], _subtracted_sum(self.contour, density)
            out._cache["S"] = DualComplex(np.stack([s.c1, t.c1]),
                                          np.stack([s.c2, t.c2]))
        return out

    # near-curve machinery

    def _near_eval(self, dens: DualComplex, z1: np.ndarray,
                   z2: np.ndarray) -> DualComplex:
        """Kernel sum over the contour's refined rule, built once per integral
        for all stacked densities at once."""
        if "up" not in self._cache:
            c = self.contour
            if c.kind == "polygon":
                self._cache["up"] = _refined_panel_integral(c, dens)
            else:
                xy_up, w_up = c.refined_geometry()
                tau_up = c.basis.vector(xy_up[:, 0], xy_up[:, 1])
                self._cache["up"] = (tau_up, w_up, c.upsample_samples(dens))
        tau_up, w_up, dens_up = self._cache["up"]
        return _kernel_sum(tau_up, w_up, dens_up, z1, z2)


# polygon panel refinement ------------------------------------------------------

# Each 8-node Gauss panel is split into PANEL_SPLIT equal sub-panels with the
# same Gauss rule; node samples move onto them through one Lagrange matrix.
PANEL_SPLIT = 16
_SUB_S = ((np.arange(PANEL_SPLIT)[:, None] + (_GL_X[None, :] + 1.0) / 2.0)
          / PANEL_SPLIT).ravel()                  # sub-panel nodes on [0, 1]
_SUB_W = np.tile(_GL_W, PANEL_SPLIT) / (2.0 * PANEL_SPLIT)
_SUB_LAGRANGE = (np.polynomial.legendre.legvander(2.0 * _SUB_S - 1.0, GAUSS_ORDER - 1)
                 @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 1)))


def _refined_panel_integral(contour: Contour, dens: DualComplex
                            ) -> tuple[DualComplex, DualComplex, DualComplex]:
    """Refined rule of a polygon integral: (tau, dtau, density) at the nodes
    of PANEL_SPLIT Gauss sub-panels per panel, for every panel at once; a
    (K, N) density stack is carried over along its last axis."""
    p0 = np.array([p[1] for p in contour.panels])
    edge = np.array([p[2] for p in contour.panels]) - p0
    pts = (p0[:, None, :] + _SUB_S[None, :, None] * edge[:, None, :]).reshape(-1, 2)
    w = (_SUB_W[None, :, None] * edge[:, None, :]).reshape(-1, 2)
    idx = _panel_nodes(contour)
    lead = np.shape(dens.c1)[:-1]
    d1 = (np.asarray(dens.c1)[..., idx] @ _SUB_LAGRANGE.T).reshape(lead + (-1,))
    d2 = (np.asarray(dens.c2)[..., idx] @ _SUB_LAGRANGE.T).reshape(lead + (-1,))
    return (contour.basis.vector(pts[:, 0], pts[:, 1]),
            contour.basis.vector(w[:, 0], w[:, 1]), DualComplex(d1, d2))


# -- boundary limits --------------------------------------------------------------

@dataclass
class BoundaryTable:
    """One-sided boundary values at the contour nodes ``indices``, with a
    per-node error estimate (NaN where none was taken)."""

    indices: np.ndarray
    values: DualComplex
    error_estimates: np.ndarray
    side: str


def _neville_to_zero(ds: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    p = np.array([v1, v2], dtype=complex)     # (2, J, ...): both parts
    j = len(ds)
    penult = None
    for m in range(1, j):
        if m == j - 1:
            penult = p[:, 0].copy()
        for i in range(j - m):
            a, b = ds[i], ds[i + m]
            p[:, i] = (a * p[:, i + 1] - b * p[:, i]) / (a - b)
    err = dc_norm(DualComplex(*(p[:, 0] - penult)))
    return DualComplex(p[0, 0], p[1, 0]), np.asarray(err)


def boundary_values(evaluator: Callable[[PointE], DualComplex], contour: Contour,
                    side: str) -> BoundaryTable:
    """One-sided limits of an off-curve evaluator at a sample of the smooth
    nodes: every ceil(S / CHECK_NODES)-th of the S smooth nodes, so all of
    them when S <= CHECK_NODES.

    Approaches each node along its inward ('+') or outward ('-') normal at
    offsets h, h/2, ..., h/2^(J-1) and extrapolates the offset to zero.
    All J x M points go to the evaluator in one call, so it must accept a
    (J, M) array of points and return (J, M) values, or (K, J, M) for a
    (K, N) stacked integral; the table holds (K, M).  Solutions call it
    once per side, as the check of their node limits.  ``error_estimates``
    is the change made by the last extrapolation step.  Near a singularity
    the sample can miss the worst node, so their maximum is a diagnostic
    of the node limits, not a bound on their error.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    smooth = contour.smooth_indices()
    indices = smooth[::-(-smooth.size // CHECK_NODES)]
    h0 = OFFSET_SPACING_FACTOR * contour.max_spacing
    sign = 1.0 if side == "+" else -1.0
    ds = h0 / (2.0 ** np.arange(N_OFFSETS))
    p = (contour.xy[indices]
         + sign * ds[:, None, None] * contour.inward_normals()[indices])
    v = evaluator(PointE(p[..., 0], p[..., 1], contour.basis))
    limit, err = _neville_to_zero(ds, np.moveaxis(np.asarray(v.c1), -2, 0),
                                  np.moveaxis(np.asarray(v.c2), -2, 0))
    return BoundaryTable(indices=indices, values=limit,
                         error_estimates=err, side=side)


@dataclass
class JumpReport:
    """Residuals of the jump identity psi~+ - psi~- = psi at checked nodes."""

    indices: np.ndarray
    residuals: np.ndarray
    max_residual: float
    skipped_corners: int
    plus_error: float
    minus_error: float


def jump_check(contour: Contour, density) -> JumpReport:
    """psi~+ - psi~- - psi at a 64-node sample of the smooth nodes, from
    offset-extrapolated limits, all offsets in one pass.  No pipeline path
    calls it; it stays because the bench tracer (bench/spans.py) wraps it."""
    dens = boundary_samples(density, contour)
    fn = CauchyIntegralFn(contour, dens)
    plus = boundary_values(fn, contour, "+")
    minus = boundary_values(fn, contour, "-")
    idx = plus.indices
    d_at = DualComplex(np.asarray(dens.c1)[idx], np.asarray(dens.c2)[idx])
    diff = DualComplex(plus.values.c1 - minus.values.c1 - d_at.c1,
                       plus.values.c2 - minus.values.c2 - d_at.c2)
    res = np.asarray(dc_norm(diff))
    return JumpReport(indices=idx, residuals=res,
                      max_residual=float(res.max()),
                      skipped_corners=int(contour.corner_mask.sum()),
                      plus_error=float(plus.error_estimates.max()),
                      minus_error=float(minus.error_estimates.max()))
