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
number of pairs, so memory does not grow with the number of targets.

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
offset to zero (Neville scheme), at the smooth nodes.  Solutions call it
once per side on one integral and report its gap to the node limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .algebra import DualComplex, PointE, dc_inv, dc_mul, dc_norm
from .contour import (
    GAUSS_ORDER,
    PAIR_CHUNK,
    UPSAMPLE,
    Contour,
    _GL_W,
    _GL_X,
    _trig_derivative,
)
from .errors import (
    CornerNodeError,
    DegenerateTriangleError,
    FiberInconsistencyError,
    InputError,
    NoConvergenceError,
    NonIntegerResidueError,
    NotAFieldExpressionError,
    NotInvertibleError,
    NotInvertibleOnContourError,
    TooCloseToBoundaryError,
)
from . import expr as _expr

N_OFFSETS = 5
OFFSET_SPACING_FACTOR = 8.0
GL16_X, GL16_W = np.polynomial.legendre.leggauss(16)

FieldFn = Union["_expr.Expr", Callable[[PointE], DualComplex]]


# -- sampling helpers ----------------------------------------------------------

def field_eval(f: FieldFn, point: PointE) -> DualComplex:
    """Evaluate a field function given as an expression or a callable."""
    if _expr.is_expr(f):
        if not _expr.is_field_expr(f):
            raise NotAFieldExpressionError(
                "field operation got an expression with boundary variables")
        return _expr.evaluate(f, z=point)
    if callable(f):
        return f(point)
    raise TypeError(f"cannot evaluate {type(f).__name__} as a field function")


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
    if isinstance(f, DualComplex):
        out = f
    elif _expr.is_expr(f):
        out = _expr.evaluate(f, z=points, tau=tau, t=t)
    elif callable(f):
        out = f(points)
    else:
        raise TypeError(f"cannot sample {type(f).__name__} on a contour")
    c1 = np.array(np.broadcast_to(np.asarray(out.c1, dtype=complex), t.shape))
    c2 = np.array(np.broadcast_to(np.asarray(out.c2, dtype=complex), t.shape))
    return DualComplex(c1, c2)


# -- plain quadrature ------------------------------------------------------------

def contour_integral(contour: Contour, samples) -> DualComplex:
    """Closed-curve integral of node samples against the contour weights."""
    f = boundary_samples(samples, contour)
    w = contour.dtau()
    s1 = np.sum(f.c1 * w.c1)
    s2 = np.sum(f.c1 * w.c2 + f.c2 * w.c1)
    return DualComplex(s1, s2)


def _weighted_blocks(w: DualComplex, dens: DualComplex):
    """The (N, K) blocks a = d1 w1 and b = d1 w2 + d2 w1 of a (K, N)
    density stack times the weights."""
    w1, w2 = np.asarray(w.c1), np.asarray(w.c2)
    d1, d2 = np.asarray(dens.c1), np.asarray(dens.c2)
    return (np.ascontiguousarray((d1 * w1).T),
            np.ascontiguousarray((d1 * w2 + d2 * w1).T))


def _kernel_sum(tau: DualComplex, w: DualComplex, dens: DualComplex,
                z1: np.ndarray, z2: np.ndarray) -> DualComplex:
    """sum_k dens_k (tau_k - z)^(-1) w_k / (2 pi i) at every target z.

    ``dens`` is a (K, N) stack of densities; the result is (K, M) for M
    targets.  Per (target, source) pair only inv_u = 1/(tau1 - z1) and
    q = (tau2 - z2) inv_u^2 are formed, because
    (tau - z)^(-1) = inv_u - (tau2 - z2) inv_u^2 rho; with the (N, K) blocks
    a = d1 w1 and b = d1 w2 + d2 w1 the two components are
    inv_u @ a and inv_u @ b - q @ a.
    """
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    a, b = _weighted_blocks(w, dens)
    out1 = np.empty((z1.size, a.shape[1]), dtype=complex)
    out2 = np.empty_like(out1)
    chunk = max(1, PAIR_CHUNK // t1.size)
    for s in range(0, z1.size, chunk):
        inv_u = 1.0 / (t1 - z1[s:s + chunk, None])
        q = t2 - z2[s:s + chunk, None]
        q *= inv_u
        q *= inv_u
        out1[s:s + chunk] = inv_u @ a
        out2[s:s + chunk] = inv_u @ b - q @ a
    scale = 1.0 / (2j * np.pi)
    return DualComplex(out1.T * scale, out2.T * scale)


def _node_kernel_sum(tau: DualComplex, w: DualComplex,
                     dens: DualComplex) -> DualComplex:
    """sum_{k != j} dens_k (tau_k - tau_j)^(-1) w_k / (2 pi i) at every node j.

    The same two matrix products as ``_kernel_sum`` with the nodes as
    targets, in chunks of PAIR_CHUNK pairs; the k = j pair is dropped by
    zeroing its factors.
    """
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    a, b = _weighted_blocks(w, dens)
    n = t1.size
    out1 = np.empty((n, a.shape[1]), dtype=complex)
    out2 = np.empty_like(out1)
    chunk = max(1, PAIR_CHUNK // n)
    for s in range(0, n, chunk):
        rows = np.arange(s, min(s + chunk, n))
        diag = (np.arange(rows.size), rows)
        u = t1 - t1[rows, None]
        u[diag] = 1.0
        inv_u = 1.0 / u
        inv_u[diag] = 0.0
        q = t2 - t2[rows, None]
        q *= inv_u
        q *= inv_u
        out1[rows] = inv_u @ a
        out2[rows] = inv_u @ b - q @ a
    scale = 1.0 / (2j * np.pi)
    return DualComplex(out1.T * scale, out2.T * scale)


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
        c = self.contour
        shape = np.shape(points.x)
        x = np.asarray(points.x, dtype=float).ravel()
        y = np.asarray(points.y, dtype=float).ravel()
        z = c.basis.vector(x, y)
        dist = c.dist_to(x, y)
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

    def at_infinity(self) -> DualComplex:
        return DualComplex(0j, 0j)

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


def cauchy_integral(contour: Contour, density, point: PointE) -> DualComplex:
    """Cauchy-type integral at a point (or points) off the curve.

    The point must lie outside the guard band of the contour, where the
    native quadrature meets its accuracy target.
    """
    dens = boundary_samples(density, contour)
    d = contour.dist_to(point.x, point.y)
    if np.any(d < contour.guard_band):
        raise TooCloseToBoundaryError(
            f"point within guard band {contour.guard_band:.3e} of the contour")
    return CauchyIntegralFn(contour, dens)(point)


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


def _neville_to_zero(ds: np.ndarray, v1: list[np.ndarray], v2: list[np.ndarray]):
    p1 = [np.array(v, dtype=complex) for v in v1]
    p2 = [np.array(v, dtype=complex) for v in v2]
    j = len(ds)
    penult = None
    for m in range(1, j):
        if m == j - 1:
            penult = (p1[0].copy(), p2[0].copy())
        for i in range(j - m):
            a, b = ds[i], ds[i + m]
            p1[i] = (a * p1[i + 1] - b * p1[i]) / (a - b)
            p2[i] = (a * p2[i + 1] - b * p2[i]) / (a - b)
    final = DualComplex(p1[0], p2[0])
    err = dc_norm(DualComplex(p1[0] - penult[0], p2[0] - penult[1]))
    return final, np.asarray(err)


def boundary_values(evaluator: Callable[[PointE], DualComplex], contour: Contour,
                    side: str, indices: Optional[np.ndarray] = None) -> BoundaryTable:
    """One-sided limits of an off-curve evaluator at contour nodes.

    Approaches each node along its inward ('+') or outward ('-') normal at
    offsets h, h/2, ..., h/2^(J-1) and extrapolates the offset to zero.
    The evaluator must accept array-valued points; a (K, N) stacked
    integral gives (K, nodes) values.  Solutions call it once per side, as
    the check of their node limits.  ``error_estimates`` is the change made
    by the last extrapolation step.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if indices is None:
        indices = contour.smooth_indices()
    indices = np.asarray(indices, dtype=int)
    if np.any(contour.corner_mask[indices]):
        bad = indices[contour.corner_mask[indices]]
        raise CornerNodeError(f"boundary limit at corner node(s) {bad[:4].tolist()}")
    h0 = OFFSET_SPACING_FACTOR * contour.max_spacing
    sign = 1.0 if side == "+" else -1.0
    normals = contour.inward_normals()[indices]
    ds = h0 / (2.0 ** np.arange(N_OFFSETS))
    vals1, vals2 = [], []
    for d in ds:
        px = contour.xy[indices, 0] + sign * d * normals[:, 0]
        py = contour.xy[indices, 1] + sign * d * normals[:, 1]
        v = evaluator(PointE(px, py, contour.basis))
        vals1.append(np.atleast_1d(np.asarray(v.c1, dtype=complex)))
        vals2.append(np.atleast_1d(np.asarray(v.c2, dtype=complex)))
    limit, err = _neville_to_zero(ds, vals1, vals2)
    return BoundaryTable(indices=indices, values=limit,
                         error_estimates=err, side=side)


def boundary_limit(fn, contour: Contour, node_index: int, side: str,
                   tol: float = 1e-3):
    """One-sided boundary value at a single smooth node.

    ``fn`` may be a CauchyIntegralFn or any vectorized off-curve evaluator.
    Raises CornerNodeError at polygon corner nodes and NoConvergenceError
    when the extrapolation's internal error estimate exceeds ``tol``
    relative to the value scale.
    """
    node_index = int(node_index) % contour.n
    if contour.corner_mask[node_index]:
        raise CornerNodeError(f"node {node_index} is a corner node")
    table = boundary_values(fn, contour, side, indices=np.array([node_index]))
    val = table.values.item(0)
    err = float(table.error_estimates[0])
    if err > tol * (1.0 + float(dc_norm(val))):
        raise NoConvergenceError(
            f"offset extrapolation error estimate {err:.3e} exceeds tolerance",
            error_estimate=err)
    return val


@dataclass
class JumpReport:
    """Residuals of the jump identity psi~+ - psi~- = psi at smooth nodes."""

    indices: np.ndarray
    residuals: np.ndarray
    max_residual: float
    skipped_corners: int
    plus_error: float
    minus_error: float


def jump_check(contour: Contour, density) -> JumpReport:
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


# -- classical consequences as computations ----------------------------------------

def taylor_coeffs(f: FieldFn, center: PointE, contour: Contour,
                  n_max: int) -> list[DualComplex]:
    """Power series coefficients about an interior center.

    c_n = (1 / (2 pi i)) * closed integral of f(tau) (tau - center)^(-n-1).
    """
    d = float(contour.dist_to(center.x, center.y)[0])
    if d < contour.guard_band:
        raise TooCloseToBoundaryError("expansion center is inside the guard band")
    if contour.winding_number(center.x, center.y)[0] == 0:
        raise InputError("expansion center is not inside the contour")
    samples = boundary_samples(f, contour)
    tau = contour.values()
    w = contour.dtau()
    zc = center.value()
    shifted = DualComplex(tau.c1 - zc.c1, tau.c2 - zc.c2)
    q = dc_inv(shifted)
    power = q  # (tau - center)^(-1)
    coeffs = []
    scale = 1.0 / (2j * np.pi)
    for _ in range(n_max + 1):
        integrand = dc_mul(samples, power)
        s1 = np.sum(integrand.c1 * w.c1) * scale
        s2 = np.sum(integrand.c1 * w.c2 + integrand.c2 * w.c1) * scale
        coeffs.append(DualComplex(complex(s1), complex(s2)))
        power = dc_mul(power, q)
    return coeffs


@dataclass
class LogResidueReport:
    zeros: int
    raw: DualComplex
    rounding_distance: float
    region: str


def log_residue(phi: FieldFn, dphi: FieldFn, contour: Contour,
                region: str = "+", tol: float = 1e-3) -> LogResidueReport:
    """Zero count from the logarithmic residue integral.

    (1 / (2 pi i)) * closed integral of phi'(tau) phi(tau)^(-1) equals the
    number of zeros of the complex part enclosed by the curve (with sign
    flipped when the function's domain is the exterior region).
    """
    if region not in ("+", "-"):
        raise ValueError("region must be '+' or '-'")
    pv = boundary_samples(phi, contour)
    floor = 1e-12 * np.maximum(1.0, dc_norm(pv))
    bad = np.abs(np.asarray(pv.c1)) <= floor
    if np.any(bad):
        raise NotInvertibleOnContourError(
            "function vanishes on the contour",
            indices=np.nonzero(bad)[0])
    dv = boundary_samples(dphi, contour)
    integrand = dc_mul(dv, dc_inv(pv))
    total = contour_integral(contour, integrand)
    raw = DualComplex(total.c1 / (2j * np.pi), total.c2 / (2j * np.pi))
    nearest = int(np.rint(np.real(raw.c1)))
    distance = float(dc_norm(DualComplex(raw.c1 - nearest, raw.c2)))
    if distance > tol:
        raise NonIntegerResidueError(
            f"logarithmic residue {raw.c1:.6g} is {distance:.3e} from an integer",
            raw=raw, distance=distance)
    zeros = nearest if region == "+" else -nearest
    return LogResidueReport(zeros=zeros, raw=raw, rounding_distance=distance,
                            region=region)


def morera_triangle_check(f: FieldFn, v1: PointE, v2: PointE, v3: PointE) -> float:
    """Norm of the closed integral of f over a triangle boundary.

    Small for monogenic f; order-one for generically non-monogenic samples.
    """
    pts = np.array([[v1.x, v1.y], [v2.x, v2.y], [v3.x, v3.y]], dtype=float)
    area = 0.5 * abs((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                     - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1]))
    scale = max(np.hypot(*(pts[i] - pts[j])) for i, j in ((0, 1), (1, 2), (2, 0)))
    if area <= 1e-12 * max(scale, 1e-30) ** 2:
        raise DegenerateTriangleError("triangle vertices are collinear")
    basis = v1.basis
    total1, total2 = 0j, 0j
    for i in range(3):
        a, b = pts[i], pts[(i + 1) % 3]
        s = (GL16_X + 1.0) / 2.0
        px = a[0] + (b[0] - a[0]) * s
        py = a[1] + (b[1] - a[1]) * s
        vals = field_eval(f, PointE(px, py, basis))
        edge = basis.vector(b[0] - a[0], b[1] - a[1])
        w = GL16_W / 2.0
        f1 = np.sum(np.asarray(vals.c1) * w)
        f2 = np.sum(np.asarray(vals.c2) * w)
        total1 += f1 * edge.c1
        total2 += f1 * edge.c2 + f2 * edge.c1
    return float(dc_norm(DualComplex(total1, total2)))


@dataclass
class MonogenicityReport:
    point: PointE
    deltas: tuple
    quotients: list                 # per delta: list of DualComplex per direction
    raw_spread: np.ndarray          # spread of raw quotients, per delta
    direction_limits: list          # per direction, scale extrapolated to zero
    direction_spread: float         # spread of the extrapolated limits
    limit: DualComplex

    @property
    def is_direction_independent(self) -> bool:
        return bool(self.direction_spread < 100 * self.raw_spread[-1] ** 2 + 1e-9)


def monogenicity_check(f: FieldFn, point: PointE,
                       deltas: Sequence[float] = (1e-3, 5e-4, 2.5e-4)) -> MonogenicityReport:
    """Direction independence of the difference quotient at a point.

    Quotients (f(zeta + h) - f(zeta)) h^(-1) are formed for h along e1, e2,
    and their normalized sum, at a few shrinking scales.  Each direction's
    quotient is extrapolated to scale zero (the raw one-sided quotient
    carries an O(delta) bias even for monogenic functions); a monogenic
    function gives extrapolated limits that agree across directions.
    """
    basis = point.basis
    dirs = [(1.0, 0.0), (0.0, 1.0), (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))]
    f0 = field_eval(f, point)
    quotients = []
    spreads = []
    for d in deltas:
        row = []
        for (ux, uy) in dirs:
            h = basis.vector(ux * d, uy * d)
            fv = field_eval(f, point.shifted(ux * d, uy * d))
            q = dc_mul(DualComplex(fv.c1 - f0.c1, fv.c2 - f0.c2), dc_inv(h))
            row.append(DualComplex(complex(q.c1), complex(q.c2)))
        quotients.append(row)
        spread = max(float(dc_norm(DualComplex(a.c1 - b.c1, a.c2 - b.c2)))
                     for i, a in enumerate(row) for b in row[i + 1:])
        spreads.append(spread)
    # first-order Richardson per direction on the two smallest scales
    last, prev = quotients[-1], quotients[-2]
    ratio = deltas[-2] / deltas[-1]
    direction_limits = [
        DualComplex((ratio * a.c1 - b.c1) / (ratio - 1.0),
                    (ratio * a.c2 - b.c2) / (ratio - 1.0))
        for a, b in zip(last, prev)
    ]
    dir_spread = max(float(dc_norm(DualComplex(a.c1 - b.c1, a.c2 - b.c2)))
                     for i, a in enumerate(direction_limits)
                     for b in direction_limits[i + 1:])
    lim1 = np.mean([v.c1 for v in direction_limits])
    lim2 = np.mean([v.c2 for v in direction_limits])
    return MonogenicityReport(point=point, deltas=tuple(deltas),
                              quotients=quotients,
                              raw_spread=np.asarray(spreads),
                              direction_limits=direction_limits,
                              direction_spread=dir_spread,
                              limit=DualComplex(complex(lim1), complex(lim2)))


@dataclass
class ComponentDecomposition:
    """Split of a field function into a holomorphic complex part and a
    rho part: f(zeta) = F(xi1) + f0(zeta) rho with F holomorphic."""

    complex_part: Callable          # F: complex -> complex
    rho_part: Callable              # PointE -> complex
    cr_residual: float
    fiber_residual: float


def component_decompose(f: FieldFn, grid: PointE,
                        tol: float = 1e-6) -> ComponentDecomposition:
    basis = grid.basis
    vals = field_eval(f, grid)
    scale = 1.0 + float(np.max(dc_norm(vals)))

    # the complex part must not see the rho coordinate
    fiber_residual = 0.0
    probe = grid.value()
    for shift in (0.37, -0.61):
        try:
            shifted = _eval_on_algebra(f, DualComplex(probe.c1, probe.c2 + shift))
        except TypeError:
            break
        fiber_residual = max(fiber_residual,
                             float(np.max(np.abs(shifted.c1 - vals.c1))))
    if fiber_residual > tol * scale:
        raise FiberInconsistencyError(
            f"complex part varies along rho-fibers by {fiber_residual:.3e}")

    def complex_part(w):
        x, y = basis.xy_from_xi1(np.asarray(w, dtype=complex))
        return field_eval(f, PointE(x, y, basis)).c1

    def rho_part(point: PointE):
        return field_eval(f, point).c2

    # Cauchy-Riemann finite differences of F on the grid's scale
    w0 = np.asarray(grid.value().c1).ravel()
    d = 1e-5 * (1.0 + np.abs(w0))
    fx = (complex_part(w0 + d) - complex_part(w0 - d)) / (2 * d)
    fy = (complex_part(w0 + 1j * d) - complex_part(w0 - 1j * d)) / (2 * d)
    cr = float(np.max(np.abs((fx + 1j * fy) / 2.0)))
    return ComponentDecomposition(complex_part=complex_part, rho_part=rho_part,
                                  cr_residual=cr, fiber_residual=fiber_residual)


def _eval_on_algebra(f, value: DualComplex) -> DualComplex:
    """Evaluate at a raw algebra element (off the plane E) when possible."""
    if _expr.is_expr(f):
        return _expr.evaluate(f, z=value)
    return f(value)
