"""Closed rectifiable Jordan curves in the plane E and their geometry.

A contour stores sampled nodes in (x, y) coordinates together with
quadrature weight vectors such that a closed-curve integral of samples
f_k is ``sum f_k * w_k`` after mapping weights through the basis.  Smooth
parametric kinds (circle, ellipse) use the uniform-parameter trapezoid rule
with exact tangents, which is spectrally accurate for analytic integrands;
polygons use composite 8-point Gauss-Legendre panels on each edge; explicit
node lists, taken as uniform samples of a periodic curve, use the same
trapezoid rule with spectral-derivative weights.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import BasisE, DualComplex, PointE
from .errors import CornerNodeError, EmptySpecError, SelfIntersectingError

DEFAULT_NODES = 512
GAUSS_ORDER = 8
GUARD_SPACING_FACTOR = 3.0
UPSAMPLE = 8
# (target, source) pairs per chunk of a distance query or kernel sum: each
# temporary plane stays ~1 MB, so memory does not grow with the number of
# targets; kernel time measured flat from 2^12 to 2^17 pairs, slower above
PAIR_CHUNK = 2 ** 16

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)


@dataclass(eq=False)
class Contour:
    kind: str                  # "circle" | "ellipse" | "polygon" | "explicit"
    basis: BasisE
    params: dict
    t: np.ndarray              # (N,) curve parameters in [0, 1)
    xy: np.ndarray             # (N, 2) node coordinates
    w_xy: np.ndarray           # (N, 2) quadrature weight vectors
    tangent: np.ndarray        # (N, 2) unit tangents at nodes
    cum_len: np.ndarray        # (N,) arc length from node 0 to node k
    length: float
    max_spacing: float
    corner_mask: np.ndarray    # (N,) True near polygon corners
    panels: Optional[list] = None   # polygon: (start_idx, p0_xy, p1_xy)
    orientation_reversed: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    # -- basic views -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def guard_band(self) -> float:
        return GUARD_SPACING_FACTOR * self.max_spacing

    def points(self) -> PointE:
        return PointE(self.xy[:, 0], self.xy[:, 1], self.basis)

    def values(self) -> DualComplex:
        """Node values tau_k as algebra elements."""
        if "values" not in self._cache:
            self._cache["values"] = self.basis.vector(self.xy[:, 0], self.xy[:, 1])
        return self._cache["values"]

    def dtau(self) -> DualComplex:
        """Quadrature weights as algebra increments d(tau)."""
        if "dtau" not in self._cache:
            self._cache["dtau"] = self.basis.vector(self.w_xy[:, 0], self.w_xy[:, 1])
        return self._cache["dtau"]

    def smooth_indices(self) -> np.ndarray:
        """Nodes away from polygon corners, where offset extrapolation
        (``integral.boundary_values``) can approach the curve."""
        idx = np.nonzero(~self.corner_mask)[0]
        if idx.size == 0:
            raise CornerNodeError(
                f"all {self.n} nodes are corner nodes; no offset limit can "
                "be taken (use more nodes)")
        return idx

    @property
    def xy_ccw(self) -> bool:
        """Whether the (x, y) trace runs counterclockwise."""
        return _signed_area(self.xy) > 0

    def inward_normals(self) -> np.ndarray:
        """Unit normals pointing into the interior domain."""
        sign = 1.0 if self.xy_ccw else -1.0
        nx = -self.tangent[:, 1] * sign
        ny = self.tangent[:, 0] * sign
        return np.stack([nx, ny], axis=1)

    @property
    def diameter(self) -> float:
        lo = self.xy.min(axis=0)
        hi = self.xy.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    @property
    def centroid(self) -> np.ndarray:
        return self.xy.mean(axis=0)

    def rebuilt(self, nodes: int) -> "Contour":
        """Same geometric spec, different sampling resolution."""
        params = dict(self.params)
        params["nodes"] = int(nodes)
        return build_contour(self.basis, {"kind": self.kind, **params})

    def content_hash(self) -> str:
        h = hashlib.sha256()
        b = self.basis
        h.update(np.array([b.a1, b.b1, b.a2, b.b2], dtype=complex).tobytes())
        h.update(self.xy.astype(np.float64).tobytes())
        h.update(self.w_xy.astype(np.float64).tobytes())
        return h.hexdigest()

    # -- geometry queries --------------------------------------------------------

    def point_at(self, tq) -> np.ndarray:
        """Curve point(s) at parameter tq in [0, 1); shape (..., 2)."""
        tq = np.mod(np.asarray(tq, dtype=float), 1.0)
        if self.kind == "circle":
            c = np.asarray(self.params["center"], dtype=float)
            r = float(self.params["radius"])
            ang = 2.0 * np.pi * tq
            return np.stack([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang)], axis=-1)
        if self.kind == "ellipse":
            c = np.asarray(self.params["center"], dtype=float)
            a, b = (float(v) for v in self.params["semi_axes"])
            ang = 2.0 * np.pi * tq
            return np.stack([c[0] + a * np.cos(ang), c[1] + b * np.sin(ang)], axis=-1)
        if self.kind == "polygon":
            verts = np.asarray(self.params["vertices"], dtype=float)
            return _polyline_at(verts, tq)
        # explicit: parameter is uniform in node index
        idx = tq * self.n
        k = np.floor(idx).astype(int) % self.n
        frac = idx - np.floor(idx)
        nxt = (k + 1) % self.n
        return self.xy[k] + (self.xy[nxt] - self.xy[k]) * frac[..., None]

    def value_at(self, tq) -> DualComplex:
        p = self.point_at(tq)
        return self.basis.vector(p[..., 0], p[..., 1])

    def dist_to(self, x, y) -> np.ndarray:
        """Exact distance from point(s) to the sampled polyline, flattened.

        Targets go in chunks of PAIR_CHUNK (target, segment) pairs, each on
        (targets, segments) coordinate planes: project onto every segment,
        clip to it, keep the smallest squared distance, and take one square
        root per target.
        """
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        ax, ay = self.xy[:, 0], self.xy[:, 1]
        ex, ey = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
        inv_len2 = 1.0 / np.maximum(ex * ex + ey * ey, 1e-300)
        out = np.empty(x.size)
        chunk = max(1, PAIR_CHUNK // self.n)
        for s in range(0, x.size, chunk):
            dx = x[s:s + chunk, None] - ax
            dy = y[s:s + chunk, None] - ay
            t = np.clip((dx * ex + dy * ey) * inv_len2, 0.0, 1.0)
            dx -= t * ex
            dy -= t * ey
            out[s:s + chunk] = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
        return out

    def winding_number(self, x, y) -> np.ndarray:
        """Integer winding of the (x, y) trace about the point(s), flattened.

        Signed crossings (Sunday's rule): an edge crossing the point's
        horizontal line upward with the point on its left counts +1, one
        crossing downward with the point on its right counts -1.
        """
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        ax, ay = self.xy[:, 0], self.xy[:, 1]
        bx, by = np.roll(ax, -1), np.roll(ay, -1)
        out = np.empty(x.size, dtype=int)
        chunk = max(1, PAIR_CHUNK // self.n)
        for s in range(0, x.size, chunk):
            px = x[s:s + chunk, None]
            py = y[s:s + chunk, None]
            left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
            up = (ay <= py) & (by > py) & (left > 0)
            down = (ay > py) & (by <= py) & (left < 0)
            out[s:s + chunk] = up.sum(axis=1) - down.sum(axis=1)
        return out

    def interior_mask(self, x, y) -> np.ndarray:
        """1 interior, 0 exterior, -1 within the guard band of the curve."""
        code = (self.winding_number(x, y) != 0).astype(int)
        code[self.dist_to(x, y) < self.guard_band] = -1
        return code

    # -- upsampled geometry (smooth kinds) ----------------------------------------

    def refined_geometry(self):
        """(xy, dtau-weights) resampled at UPSAMPLE * N uniform parameters."""
        if "refined" in self._cache:
            return self._cache["refined"]
        m = self.n * UPSAMPLE
        tq = np.arange(m) / m
        if self.kind in ("circle", "ellipse"):
            xy = self.point_at(tq)
            d = _param_derivative(self.kind, self.params, tq) / m
        else:  # explicit: trigonometric interpolation of the trace
            fx = _trig_interp(self.xy[:, 0], m)
            fy = _trig_interp(self.xy[:, 1], m)
            xy = np.stack([fx, fy], axis=1)
            d = np.stack([_trig_derivative(self.xy[:, 0], m),
                          _trig_derivative(self.xy[:, 1], m)], axis=1) / m
        w = self.basis.vector(d[:, 0], d[:, 1])
        self._cache["refined"] = (xy, w)
        return self._cache["refined"]

    def upsample_samples(self, values: DualComplex) -> DualComplex:
        """Trigonometric interpolation of node samples onto the refined grid,
        along the last axis (a (K, N) stack gives (K, UPSAMPLE * N))."""
        m = self.n * UPSAMPLE
        return DualComplex(_trig_interp(np.asarray(values.c1, dtype=complex), m),
                           _trig_interp(np.asarray(values.c2, dtype=complex), m))


def interior_test(contour: Contour, point: PointE) -> str:
    """Classify a point: 'interior', 'exterior', or 'near-boundary'."""
    code = int(contour.interior_mask(point.x, point.y)[0])
    return {1: "interior", 0: "exterior", -1: "near-boundary"}[code]


def theta_measure(contour: Contour, node_index, eps):
    """Arc length of the curve within distance eps of the given node.

    Distances use the plane modulus |.|; portions are clipped per polyline
    segment by solving the quadratic |p(s) - tau|^2 = eps^2 exactly, then
    scaled to the arc-length table.  Node indices and radii broadcast
    against each other; scalar arguments give a float.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    k = np.asarray(node_index, dtype=int) % contour.n
    a = contour.xy
    b = np.roll(contour.xy, -1, axis=0)
    seg_arc = np.diff(np.append(contour.cum_len, contour.length))
    d = b - a
    f = a - contour.xy[k][..., None, :]               # (..., N, 2)
    A = (d * d).sum(axis=1)
    B = 2.0 * (f * d).sum(axis=-1)
    C = (f * f).sum(axis=-1) - (eps * eps)[..., None]
    disc = B * B - 4.0 * A * C
    ok = (disc > 0) & (A > 1e-300)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    s1 = np.clip((-B - sq) / (2.0 * np.maximum(A, 1e-300)), 0.0, 1.0)
    s2 = np.clip((-B + sq) / (2.0 * np.maximum(A, 1e-300)), 0.0, 1.0)
    frac = np.where(ok, s2 - s1, 0.0)
    frac[(A <= 1e-300) & (C <= 0)] = 1.0
    out = (frac * seg_arc).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


# -- builders -----------------------------------------------------------------


def circle_contour(basis: BasisE, center=(0.0, 0.0), radius: float = 1.0,
                   nodes: int = DEFAULT_NODES, clockwise: bool = False) -> Contour:
    if radius <= 0:
        raise EmptySpecError("circle radius must be positive")
    params = {"center": [float(center[0]), float(center[1])],
              "radius": float(radius), "nodes": int(nodes), "clockwise": False}
    if clockwise:
        warnings.warn("clockwise circle reversed to positive orientation")
    t = np.arange(nodes) / nodes
    xy = np.stack([center[0] + radius * np.cos(2 * np.pi * t),
                   center[1] + radius * np.sin(2 * np.pi * t)], axis=1)
    d = _param_derivative("circle", params, t)
    return _finalize("circle", basis, params, t, xy, d / nodes, d,
                     reversed_input=clockwise)


def ellipse_contour(basis: BasisE, center=(0.0, 0.0), semi_axes=(1.0, 1.0),
                    nodes: int = DEFAULT_NODES, clockwise: bool = False) -> Contour:
    a, b = float(semi_axes[0]), float(semi_axes[1])
    if a <= 0 or b <= 0:
        raise EmptySpecError("ellipse semi-axes must be positive")
    params = {"center": [float(center[0]), float(center[1])],
              "semi_axes": [a, b], "nodes": int(nodes), "clockwise": False}
    if clockwise:
        warnings.warn("clockwise ellipse reversed to positive orientation")
    t = np.arange(nodes) / nodes
    xy = np.stack([center[0] + a * np.cos(2 * np.pi * t),
                   center[1] + b * np.sin(2 * np.pi * t)], axis=1)
    d = _param_derivative("ellipse", params, t)
    return _finalize("ellipse", basis, params, t, xy, d / nodes, d,
                     reversed_input=clockwise)


def polygon_contour(basis: BasisE, vertices, nodes: int = DEFAULT_NODES,
                    check_simple: bool = True) -> Contour:
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise EmptySpecError("polygon needs at least 3 (x, y) vertices")
    if _signed_area_of(verts, basis) < 0:
        warnings.warn("polygon vertices reversed to positive orientation")
        verts = np.concatenate([verts[:1], verts[:0:-1]], axis=0)
        return polygon_contour(basis, verts, nodes=nodes, check_simple=check_simple)

    edges = np.roll(verts, -1, axis=0) - verts
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(edge_len <= 0):
        raise EmptySpecError("polygon has a zero-length edge")
    total = float(edge_len.sum())
    h = total / max(1, nodes)

    xs, ws, tangents, arcs, corner, panels = [], [], [], [], [], []
    arc0 = 0.0
    for e in range(len(verts)):
        n_e = int(np.ceil(edge_len[e] / h))
        n_panels = max(1, int(np.ceil(n_e / GAUSS_ORDER)))
        unit = edges[e] / edge_len[e]
        plen = edge_len[e] / n_panels
        for p in range(n_panels):
            a_pt = verts[e] + unit * (p * plen)
            pos_along = (p + (_GL_X + 1.0) / 2.0) * plen
            panels.append((len(arcs), a_pt, a_pt + unit * plen))
            for j in range(GAUSS_ORDER):
                xs.append(verts[e] + unit * pos_along[j])
                ws.append(unit * (_GL_W[j] * plen / 2.0))
                tangents.append(unit)
                arcs.append(arc0 + pos_along[j])
                dist_to_vertex = min(pos_along[j], edge_len[e] - pos_along[j])
                corner.append(dist_to_vertex < plen)
        arc0 += edge_len[e]

    xy = np.asarray(xs)
    w_xy = np.asarray(ws)
    arcs = np.asarray(arcs)
    params = {"vertices": verts.tolist(), "nodes": int(nodes),
              "check_simple": bool(check_simple)}
    c = Contour(kind="polygon", basis=basis, params=params,
                t=arcs / total, xy=xy, w_xy=w_xy,
                tangent=np.asarray(tangents),
                cum_len=arcs, length=total,
                max_spacing=float(np.hypot(*(np.roll(xy, -1, axis=0) - xy).T).max()),
                corner_mask=np.asarray(corner, dtype=bool),
                panels=panels)
    if check_simple:
        _check_simple(np.concatenate([verts, verts[:1]], axis=0))
    return c


def explicit_contour(basis: BasisE, points) -> Contour:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise EmptySpecError("explicit contour needs at least 3 (x, y) points")
    if _signed_area_of(pts, basis) < 0:
        warnings.warn("explicit node list reversed to positive orientation")
        pts = np.concatenate([pts[:1], pts[:0:-1]], axis=0)
    n = len(pts)
    t = np.arange(n) / n
    # periodic trapezoid rule: weights are the spectral derivative d tau / dt
    # over n, the same rule refined_geometry upsamples
    w_xy = np.stack([_trig_derivative(pts[:, 0], n),
                     _trig_derivative(pts[:, 1], n)], axis=1) / n
    tang = w_xy / np.maximum(np.hypot(w_xy[:, 0], w_xy[:, 1]), 1e-300)[:, None]
    chords = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
    cum = np.concatenate([[0.0], np.cumsum(chords)[:-1]])
    params = {"points": pts.tolist()}
    return Contour(kind="explicit", basis=basis, params=params, t=t, xy=pts,
                   w_xy=w_xy, tangent=tang, cum_len=cum,
                   length=float(chords.sum()),
                   max_spacing=float(chords.max()),
                   corner_mask=np.zeros(n, dtype=bool))


def build_contour(basis: BasisE, spec: dict) -> Contour:
    """Dispatch on a contour spec mapping (problem-file fragment)."""
    if not spec or "kind" not in spec:
        raise EmptySpecError("contour spec is missing its kind")
    kind = spec["kind"]
    nodes = int(spec.get("nodes", DEFAULT_NODES))
    if kind == "circle":
        return circle_contour(basis, center=spec.get("center", (0.0, 0.0)),
                              radius=spec.get("radius", 1.0), nodes=nodes,
                              clockwise=bool(spec.get("clockwise", False)))
    if kind == "ellipse":
        return ellipse_contour(basis, center=spec.get("center", (0.0, 0.0)),
                               semi_axes=spec.get("semi_axes", (1.0, 1.0)),
                               nodes=nodes,
                               clockwise=bool(spec.get("clockwise", False)))
    if kind == "polygon":
        if "vertices" not in spec:
            raise EmptySpecError("polygon spec needs vertices")
        return polygon_contour(basis, spec["vertices"], nodes=nodes,
                               check_simple=bool(spec.get("check_simple", True)))
    if kind == "explicit":
        if "points" not in spec:
            raise EmptySpecError("explicit spec needs points")
        return explicit_contour(basis, spec["points"])
    raise EmptySpecError(f"unknown contour kind {kind!r}")


# -- internals -----------------------------------------------------------------


def _param_derivative(kind: str, params: dict, t: np.ndarray) -> np.ndarray:
    ang = 2.0 * np.pi * np.asarray(t, dtype=float)
    if kind == "circle":
        r = float(params["radius"])
        return np.stack([-2 * np.pi * r * np.sin(ang),
                         2 * np.pi * r * np.cos(ang)], axis=-1)
    a, b = (float(v) for v in params["semi_axes"])
    return np.stack([-2 * np.pi * a * np.sin(ang),
                     2 * np.pi * b * np.cos(ang)], axis=-1)


def _finalize(kind, basis, params, t, xy, w_xy, deriv, reversed_input=False) -> Contour:
    # builders always emit the counterclockwise parametrization; a clockwise
    # spec is reported as reversed rather than resampled
    speed = np.hypot(deriv[:, 0], deriv[:, 1])
    n = len(t)
    length = float(speed.mean())  # periodic trapezoid of |d tau / dt|
    seg = (speed + np.roll(speed, -1)) / (2.0 * n)
    cum = np.concatenate([[0.0], np.cumsum(seg)[:-1]])
    tang = deriv / np.maximum(speed, 1e-300)[:, None]
    chords = np.hypot(*(np.roll(xy, -1, axis=0) - xy).T)
    return Contour(kind=kind, basis=basis, params=params, t=t, xy=xy, w_xy=w_xy,
                   tangent=tang, cum_len=cum, length=length,
                   max_spacing=float(chords.max()),
                   corner_mask=np.zeros(n, dtype=bool),
                   orientation_reversed=reversed_input)


def _signed_area(xy: np.ndarray) -> float:
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _signed_area_of(xy: np.ndarray, basis: BasisE) -> float:
    """Signed area of the complex-part trace; positive means the curve winds
    counterclockwise around the complex coordinate of interior points."""
    return _signed_area(xy) * np.sign(basis.det)


def _polyline_at(verts: np.ndarray, tq: np.ndarray) -> np.ndarray:
    closed = np.concatenate([verts, verts[:1]], axis=0)
    seg = np.diff(closed, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    total = cum[-1]
    s = np.atleast_1d(tq) * total
    k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
    frac = (s - cum[k]) / np.maximum(lens[k], 1e-300)
    out = closed[k] + seg[k] * frac[..., None]
    return out if np.ndim(tq) else out[0]


def _check_simple(closed: np.ndarray) -> None:
    """Reject properly self-intersecting closed polylines (O(N^2))."""
    a = closed[:-1]
    b = closed[1:]
    n = len(a)
    d = b - a

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) \
            - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0])

    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))  # closing edge adjacency
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if len(i_idx) == 0:
        return
    a1, b1 = a[i_idx], b[i_idx]
    a2, b2 = a[j_idx], b[j_idx]
    d1 = cross(a1, b1, a2)
    d2 = cross(a1, b1, b2)
    d3 = cross(a2, b2, a1)
    d4 = cross(a2, b2, b1)
    proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
    if np.any(proper):
        k = int(np.nonzero(proper)[0][0])
        raise SelfIntersectingError(
            f"segments {int(i_idx[k])} and {int(j_idx[k])} intersect")


def _trig_interp(f: np.ndarray, m: int) -> np.ndarray:
    """Zero-padded FFT interpolation of periodic uniform samples onto m
    points, along the last axis."""
    n = f.shape[-1]
    spec = np.fft.fft(f)
    out = np.zeros(f.shape[:-1] + (m,), dtype=complex)
    half = n // 2
    out[..., :half] = spec[..., :half]
    out[..., m - (n - half):] = spec[..., half:]
    if n % 2 == 0 and m > n:
        # split the Nyquist coefficient symmetrically
        out[..., half] = out[..., m - half] = spec[..., half] / 2.0
    vals = np.fft.ifft(out) * (m / n)
    if np.isrealobj(f):
        return vals.real
    return vals


def _trig_derivative(f: np.ndarray, m: int) -> np.ndarray:
    """Spectral derivative d/dt of periodic samples, on m points, along the
    last axis."""
    n = f.shape[-1]
    spec = np.fft.fft(f)
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    dspec = spec * (2j * np.pi * k)
    out = np.zeros(f.shape[:-1] + (m,), dtype=complex)
    half = n // 2
    out[..., :half] = dspec[..., :half]
    out[..., m - (n - half):] = dspec[..., half:]
    vals = np.fft.ifft(out) * (m / n)
    return vals.real if np.isrealobj(f) else vals
