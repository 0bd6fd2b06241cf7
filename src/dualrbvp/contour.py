"""Closed rectifiable Jordan curves in the plane E and their geometry.

A contour stores sampled nodes in (x, y) coordinates together with
quadrature weight vectors such that a closed-curve integral of samples
f_k is ``sum f_k * w_k`` after mapping weights through the basis.  There is
one rule per family:

* smooth curves (circle, ellipse, explicit) are uniform samples of a
  periodic curve, and everything about them is read from the nodes'
  trigonometric interpolant: the periodic trapezoid rule with weights
  dtau/dt / N from the spectral derivative, tangents, length and arc length
  from the spectral speed, and the points between the nodes (Trefethen &
  Weideman, SIAM Review 2014).  The kinds only place the nodes;
* polygons use composite 8-point Gauss-Legendre panels on each edge.
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
# (target, source) pairs per chunk of a distance query, kernel sum or pair
# pass: each temporary plane stays ~1 MB, so memory does not grow with the
# number of targets, and the planes are allocated once per call and reused
# by every chunk; kernel time measured flat from 2^12 to 2^17 pairs, slower
# above
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
        (``integral.boundary_values``) can approach the curve; it checks a
        64-node sample of them, all offsets in one pass."""
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
        if self.kind == "polygon":
            verts = np.asarray(self.params["vertices"], dtype=float)
            return _polyline_at(verts, tq)
        return _trig_eval(self.xy.T, tq)

    def value_at(self, tq) -> DualComplex:
        p = self.point_at(tq)
        return self.basis.vector(p[..., 0], p[..., 1])

    def dist_to(self, x, y) -> np.ndarray:
        """Exact distance from point(s) to the sampled polyline, flattened.

        Targets go in chunks of PAIR_CHUNK (target, segment) pairs, each on
        (targets, segments) coordinate planes, allocated once per call:
        project onto every segment, clip to it, keep the smallest squared
        distance, and take one square root per target.
        """
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        ax, ay = self.xy[:, 0], self.xy[:, 1]
        ex, ey = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
        inv_len2 = 1.0 / np.maximum(ex * ex + ey * ey, 1e-300)
        out = np.empty(x.size)
        chunk = max(1, min(x.size, PAIR_CHUNK // self.n))
        planes = np.empty((4, chunk, self.n))
        for s in range(0, x.size, chunk):
            dx, dy, t, tmp = planes[:, :min(chunk, x.size - s)]
            np.subtract(x[s:s + chunk, None], ax, out=dx)
            np.subtract(y[s:s + chunk, None], ay, out=dy)
            np.multiply(dx, ex, out=t)
            t += np.multiply(dy, ey, out=tmp)
            t *= inv_len2
            np.clip(t, 0.0, 1.0, out=t)
            dx -= np.multiply(t, ex, out=tmp)
            dy -= np.multiply(t, ey, out=tmp)
            np.multiply(dx, dx, out=t)
            t += np.multiply(dy, dy, out=tmp)
            np.sqrt(np.min(t, axis=1, out=out[s:s + chunk]),
                    out=out[s:s + chunk])
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
        return self._classify(x, y)[0]

    def _classify(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """The ``interior_mask`` codes and the distances they were read from,
        so that a caller evaluating an integral there measures each point
        once (``CauchyIntegralFn._at``)."""
        code = (self.winding_number(x, y) != 0).astype(int)
        dist = self.dist_to(x, y)
        code[dist < self.guard_band] = -1
        return code, dist

    # -- upsampled geometry (smooth kinds) ----------------------------------------

    def refined_geometry(self):
        """(xy, dtau-weights) of a smooth contour's trigonometric interpolant
        at UPSAMPLE * N uniform parameters."""
        if "refined" not in self._cache:
            m = self.n * UPSAMPLE
            xy = _trig_interp(self.xy.T, m).T
            d = _trig_derivative(self.xy.T, m) / m
            self._cache["refined"] = (xy, self.basis.vector(d[0], d[1]))
        return self._cache["refined"]

    def upsample_samples(self, values: DualComplex) -> DualComplex:
        """Trigonometric interpolation of node samples onto the refined grid,
        along the last axis (a (K, N) stack gives (K, UPSAMPLE * N))."""
        m = self.n * UPSAMPLE
        return DualComplex(_trig_interp(np.asarray(values.c1, dtype=complex), m),
                           _trig_interp(np.asarray(values.c2, dtype=complex), m))


def theta_measure(contour: Contour, node_index, eps):
    """Arc length of the curve within distance eps of the given node.

    Distances use the plane modulus |.|.  Each anchor sweeps its polyline
    segments once against the sorted radii: a segment whose farther
    endpoint lies within eps counts its whole arc (a histogram over the
    radii, then a cumulative sum), one whose closest point lies beyond eps
    counts nothing, and only a segment that eps cuts is clipped, by solving
    the quadratic |p(s) - tau|^2 = eps^2 exactly and scaling to the
    arc-length table.  Node indices and radii broadcast against each
    other; scalar arguments give a float.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    k = np.asarray(node_index, dtype=int) % contour.n
    anchors, k_at = np.unique(k.ravel(), return_inverse=True)
    radii, r_at = np.unique(eps.ravel(), return_inverse=True)
    table = _theta_table(contour, anchors, radii)
    out = table[k_at.reshape(k.shape), r_at.reshape(eps.shape)]
    return float(out) if out.ndim == 0 else out


# relative margin on squared distances within which a segment is clipped by
# the quadratic rather than counted whole or not at all, so that rounding in
# the sweep's comparisons cannot drop a near-tangent crossing
_SWEEP_MARGIN = 1e-9


def _theta_table(contour: Contour, anchors: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """theta at every anchor node and every radius, (anchors, radii), for
    sorted distinct radii."""
    a = contour.xy
    d = np.roll(a, -1, axis=0) - a
    seg_arc = np.diff(np.append(contour.cum_len, contour.length))
    A = (d * d).sum(axis=1)
    fx = a[:, 0] - a[anchors, 0][:, None]            # (anchors, N)
    fy = a[:, 1] - a[anchors, 1][:, None]
    B = 2.0 * (fx * d[:, 0] + fy * d[:, 1])
    far0 = fx * fx + fy * fy                         # squared, to the start
    bx, by = fx + d[:, 0], fy + d[:, 1]
    far = np.maximum(far0, bx * bx + by * by)
    s = np.clip(-0.5 * B / np.maximum(A, 1e-300), 0.0, 1.0)
    cx, cy = fx + s * d[:, 0], fy + s * d[:, 1]      # the closest point
    near = cx * cx + cy * cy
    r2 = radii * radii
    # radii below index lo miss the segment, those from hi on hold all of it
    lo = np.searchsorted(r2, near * (1.0 - _SWEEP_MARGIN), side="left")
    hi = np.searchsorted(r2, far * (1.0 + _SWEEP_MARGIN), side="left")
    u, n, m = len(anchors), contour.n, len(radii)
    rows = np.arange(u)[:, None] * (m + 1)
    whole = np.bincount((rows + hi).ravel(),
                        weights=np.broadcast_to(seg_arc, (u, n)).ravel(),
                        minlength=u * (m + 1)).reshape(u, m + 1)
    table = np.cumsum(whole, axis=1)[:, :m]
    # the (anchor, segment, radius) triples that a radius cuts
    count = (hi - lo).ravel()
    pair = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    r = lo.ravel()[pair] + np.arange(pair.size) - first[pair]
    seg = pair % n
    A, B = A[seg], B.ravel()[pair]
    C = far0.ravel()[pair] - r2[r]
    disc = B * B - 4.0 * A * C
    ok = (disc > 0) & (A > 1e-300)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    s1 = np.clip((-B - sq) / (2.0 * np.maximum(A, 1e-300)), 0.0, 1.0)
    s2 = np.clip((-B + sq) / (2.0 * np.maximum(A, 1e-300)), 0.0, 1.0)
    frac = np.where(ok, s2 - s1, 0.0)
    frac[(A <= 1e-300) & (C <= 0)] = 1.0
    table += np.bincount((pair // n) * m + r, weights=frac * seg_arc[seg],
                         minlength=u * m).reshape(u, m)
    return table


# -- builders -----------------------------------------------------------------


def circle_contour(basis: BasisE, center=(0.0, 0.0), radius: float = 1.0,
                   nodes: int = DEFAULT_NODES) -> Contour:
    if radius <= 0:
        raise EmptySpecError("circle radius must be positive")
    params = {"center": [float(center[0]), float(center[1])],
              "radius": float(radius), "nodes": int(nodes)}
    return _trapezoid_contour("circle", basis, params,
                              _ellipse_nodes(center, radius, radius, nodes))


def ellipse_contour(basis: BasisE, center=(0.0, 0.0), semi_axes=(1.0, 1.0),
                    nodes: int = DEFAULT_NODES) -> Contour:
    a, b = float(semi_axes[0]), float(semi_axes[1])
    if a <= 0 or b <= 0:
        raise EmptySpecError("ellipse semi-axes must be positive")
    params = {"center": [float(center[0]), float(center[1])],
              "semi_axes": [a, b], "nodes": int(nodes)}
    return _trapezoid_contour("ellipse", basis, params,
                              _ellipse_nodes(center, a, b, nodes))


def polygon_contour(basis: BasisE, vertices, nodes: int = DEFAULT_NODES) -> Contour:
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise EmptySpecError("polygon needs at least 3 (x, y) vertices")
    if _signed_area_of(verts, basis) < 0:
        warnings.warn("polygon vertices reversed to positive orientation")
        verts = np.concatenate([verts[:1], verts[:0:-1]], axis=0)
        return polygon_contour(basis, verts, nodes=nodes)

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
    params = {"vertices": verts.tolist(), "nodes": int(nodes)}
    c = Contour(kind="polygon", basis=basis, params=params,
                t=arcs / total, xy=xy, w_xy=w_xy,
                tangent=np.asarray(tangents),
                cum_len=arcs, length=total,
                max_spacing=float(np.hypot(*(np.roll(xy, -1, axis=0) - xy).T).max()),
                corner_mask=np.asarray(corner, dtype=bool),
                panels=panels)
    _check_simple(np.concatenate([verts, verts[:1]], axis=0))
    return c


def explicit_contour(basis: BasisE, points) -> Contour:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise EmptySpecError("explicit contour needs at least 3 (x, y) points")
    if _signed_area_of(pts, basis) < 0:
        warnings.warn("explicit node list reversed to positive orientation")
        pts = np.concatenate([pts[:1], pts[:0:-1]], axis=0)
    return _trapezoid_contour("explicit", basis, {"points": pts.tolist()}, pts)


def build_contour(basis: BasisE, spec: dict) -> Contour:
    """Dispatch on a contour spec mapping (problem-file fragment)."""
    if not spec or "kind" not in spec:
        raise EmptySpecError("contour spec is missing its kind")
    kind = spec["kind"]
    nodes = int(spec.get("nodes", DEFAULT_NODES))
    # other keys of older specs are ignored: "clockwise" (circles and
    # ellipses are always traced counterclockwise) and "check_simple" (a
    # polygon is always checked for self-intersection)
    if kind == "circle":
        return circle_contour(basis, center=spec.get("center", (0.0, 0.0)),
                              radius=spec.get("radius", 1.0), nodes=nodes)
    if kind == "ellipse":
        return ellipse_contour(basis, center=spec.get("center", (0.0, 0.0)),
                               semi_axes=spec.get("semi_axes", (1.0, 1.0)),
                               nodes=nodes)
    if kind == "polygon":
        if "vertices" not in spec:
            raise EmptySpecError("polygon spec needs vertices")
        return polygon_contour(basis, spec["vertices"], nodes=nodes)
    if kind == "explicit":
        if "points" not in spec:
            raise EmptySpecError("explicit spec needs points")
        return explicit_contour(basis, spec["points"])
    raise EmptySpecError(f"unknown contour kind {kind!r}")


# -- internals -----------------------------------------------------------------


def _ellipse_nodes(center, a: float, b: float, nodes: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(nodes) / nodes
    return np.stack([center[0] + a * np.cos(ang), center[1] + b * np.sin(ang)],
                    axis=1)


def _trapezoid_contour(kind: str, basis: BasisE, params: dict,
                       xy: np.ndarray) -> Contour:
    """A smooth contour from its nodes, taken as uniform samples of a
    periodic curve: trapezoid weights dtau/dt / N from the spectral
    derivative, tangents, length and arc length from its speed."""
    n = len(xy)
    if n < 3:
        raise EmptySpecError("a smooth contour needs at least 3 nodes")
    deriv = _trig_derivative(xy.T, n).T
    speed = np.hypot(deriv[:, 0], deriv[:, 1])
    seg = (speed + np.roll(speed, -1)) / (2.0 * n)
    chords = np.hypot(*(np.roll(xy, -1, axis=0) - xy).T)
    return Contour(kind=kind, basis=basis, params=params, t=np.arange(n) / n,
                   xy=xy, w_xy=deriv / n,
                   tangent=deriv / np.maximum(speed, 1e-300)[:, None],
                   cum_len=np.concatenate([[0.0], np.cumsum(seg)[:-1]]),
                   length=float(speed.mean()),
                   max_spacing=float(chords.max()),
                   corner_mask=np.zeros(n, dtype=bool))


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
    # the first ceil(n/2) coefficients are the modes 0, 1, ...; the rest are
    # the negative modes, the Nyquist mode first when n is even
    half = n - n // 2
    out[..., :half] = spec[..., :half]
    out[..., m - (n - half):] = spec[..., half:]
    if n % 2 == 0 and m > n:
        # split the Nyquist coefficient symmetrically
        out[..., half] = out[..., m - half] = spec[..., half] / 2.0
    vals = np.fft.ifft(out) * (m / n)
    if np.isrealobj(f):
        return vals.real
    return vals


def _trig_eval(f: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of periodic uniform samples, a (N,) or
    (K, N) array ``f``, at any parameters ``tq``, shaped
    ``tq.shape + f.shape[:-1]``.  The Nyquist mode of an even count is split
    symmetrically, so at uniform parameters this is ``_trig_interp``; it
    costs O(N) per parameter, where ``_trig_interp`` costs O(log N)."""
    n = f.shape[-1]
    tq = np.asarray(tq, dtype=float)
    k = np.fft.fftfreq(n, d=1.0 / n)
    waves = np.exp(2j * np.pi * tq[..., None] * k)
    if n % 2 == 0:
        waves[..., n // 2] = np.cos(np.pi * n * tq)
    vals = waves @ (np.fft.fft(f) / n).T
    return vals.real if np.isrealobj(f) else vals


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
    half = n - n // 2
    out[..., :half] = dspec[..., :half]
    out[..., m - (n - half):] = dspec[..., half:]
    vals = np.fft.ifft(out) * (m / n)
    return vals.real if np.isrealobj(f) else vals
