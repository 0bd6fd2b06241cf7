"""Contour quadrature, Cauchy-type integrals, and boundary limits.

The Cauchy-type integral of a density psi on a contour gamma is

    psi~(zeta) = (1 / (2 pi i)) * sum_k  psi(tau_k) (tau_k - zeta)^(-1) dtau_k,

a function of zeta that is monogenic off the curve and vanishes at infinity.
Off-curve evaluation uses the contour's native quadrature.  A point at
distance d inside the guard band takes the refined rule of order m, the
smallest m in REFINEMENTS = (2, 4, 8) with m d at least the guard band:
the trapezoid rule's near-field error is about exp(-2 pi m d / h) for
sources spaced h / m (Barnett, SIAM J. Sci. Comput. 2014), so m d is what
fixes it, and every near point keeps the ratio the native rule has at the
guard band.  Each rule is built on first use, once per integral and m, by
one function per family, each (contour, density) -> (tau, dtau, density):
the trigonometric interpolant at mN parameters on smooth and explicit
contours (``_refined_trig_integral`` builds the 8N rule, and the 2N and 4N
rules are its every 4th and 2nd node with 4 and 2 times the weights), and
2m Gauss sub-panels per panel on polygons (``_refined_panel_integral``).

On polygons the refinement is local, as in Helsing & Ojala (J. Comput.
Phys. 2008): a near target takes one native sum over all N nodes plus, for
each panel whose Bernstein ellipse of parameter NEAR_PANEL_RHO holds it,
the panel's sub-panel sum less its native 8-node one (``_panel_correction``,
one batched product over (target, panel) rows per band).  Every other panel
is as accurate there as a sub-panel is at the inner edge of its band, so the
sum is the rule with every panel split, to ~2e-11 x scale on smooth
densities, at N + W (16m + 8) sources for W near panels instead of 2mN (on
the 128-node square W is 2 or 3).  Smooth kinds keep the global rule: their
refined rules are trigonometric resamplings of the whole curve, and a
windowed trapezoid correction would leave O(h^2) errors at its ends.

Only the offset check evaluates an integral near the curve: solutions read
their off-curve values from their node tables (``rbvp``), and ``verify``'s
probes, a guard band or more from the curve, are native kernel sums
(``rbvp.trace_defects``).

Every rule is one kernel sum.  A density may be a (K, N) stack of sample
sets, such as the exponent ln(tau^(-kappa) G) and psi = g/X+ of one
solution, and the sum over (target, source) pairs is then one or two
matrix products shared by all K: with u = tau - z,
(tau - z)^(-1) = 1/u1 - (u2/u1^2) rho, so one product of the pairwise
1/u1 with the (N, 2K) block of weighted densities gives the complex part
and the first term of the rho part, and the pairwise u2/u1^2 takes a
second product only when tau or z has a rho part (not on the classical
basis).  The pairwise u1 and u2 are themselves products,
[-z, 1] [1; tau], which give the bits of the subtraction faster.  Targets
go in chunks of a fixed number of pairs, so memory does not grow with the
number of targets, and rows that are identically zero are left out of the
products.

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
all offsets in one pass.  ``rbvp.residual_report`` calls it once per side
on one integral and reports its gap to the node limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DualComplex, PointE, dc_mul, dc_norm
from .contour import (
    GAUSS_ORDER,
    PAIR_CHUNK,
    Contour,
    _GL_W,
    _GL_X,
    _trig_resample,
)
from .errors import TooCloseToBoundaryError
from . import expr as _expr

N_OFFSETS = 5
CHECK_NODES = 64
OFFSET_SPACING_FACTOR = 8.0
# the orders of the near rules (m times the nodes on smooth kinds, 2m
# sub-panels per panel on polygons); a point at distance d inside the guard
# band takes the smallest m with m d >= band, and no point nearer the curve
# than guard_band / UPSAMPLE is evaluated
UPSAMPLE = 8
REFINEMENTS = (2, 4, UPSAMPLE)
# the rule of each distance band, nearest first: order m = _BAND_RULES[k]
# serves guard_band / m <= d < guard_band / _BAND_RULES[k + 1], and order
# 1, the native rule, every d >= guard_band
_BAND_RULES = REFINEMENTS[::-1] + (1,)
# On polygons a near target refines only the panels whose Bernstein ellipse
# of parameter NEAR_PANEL_RHO (foci at the panel's ends) holds it: outside
# it a panel's 8-node Gauss rule errs by about NEAR_PANEL_RHO^-16 ~ 2e-11.
# That is the parameter of a refined sub-panel at the inner edge of its
# band: a panel of half-length L has a node gap 0.367 L <= h, so its
# sub-panels, of half-length L / 2m, lie 3h/m >= 2.2 half-lengths from
# every point of the band, and r = 2.2 puts a point beside the middle on
# the ellipse of parameter r + (r^2 + 1)^(1/2) = 4.6.
NEAR_PANEL_RHO = 4.6

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
    the (N, 2L) block [a | b] of a = d1 w1 and b = d1 w2 + d2 w1 for those L
    rows times the weights.  A zero row has a zero kernel sum, so it is left
    out of the matrix products: a vanishing exponent or psi in a stack costs
    nothing."""
    w1, w2 = np.asarray(w.c1), np.asarray(w.c2)
    d1, d2 = np.asarray(dens.c1), np.asarray(dens.c2)
    live = np.flatnonzero(d1.any(axis=1) | d2.any(axis=1))
    if live.size < len(d1):
        d1, d2 = d1[live], d2[live]
    return live, np.concatenate([d1 * w1, d1 * w2 + d2 * w1]).T


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
                z1: np.ndarray, z2: np.ndarray,
                drop: np.ndarray | None = None) -> DualComplex:
    """sum_k dens_k (tau_k - z)^(-1) w_k / (2 pi i) at every target z.

    ``dens`` is a (K, N) stack of densities; the result is (K, M) for M
    targets.  Per (target, source) pair only inv_u = 1/(tau1 - z1) and
    q = (tau2 - z2) inv_u^2 are formed, because
    (tau - z)^(-1) = inv_u - (tau2 - z2) inv_u^2 rho; with the (N, L) blocks
    a = d1 w1 and b = d1 w2 + d2 w1 of the live rows, one product
    inv_u @ [a | b] gives the complex part and the first term of the rho
    part, and q @ a is subtracted from the latter.  When tau2 and z2 are
    zero, as on the classical basis, q is zero and neither it nor its
    product is formed.

    The pair planes tau1 - z1 and tau2 - z2 are the products
    [-z, 1] @ [1; tau] of an (M, 2) and a (2, N) matrix: each entry is
    (-z) 1 + 1 tau, one rounded subtraction, since the other terms are
    exact, so the planes are bit for bit those of a broadcast subtraction,
    and the product fills them in ~1.0 ns per complex pair against ~1.7 ns
    (one BLAS thread, 2-vCPU x86-64 host).  Targets go in chunks of
    PAIR_CHUNK pairs, on planes allocated once per call.  ``drop`` gives,
    for targets that are nodes, the index of the source each one leaves
    out: its pair's factors are zeroed, so it divides by nothing.
    """
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    live, ab = _weighted_blocks(w, dens)
    n_live = live.size
    out = np.empty((z1.size, 2 * n_live), dtype=complex)
    m = z1.size if n_live else 0
    chunk = max(1, min(m, PAIR_CHUNK // t1.size))
    rho = bool(np.any(t2) or np.any(z2))
    # [1; tau] of each part, and the [-z, 1] rows of one chunk of targets
    sources = np.ones((1 + rho, 2, t1.size), dtype=complex)
    sources[0, 1] = t1
    targets = np.ones((1 + rho, chunk, 2), dtype=complex)
    if rho:
        sources[1, 1] = t2
    planes = np.empty((1 + rho, chunk, t1.size), dtype=complex)
    for s in range(0, m, chunk):
        rows = min(chunk, m - s)
        np.negative(z1[s:s + rows], out=targets[0, :rows, 0])
        inv_u = np.matmul(targets[0, :rows], sources[0], out=planes[0, :rows])
        if drop is not None:
            pair = (np.arange(rows), drop[s:s + rows])
            inv_u[pair] = 1.0
        np.divide(1.0, inv_u, out=inv_u)
        if drop is not None:
            inv_u[pair] = 0.0
        np.matmul(inv_u, ab, out=out[s:s + rows])
        if rho:
            np.negative(z2[s:s + rows], out=targets[1, :rows, 0])
            q = np.matmul(targets[1, :rows], sources[1], out=planes[1, :rows])
            q *= inv_u
            q *= inv_u
            out[s:s + rows, n_live:] -= q @ ab[:, :n_live]
    return _scatter(live, len(dens.c1), out[:, :n_live], out[:, n_live:])


# Legendre differentiation on the Gauss nodes of [-1, 1], one matrix for
# every panel: (f at the nodes) -> (df/dx at the nodes), exact to degree 7
_GL_DIFF = (np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 2)
            @ np.polynomial.legendre.legder(np.eye(GAUSS_ORDER))
            @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 1)))


def _panel_nodes(contour: Contour) -> np.ndarray:
    """(panels, GAUSS_ORDER) node indices of a polygon's Gauss panels, which
    are consecutive blocks of nodes."""
    return np.arange(contour.n).reshape(-1, GAUSS_ORDER)


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
        return (_trig_resample(d1, n, derivative=True) / n,
                _trig_resample(d2, n, derivative=True) / n)
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
    tau = contour.values()
    v = _kernel_sum(tau, contour.dtau(), DualComplex(
        np.vstack([d1, np.ones((1, contour.n))]),
        np.vstack([d2, np.zeros((1, contour.n))])),
        tau.c1, tau.c2, drop=np.arange(contour.n))
    ones_sum = DualComplex(v.c1[k], v.c2[k])
    held = dc_mul(DualComplex(d1, d2), ones_sum)
    diag1, diag2 = _diagonal_term(contour, d1, d2)
    scale = 1.0 / (2j * np.pi)
    s1 = v.c1[:k] - held.c1 + diag1 * scale
    s2 = v.c2[:k] - held.c2 + diag2 * scale
    return DualComplex(s1.reshape(shape), s2.reshape(shape))


# -- Cauchy-type integral ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundedPoints(PointE):
    """Points with a lower and an upper bound on each one's distance to the
    polyline, both shaped like the coordinates and both holding up to
    rounding, so that ``CauchyIntegralFn`` need not measure the points
    the bounds settle."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(eq=False)
class CauchyIntegralFn:
    """Evaluable Cauchy-type integral of a fixed density on a fixed contour.

    ``density`` is one sample set, shape (N,), or a stack of K sample sets,
    shape (K, N).  A stack is evaluated with one distance query and one
    kernel pass per distance band per call, and its values are shaped
    (K, *points).
    """

    contour: Contour
    density: DualComplex
    _cache: dict = field(default_factory=dict, repr=False)

    def min_eval_distance(self) -> float:
        """The floor guard_band / UPSAMPLE: the nearest to the curve a point
        is evaluated, by the rule of order UPSAMPLE, the one with the most
        sources."""
        return self.contour.guard_band / UPSAMPLE

    def __call__(self, points: PointE) -> DualComplex:
        """The integral at ``points``: the native rule at least a guard band
        from the curve, the refined rule of the order of a point's distance
        band nearer (module docstring), and an error within
        ``min_eval_distance``.  A point's distance to the curve is measured
        only where the bounds of ``BoundedPoints`` straddle a band edge, the
        floor, a quarter, a half or the whole of the guard band; plain
        points have none, so every one is measured.  On smooth kinds each
        band present is one kernel sum; on polygons every point takes one
        native kernel sum, and each near band present one panel correction
        of its points' near panels."""
        c = self.contour
        shape = np.shape(points.x)
        x = np.asarray(points.x, dtype=float).ravel()
        y = np.asarray(points.y, dtype=float).ravel()
        z = c.basis.vector(x, y)
        # a point's band is the number of edges at or below its distance:
        # 0 within the floor, else the band of _BAND_RULES[band - 1]
        edges = c.guard_band / np.array(_BAND_RULES, dtype=float)
        if isinstance(points, BoundedPoints):
            band = np.searchsorted(edges, np.ravel(points.lower), side="right")
            measure = band != np.searchsorted(edges, np.ravel(points.upper),
                                              side="right")
        else:
            band = np.zeros(x.size, dtype=np.intp)
            measure = np.ones(x.size, dtype=bool)
        if measure.any():
            band[measure] = np.searchsorted(
                edges, c.dist_to(x[measure], y[measure]), side="right")
        if np.any(band == 0):
            raise TooCloseToBoundaryError(
                f"evaluation within {self.min_eval_distance():.3e} of the contour")
        stacked = np.ndim(self.density.c1) == 2
        dens = DualComplex(np.atleast_2d(self.density.c1),
                           np.atleast_2d(self.density.c2))
        if c.kind == "polygon":
            # one native sum for every target, and each near band's panel
            # correction added to its targets
            v = _kernel_sum(c.values(), c.dtau(), dens, z.c1, z.c2)
            out1, out2 = v.c1, v.c2
            near = np.flatnonzero(band < len(_BAND_RULES))
            panels = _near_panels(c, x[near], y[near])
            for k, m in enumerate(REFINEMENTS[::-1], start=1):
                rows = band[near] == k
                if rows.any():
                    at = near[rows]
                    v = _panel_correction(self._panel_blocks(dens, m),
                                          panels[rows], z.c1[at], z.c2[at])
                    out1[:, at] += v.c1
                    out2[:, at] += v.c2
        else:
            out1 = np.empty((len(dens.c1), x.size), dtype=complex)
            out2 = np.empty_like(out1)
            for k, m in enumerate(_BAND_RULES, start=1):
                at = band == k
                if at.any():
                    v = _kernel_sum(*self._rule(dens, m), z.c1[at], z.c2[at])
                    out1[:, at], out2[:, at] = v.c1, v.c2
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

    def _rule(self, dens: DualComplex, m: int
              ) -> tuple[DualComplex, DualComplex, DualComplex]:
        """(tau, dtau, density) of the rule of order m of a smooth-kind
        integral for all stacked densities at once: the native rule at
        m = 1, else every (UPSAMPLE / m)-th node of the order-UPSAMPLE rule,
        with the weights scaled by UPSAMPLE / m, so one trigonometric
        resampling, built once per integral, serves every m."""
        c = self.contour
        if m == 1:
            return c.values(), c.dtau(), dens
        rules = self._cache.setdefault("refined", {})
        if m not in rules:
            if UPSAMPLE not in rules:
                rules[UPSAMPLE] = _refined_trig_integral(c, dens)
            tau, w, d = rules[UPSAMPLE]
            step = UPSAMPLE // m
            rules[m] = (DualComplex(tau.c1[::step], tau.c2[::step]),
                        DualComplex(w.c1[::step] * step, w.c2[::step] * step),
                        DualComplex(d.c1[..., ::step], d.c2[..., ::step]))
        return rules[m]

    def _panel_blocks(self, dens: DualComplex, m: int):
        """The sources of a polygon's order-m correction, built once per
        integral and m: for each panel, the 16m nodes of its 2m Gauss
        sub-panels (``_refined_panel_integral``) and then its 8 native
        nodes with negated weights, so that a panel's block sums to its
        refined sum less its native one.  Returned as (tau1, tau2, live,
        ab, K): tau1 and tau2 are (panels, 16m + 8), and ab is the
        (panels, 16m + 8, 2L) block [a | b] of ``_weighted_blocks`` for the
        L live rows of the K densities."""
        blocks = self._cache.setdefault("panel blocks", {})
        if m not in blocks:
            c = self.contour
            idx = _panel_nodes(c)
            k = len(dens.c1)

            def joined(fine, native):
                fine = np.asarray(fine)
                return np.concatenate(
                    [fine.reshape(fine.shape[:-1] + idx.shape[:1] + (-1,)),
                     np.asarray(native)[..., idx]], axis=-1)

            tau, w, d = _refined_panel_integral(c, dens, 2 * m)
            t1, t2 = joined(tau.c1, c.values().c1), joined(tau.c2, c.values().c2)
            live, ab = _weighted_blocks(
                DualComplex(joined(w.c1, -c.dtau().c1).ravel(),
                            joined(w.c2, -c.dtau().c2).ravel()),
                DualComplex(joined(d.c1, dens.c1).reshape(k, -1),
                            joined(d.c2, dens.c2).reshape(k, -1)))
            blocks[m] = (t1, t2, live, ab.reshape(t1.shape + (-1,)), k)
        return blocks[m]


# refined rules, one per family ---------------------------------------------------

def _refined_trig_integral(contour: Contour, dens: DualComplex
                           ) -> tuple[DualComplex, DualComplex, DualComplex]:
    """Refined rule of a smooth-contour integral: (tau, dtau, density) of
    the trigonometric interpolants of the nodes and of the density at
    UPSAMPLE * N uniform parameters, with the trapezoid weights of the
    spectral derivative; a (K, N) density stack is carried over along its
    last axis.  The rules with fewer sources are its every 2nd, 4th, ...
    node (``CauchyIntegralFn._rule``)."""
    m = contour.n * UPSAMPLE
    xy = _trig_resample(contour.xy.T, m)
    d = _trig_resample(contour.xy.T, m, derivative=True) / m
    return (contour.basis.vector(xy[0], xy[1]), contour.basis.vector(d[0], d[1]),
            DualComplex(_trig_resample(np.asarray(dens.c1, dtype=complex), m),
                        _trig_resample(np.asarray(dens.c2, dtype=complex), m)))


def _sub_panel_rule(split: int):
    """Each 8-node Gauss panel split into ``split`` equal sub-panels with the
    same Gauss rule: the sub-panel nodes on [0, 1], their weights, and the
    Lagrange matrix that moves node samples onto them."""
    s = ((np.arange(split)[:, None] + (_GL_X[None, :] + 1.0) / 2.0)
         / split).ravel()
    w = np.tile(_GL_W, split) / (2.0 * split)
    lagrange = (np.polynomial.legendre.legvander(2.0 * s - 1.0, GAUSS_ORDER - 1)
                @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GAUSS_ORDER - 1)))
    return s, w, lagrange


# one table per split the near rules use: 2m sub-panels for order m
_SUB_PANEL_RULES = {2 * m: _sub_panel_rule(2 * m) for m in REFINEMENTS}


def _refined_panel_integral(contour: Contour, dens: DualComplex, split: int
                            ) -> tuple[DualComplex, DualComplex, DualComplex]:
    """Refined rule of a polygon integral: (tau, dtau, density) at the nodes
    of ``split`` Gauss sub-panels per panel, for every panel at once and
    panel by panel, so ``split`` times the contour's sources; a (K, N)
    density stack is carried over along its last axis.  Near-curve values
    take it apart by panel (``CauchyIntegralFn._panel_blocks``)."""
    sub_s, sub_w, lagrange = _SUB_PANEL_RULES[split]
    p0 = np.array([p[0] for p in contour.panels])
    edge = np.array([p[1] for p in contour.panels]) - p0
    pts = (p0[:, None, :] + sub_s[None, :, None] * edge[:, None, :]).reshape(-1, 2)
    w = (sub_w[None, :, None] * edge[:, None, :]).reshape(-1, 2)
    idx = _panel_nodes(contour)
    lead = np.shape(dens.c1)[:-1]
    d1 = (np.asarray(dens.c1)[..., idx] @ lagrange.T).reshape(lead + (-1,))
    d2 = (np.asarray(dens.c2)[..., idx] @ lagrange.T).reshape(lead + (-1,))
    return (contour.basis.vector(pts[:, 0], pts[:, 1]),
            contour.basis.vector(w[:, 0], w[:, 1]), DualComplex(d1, d2))


def _near_panels(contour: Contour, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(M, panels) mask of the panels of a polygon whose Bernstein ellipse
    of parameter NEAR_PANEL_RHO holds the point (x, y): in the coordinates
    (u, v) of the panel, its ends at u = -1 and u = 1, the ellipse with
    semi-axes (rho + 1/rho) / 2 and (rho - 1/rho) / 2.  Points go in chunks
    of PAIR_CHUNK (point, panel) pairs, on planes allocated once per
    call."""
    p0 = np.array([p[0] for p in contour.panels])
    half = (np.array([p[1] for p in contour.panels]) - p0) / 2.0
    mid = p0 + half
    # (u, v) = (d . half, d x half) / |half|^2 for the offset d from the
    # middle, each over its semi-axis
    rho = NEAR_PANEL_RHO
    scale = 1.0 / np.einsum("ij,ij->i", half, half)
    su = scale / ((rho + 1.0 / rho) / 2.0)
    sv = scale / ((rho - 1.0 / rho) / 2.0)
    near = np.empty((x.size, len(p0)), dtype=bool)
    chunk = max(1, min(x.size, PAIR_CHUNK // len(p0)))
    planes = np.empty((4, chunk, len(p0)))
    for s in range(0, x.size, chunk):
        dx, dy, u, v = planes[:, :min(chunk, x.size - s)]
        np.subtract(x[s:s + chunk, None], mid[:, 0], out=dx)
        np.subtract(y[s:s + chunk, None], mid[:, 1], out=dy)
        np.multiply(dx, half[:, 0], out=u)
        u += np.multiply(dy, half[:, 1], out=v)
        u *= su
        np.multiply(dx, half[:, 1], out=v)
        v -= np.multiply(dy, half[:, 0], out=dx)
        v *= sv
        np.multiply(u, u, out=u)
        u += np.multiply(v, v, out=v)
        np.less(u, 1.0, out=near[s:s + chunk])
    return near


def _panel_correction(blocks, near: np.ndarray, z1: np.ndarray,
                      z2: np.ndarray) -> DualComplex:
    """sum over each target's near panels of the refined sub-panel sum less
    the native one, for the (K, M) targets z; ``blocks`` are
    ``CauchyIntegralFn._panel_blocks`` and ``near`` is ``_near_panels``.

    Every (target, near panel) pair is one row: its panel's sources and
    [a | b] rows are gathered, one batched product gives each row's sum, as
    in ``_kernel_sum``, and each target adds up its rows.  Targets go in
    chunks whose gathered [a | b] rows hold at most PAIR_CHUNK entries, on
    planes allocated once per call."""
    t1, t2, live, ab, k = blocks
    m = len(near)
    out1 = np.zeros((k, m), dtype=complex)
    out2 = np.zeros_like(out1)
    sources, cols = ab.shape[1:]
    n_live = cols // 2
    width = int(near.sum(axis=1).max(initial=0))
    if not (n_live and width):
        return DualComplex(out1, out2)
    rho = bool(np.any(t2) or np.any(z2))
    chunk = max(1, min(m, PAIR_CHUNK // (width * sources * cols)))
    planes = np.empty((1 + rho, chunk * width, 1, sources), dtype=complex)
    gathered = np.empty((chunk * width, sources, cols), dtype=complex)
    scale = 1.0 / (2j * np.pi)
    for s in range(0, m, chunk):
        target, panel = np.nonzero(near[s:s + chunk])
        rows = target.size
        # every index is in range, and "clip" lets take write straight
        # into the planes instead of through a buffer
        inv_u = np.take(t1[:, None], panel, axis=0, out=planes[0, :rows],
                        mode="clip")
        inv_u -= z1[s + target, None, None]
        np.divide(1.0, inv_u, out=inv_u)
        block = np.take(ab, panel, axis=0, out=gathered[:rows], mode="clip")
        v = np.matmul(inv_u, block)[:, 0]
        if rho:
            q = np.take(t2[:, None], panel, axis=0, out=planes[1, :rows],
                        mode="clip")
            q -= z2[s + target, None, None]
            q *= inv_u
            q *= inv_u
            v[:, n_live:] -= np.matmul(q, block)[:, 0, :n_live]
        # the rows of a target are consecutive
        first = np.flatnonzero(np.diff(target, prepend=-1))
        v = np.add.reduceat(v, first, axis=0) * scale
        at = np.ix_(live, s + target[first])
        out1[at] = v[:, :n_live].T
        out2[at] = v[:, n_live:].T
    return DualComplex(out1, out2)


# -- boundary limits --------------------------------------------------------------

@dataclass
class BoundaryTable:
    """One-sided boundary values at the contour nodes ``indices``, with a
    per-node error estimate (NaN where none was taken)."""

    indices: np.ndarray
    values: DualComplex
    error_estimates: np.ndarray


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
    A node is left out of ``indices`` unless each of its approach points
    lies on its side, at least ``CauchyIntegralFn.min_eval_distance`` from
    the curve (``_clear_of_curve``): on a thin or coarse curve the offsets
    can cross it.  All J x M points go to the evaluator in one call, so it
    must accept a (J, M) array of points and return (J, M) values, or
    (K, J, M) for a (K, N) stacked integral; the table holds (K, M).  The
    points are ``BoundedPoints``: the offset bounds each one's distance to
    the curve from above, and ``_clear_of_curve``'s disc from below, so a
    ``CauchyIntegralFn`` measures only those whose bounds straddle one of
    its band edges.  With offsets of 8, 4, 2, 1 and 1/2 node spacings and a
    guard band of 3 spacings, the last three rows take the rules of order
    2, 4 and 8.
    ``rbvp.residual_report`` calls it once per side, as the check of a
    solution's node limits.  ``error_estimates``
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
    keep, lower = _clear_of_curve(contour, p, side == "+")
    indices, p = indices[keep], p[:, keep]
    # each node is a vertex of the polyline, so an approach point's offset
    # bounds its distance from above
    upper = np.broadcast_to(ds[:, None] + contour.rounding_slack(ds[0]),
                            p.shape[:2])
    v = evaluator(BoundedPoints(p[..., 0], p[..., 1], contour.basis,
                                lower[:, keep], upper))
    limit, err = _neville_to_zero(ds, np.moveaxis(np.asarray(v.c1), -2, 0),
                                  np.moveaxis(np.asarray(v.c2), -2, 0))
    return BoundaryTable(indices=indices, values=limit, error_estimates=err)


def _clear_of_curve(contour: Contour, p: np.ndarray, inside: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Which columns of the (J, M, 2) approach points ``p``, farthest first,
    lie wholly inside the curve when ``inside``, or outside it, and at least
    the evaluator's floor guard_band / UPSAMPLE from it; and a (J, M) lower
    bound on each point's distance to the polyline.

    The open disc about a column's farthest point, with that point's
    distance to the polyline as radius, misses the polyline: every point in
    it winds as the centre does, and is at least the radius less its
    distance to the centre from the curve.  Only points that this bound
    leaves within the floor plus a rounding slack are measured themselves,
    so the answer is that of a winding number and distance at every point.
    The lower bound is the measured distance there, and the disc's bound
    less the slack elsewhere.
    """
    floor = contour.guard_band / UPSAMPLE
    slack = contour.rounding_slack(floor)
    far = p[0]
    dist = (contour.dist_to(far[:, 0], far[:, 1])
            - np.hypot(p[..., 0] - far[:, 0], p[..., 1] - far[:, 1]))
    code = np.broadcast_to(contour.winding_number(far[:, 0], far[:, 1]) != 0,
                           dist.shape).copy()
    scan = dist < floor + slack
    lower = dist - slack
    if scan.any():
        q = p[scan]
        code[scan] = contour.winding_number(q[:, 0], q[:, 1]) != 0
        dist[scan] = lower[scan] = contour.dist_to(q[:, 0], q[:, 1])
    return ((code == inside) & (dist >= floor)).all(axis=0), lower


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
