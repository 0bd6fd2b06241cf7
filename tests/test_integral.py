import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrbvp import (
    DualComplex,
    circle_contour,
    compute_index,
    continuous_log,
    contour_integral,
    dc_inv,
    dc_mul,
    dc_norm,
    dc_sub,
    ellipse_contour,
    evaluate,
    explicit_contour,
    jump_check,
    parse,
    polygon_contour,
)
from dualrbvp.algebra import PointE
from dualrbvp.contour import GAUSS_ORDER, PAIR_CHUNK, Contour, _trig_resample
from dualrbvp.integral import (
    CHECK_NODES,
    N_OFFSETS,
    NEAR_PANEL_RHO,
    OFFSET_SPACING_FACTOR,
    BoundedPoints,
    CauchyIntegralFn,
    _kernel_sum,
    _near_panels,
    _panel_correction,
    _refined_panel_integral,
    _scatter,
    _weighted_blocks,
    boundary_samples,
    boundary_values,
)
from dualrbvp.rbvp import RBVPProblem, residual_report, solve_auto
from dualrbvp.errors import (
    ClosureFailureError,
    CornerNodeError,
    NotInvertibleOnContourError,
    TooCloseToBoundaryError,
)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
TURN128 = 2 * np.pi * np.arange(128) / 128


def norm_of(c):
    return float(np.max(dc_norm(c)))


def sawtooth_density(contour, modes=6, rho_modes=4):
    """Smooth truncated-series surrogate for rough-but-continuous data."""
    t = contour.t
    g1 = sum(np.sin(2 * np.pi * k * t) / k ** 2 for k in range(1, modes + 1)) + 0.5
    g2 = 0.3 * sum(np.cos(2 * np.pi * k * t) / k ** 2 for k in range(1, rho_modes + 1))
    return DualComplex(g1.astype(complex), g2.astype(complex))


class TestContourIntegral:
    def test_constant_telescopes_exactly(self, bih, unit_circle):
        for c in (unit_circle, polygon_contour(bih, SQUARE, nodes=512),
                  ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=512)):
            v = contour_integral(c, parse("1"))
            assert norm_of(v) < 1e-13, c.kind

    def test_reciprocal_residue(self, unit_circle):
        v = contour_integral(unit_circle, parse("1/tau"))
        assert abs(v.c1 - 2j * np.pi) < 1e-12
        assert abs(v.c2) < 1e-12

    def test_monogenic_trace_vanishes(self, unit_circle):
        v = contour_integral(unit_circle, parse("exp(z)"))
        assert norm_of(v) < 1e-8

    def test_cauchy_theorem_corpus(self, bih):
        contours = [
            ("circle", circle_contour(bih, center=(0.1, -0.2), radius=1.3, nodes=512), 1e-8),
            ("ellipse", ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=512), 1e-8),
            ("square", polygon_contour(bih, SQUARE, nodes=512), 1e-6),
        ]
        fns = [f"z^{n}" for n in range(6)] + ["exp(z)", "z^2*exp(z)"]
        for name, c, tol in contours:
            for text in fns:
                v = contour_integral(c, parse(text))
                assert norm_of(v) <= tol, (name, text)


def integral_of(contour, f):
    """The Cauchy-type integral of the samples of ``f`` on ``contour``."""
    return CauchyIntegralFn(contour, boundary_samples(f, contour))


class TestCauchyIntegral:
    def test_constant_density_step(self, bih, unit_circle):
        fn = integral_of(unit_circle, parse("1"))
        inside = fn(bih.embed(0.2, -0.1))
        outside = fn(bih.embed(1.7, 0.4))
        assert norm_of(dc_sub(inside, DualComplex(1, 0))) < 1e-12
        assert norm_of(outside) < 1e-12

    def test_identity_density(self, bih, unit_circle):
        pt = bih.embed(-0.3, 0.25)
        v = integral_of(unit_circle, parse("tau"))(pt)
        assert norm_of(dc_sub(v, pt.value())) < 1e-12

    def test_reciprocal_density_exterior(self, bih, unit_circle):
        pe = bih.embed(1.9, -0.8)
        v = integral_of(unit_circle, parse("1/tau"))(pe)
        want = -1 * dc_inv(pe.value())
        assert norm_of(dc_sub(v, want)) < 1e-12

    def test_guard_band_enforced(self, bih, unit_circle):
        """Inside the guard band the refined rule takes over, down to
        ``min_eval_distance``; nearer points are refused."""
        fn = integral_of(unit_circle, parse("1"))
        gap = fn.min_eval_distance()
        assert gap < unit_circle.guard_band
        near = fn(bih.embed(1.0 - 1.1 * gap, 0.0))
        assert norm_of(dc_sub(near, DualComplex(1, 0))) < 1e-6
        with pytest.raises(TooCloseToBoundaryError):
            fn(bih.embed(1.0 - 0.9 * gap, 0.0))

    def test_reproduction_invariant(self, bih, unit_circle, rng):
        f = parse("exp(z)")
        fn = CauchyIntegralFn(unit_circle, boundary_samples(f, unit_circle))
        ang = rng.uniform(0, 2 * np.pi, 40)
        r_in = rng.uniform(0.0, 0.7, 40)
        pin = PointE(r_in * np.cos(ang), r_in * np.sin(ang), bih)
        err = dc_norm(dc_sub(fn(pin), evaluate(f, z=pin)))
        assert float(np.max(err)) <= 1e-8
        r_out = rng.uniform(1.5, 4.0, 40)
        pout = PointE(r_out * np.cos(ang), r_out * np.sin(ang), bih)
        assert norm_of(fn(pout)) <= 1e-8

    def test_near_boundary_upsampled_path(self, bih, unit_circle):
        fn = CauchyIntegralFn(unit_circle, boundary_samples(parse("tau"), unit_circle))
        pt = bih.embed(0.985, 0.0)  # inside the guard band, on the refined path
        v = fn(pt)
        assert norm_of(dc_sub(v, pt.value())) < 1e-9

    def test_polygon_near_boundary_refinement(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=512)
        fn = CauchyIntegralFn(c, boundary_samples(parse("1"), c))
        pt = bih.embed(0.0, 0.97)  # distance 0.03 from the top edge
        assert norm_of(dc_sub(fn(pt), DualComplex(1, 0))) < 1e-8

    def test_decay_at_infinity(self, bih, unit_circle):
        fn = CauchyIntegralFn(unit_circle, boundary_samples(parse("1/tau"), unit_circle))
        radii = np.array([10.0, 100.0, 1000.0])
        mags = [norm_of(fn(bih.embed(r / np.sqrt(2), r / np.sqrt(2)))) for r in radii]
        slope = np.polyfit(np.log(radii), np.log(mags), 1)[0]
        assert abs(slope + 1.0) < 0.1


def jittered_square(bih):
    """The benchmark's square: vertices moved by up to 0.01, 128 nodes."""
    rng = np.random.default_rng(7)
    verts = np.round(np.asarray(SQUARE) + rng.uniform(-0.01, 0.01, (4, 2)), 6)
    c = polygon_contour(bih, verts.tolist(), nodes=112)
    assert c.n == 128
    return c


class TestPolygonNearPath:
    """Near-curve values on polygons against closed forms, along the normals
    of the smooth nodes at offsets h/2, h and 2h (h = max node spacing)."""

    @pytest.mark.parametrize("text, side, want", [
        ("exp(z)*z", "+", "exp(z)*z"),
        ("exp(z)*z", "-", "0"),
        ("1/tau", "+", "0"),
        ("1/tau", "-", "-1/z"),
    ])
    @pytest.mark.parametrize("square", ["512", "jittered-128"])
    def test_closed_forms(self, bih, square, text, side, want):
        c = polygon_contour(bih, SQUARE, nodes=512) if square == "512" \
            else jittered_square(bih)
        # eight Gauss nodes resolve 1/tau on a panel of the 128-node square
        # (half-length 1/4 at distance 1 from the pole) to ~(4 + 15^0.5)^-8
        tol = 1e-7 if (square, text) == ("jittered-128", "1/tau") else 1e-9
        fn = CauchyIntegralFn(c, boundary_samples(parse(text), c))
        idx = c.smooth_indices()
        normals = c.inward_normals()[idx] * (1.0 if side == "+" else -1.0)
        h = c.max_spacing
        for d in (h / 2, h, 2 * h):
            pts = PointE(c.xy[idx, 0] + d * normals[:, 0],
                         c.xy[idx, 1] + d * normals[:, 1], bih)
            assert norm_of(dc_sub(fn(pts), evaluate(parse(want), z=pts))) < tol, d

    def test_too_close_rejected(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=512)
        fn = CauchyIntegralFn(c, boundary_samples(parse("1"), c))
        k = int(c.smooth_indices()[0])
        x, y = c.xy[k] + 0.3 * c.max_spacing * c.inward_normals()[k]
        with pytest.raises(TooCloseToBoundaryError):
            fn(bih.embed(x, y))


L_SHAPE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0],
           [-1.0, 1.0]]
THIN = [[-0.15, -2.0], [0.15, -2.0], [0.15, 2.0], [-0.15, 2.0]]


def panel_distances(contour, x, y):
    """(M, panels) distances from each point to each panel's segment."""
    p0 = np.array([p[0] for p in contour.panels])
    p1 = np.array([p[1] for p in contour.panels])
    pt = np.stack([x, y], axis=-1)[:, None, :]
    e = p1 - p0
    t = np.clip(np.sum((pt - p0) * e, axis=-1) / np.sum(e * e, axis=-1), 0.0, 1.0)
    return np.hypot(*np.moveaxis(pt - p0 - t[..., None] * e, -1, 0))


def near_panel_mask(contour, x, y):
    """(M, panels): whether each point lies inside each panel's Bernstein
    ellipse of parameter NEAR_PANEL_RHO, from the parameter of the ellipse
    through the point, |w + (w - 1)^(1/2) (w + 1)^(1/2)| with w the point
    in the panel's coordinate (its ends at -1 and 1)."""
    p0 = np.array([p[0] @ [1, 1j] for p in contour.panels])
    p1 = np.array([p[1] @ [1, 1j] for p in contour.panels])
    w = ((np.asarray(x) + 1j * np.asarray(y))[:, None] - (p0 + p1) / 2) / ((p1 - p0) / 2)
    return np.abs(w + np.sqrt(w - 1) * np.sqrt(w + 1)) < NEAR_PANEL_RHO


def global_panel_rule(contour, dens, pts):
    """Every target's sum on the rule of its distance band with every panel
    refined: the native rule from the guard band on, else 2m Gauss
    sub-panels on each panel (the near rule of polygons before it refined
    only the panels near each target)."""
    stack = DualComplex(np.atleast_2d(dens.c1), np.atleast_2d(dens.c2))
    z = pts.value()
    dist = contour.dist_to(pts.x, pts.y)
    orders = np.array([band_refinement(contour, d) for d in dist])
    out1 = np.empty(dist.size, dtype=complex)
    out2 = np.empty_like(out1)
    for m in np.unique(orders):
        at = orders == m
        rule = ((contour.values(), contour.dtau(), stack) if m == 1
                else _refined_panel_integral(contour, stack, 2 * m))
        v = _kernel_sum(*rule, z.c1[at], z.c2[at])
        out1[at], out2[at] = v.c1[0], v.c2[0]
    return DualComplex(out1, out2)


class TestPolygonLocalRule:
    """A polygon target inside the guard band takes the native sum over all
    nodes plus, for each panel whose Bernstein ellipse of parameter
    NEAR_PANEL_RHO holds it, the panel's refined sum less its native one.
    The other panels' native rules err by about NEAR_PANEL_RHO^-16, so on
    smooth densities that is the rule with every panel refined to 1e-10 x
    scale (these curves read 2.5e-11 to 2.7e-11)."""

    CURVES = {
        "square": lambda bih: polygon_contour(bih, SQUARE, nodes=128),
        # targets near the reflex corner at the origin see both of its edges
        "L-shape": lambda bih: polygon_contour(bih, L_SHAPE, nodes=192),
        # 0.3 wide with a guard band of 0.275: targets inside near one long
        # side are near panels of the other
        "thin-rectangle": lambda bih: polygon_contour(bih, THIN, nodes=128),
    }

    @pytest.mark.parametrize("name", sorted(CURVES))
    @pytest.mark.parametrize("text", ["exp(z)", "1/(z-2)+rho*z"])
    def test_matches_the_globally_refined_rule(self, bih, name, text):
        c = self.CURVES[name](bih)
        dens = boundary_samples(parse(text), c)
        scale = max(1.0, norm_of(dens))
        fn = CauchyIntegralFn(c, dens)
        idx = c.smooth_indices()
        h = c.max_spacing
        for sign in (1.0, -1.0):
            nrm = sign * c.inward_normals()[idx]
            for d in (2 * h, h, h / 2):
                pts = PointE(c.xy[idx, 0] + d * nrm[:, 0],
                             c.xy[idx, 1] + d * nrm[:, 1], bih)
                err = norm_of(dc_sub(fn(pts), global_panel_rule(c, dens, pts)))
                assert err <= 1e-10 * scale, (sign, d / h)

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_near_panels(self, bih, name):
        """The near panels are those whose ellipse holds the target, and
        they include every panel within the guard band of it: a panel of
        half-length L has a node gap 0.367 L <= h, so a point 3h from it
        has parameter at most 3.95 (in line with the panel)."""
        c = self.CURVES[name](bih)
        h = c.max_spacing
        idx = c.smooth_indices()
        for sign in (1.0, -1.0):
            for d in (2 * h, h, h / 2):
                p = c.xy[idx] + sign * d * c.inward_normals()[idx]
                near = _near_panels(c, p[:, 0], p[:, 1])
                assert np.array_equal(near, near_panel_mask(c, p[:, 0], p[:, 1]))
                assert near[panel_distances(c, p[:, 0], p[:, 1]) < c.guard_band].all()

    def test_panels_across_a_thin_curve_are_near(self, bih):
        """Across the thin rectangle a target's near panels include the far
        side's, not only its own panel's neighbours."""
        c = self.CURVES["thin-rectangle"](bih)
        h = c.max_spacing
        idx = c.smooth_indices()
        p = c.xy[idx] + h / 2 * c.inward_normals()[idx]
        near = _near_panels(c, p[:, 0], p[:, 1])
        # the long sides are x = -0.15 and x = 0.15
        side = np.array([np.sign(a[0] + b[0]) for a, b in c.panels])
        own = np.where(np.isclose(np.abs(c.xy[idx, 0]), 0.15),
                       np.sign(c.xy[idx, 0]), 0.0)
        across = near & (side[None, :] == -own[:, None])
        assert np.count_nonzero(own) > 40
        assert across[own != 0].any(axis=1).all()

    def test_corner_targets(self, bih):
        """Targets off the L-shape's reflex corner, where both of its edges'
        panels are near."""
        c = self.CURVES["L-shape"](bih)
        dens = boundary_samples(parse("exp(z)"), c)
        h = c.max_spacing
        # inside the curve (the corner is the nearest point) and in the notch
        ang = np.array([1.05, 1.15, 1.25, 1.35, 1.45, 0.25]) * np.pi
        r = np.array([0.6, 1.0, 2.0])[:, None] * h
        pts = PointE((r * np.cos(ang)).ravel(), (r * np.sin(ang)).ravel(), bih)
        dist = c.dist_to(pts.x, pts.y)
        assert np.all(dist >= c.guard_band / 8) and np.all(dist < c.guard_band)
        assert (_near_panels(c, pts.x, pts.y).sum(axis=1) >= 2).all()
        got = CauchyIntegralFn(c, dens)(pts)
        err = norm_of(dc_sub(got, global_panel_rule(c, dens, pts)))
        assert err <= 1e-10 * max(1.0, norm_of(dens))


@pytest.fixture(scope="session")
def kernel_contours(bih):
    t = 2 * np.pi * np.arange(128) / 128
    return {"circle": circle_contour(bih, radius=1.0, nodes=128),
            "explicit-ellipse": explicit_contour(
                bih, np.stack([1.4 * np.cos(t), 0.9 * np.sin(t)], axis=1)),
            "square": polygon_contour(bih, SQUARE, nodes=128)}


def trig_rule(contour, dens, m):
    """(tau, dtau, density) of the trapezoid rule on m * N uniform
    parameters, resampled from the nodes on its own."""
    k = m * contour.n
    xy = _trig_resample(contour.xy.T, k)
    d = _trig_resample(contour.xy.T, k, derivative=True) / k
    return (contour.basis.vector(xy[0], xy[1]), contour.basis.vector(d[0], d[1]),
            DualComplex(_trig_resample(np.asarray(dens.c1, dtype=complex), k),
                        _trig_resample(np.asarray(dens.c2, dtype=complex), k)))


def band_refinement(contour, d):
    """The order of the rule of a target at distance ``d``: 1 (the native
    rule) from the guard band on, else the smallest m in (2, 4, 8) with
    d >= guard band / m."""
    if d >= contour.guard_band:
        return 1
    return min(m for m in (2, 4, 8) if d >= contour.guard_band / m)


def reference_cauchy(contour, dens, pts):
    """Per-pair Cauchy sums, one target and one density at a time, on the
    rule of each target's distance band: the native rule outside the guard
    band; inside it, the refined rule of order m = ``band_refinement`` on
    smooth kinds, and on polygons the 2m Gauss sub-panels of each panel
    whose ellipse holds the target (``near_panel_mask``) and the native
    nodes of the others."""
    polygon = contour.kind == "polygon"
    rules = {m: (_refined_panel_integral(contour, dens, 2 * m) if polygon
                 else trig_rule(contour, dens, m))
             for m in (2, 4, 8)}
    rules[1] = (contour.values(), contour.dtau(), dens)
    z = pts.value()
    dist = contour.dist_to(pts.x, pts.y)
    if polygon:
        near = near_panel_mask(contour, pts.x, pts.y)
    out1, out2 = [], []
    for i, (z1, z2, d) in enumerate(zip(z.c1, z.c2, dist)):
        m = band_refinement(contour, d)
        tau, w, f = rules[m]
        if polygon and m > 1:
            coarse = np.repeat(~near[i], GAUSS_ORDER)
            fine = np.repeat(near[i], 16 * m)
            tau, w, f = (DualComplex(np.concatenate([n.c1[coarse], r.c1[fine]]),
                                     np.concatenate([n.c2[coarse], r.c2[fine]]))
                         for n, r in zip(rules[1], rules[m]))
        inv_u = 1.0 / (tau.c1 - z1)
        v = tau.c2 - z2
        a1 = f.c1 * inv_u
        a2 = (f.c2 - f.c1 * v * inv_u) * inv_u
        out1.append(np.sum(a1 * w.c1) / (2j * np.pi))
        out2.append(np.sum(a1 * w.c2 + a2 * w.c1) / (2j * np.pi))
    return DualComplex(np.array(out1), np.array(out2))


class TestStackedKernel:
    """A (K, N) density stack is one kernel pass; each row must equal its own
    single-density integral and a per-pair sum, near the curve and far."""

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["circle", "explicit-ellipse", "square"]))
    def test_stack_matches_single_and_reference(self, bih, kernel_contours,
                                                seed, kind):
        c = kernel_contours[kind]
        assert c.n == 128
        rng = np.random.default_rng(seed)
        rows = [DualComplex(rng.normal(size=c.n) + 1j * rng.normal(size=c.n),
                            rng.normal(size=c.n) + 1j * rng.normal(size=c.n))
                for _ in range(2)]
        stack = DualComplex(np.stack([r.c1 for r in rows]),
                            np.stack([r.c2 for r in rows]))
        idx = rng.choice(c.smooth_indices(), 6, replace=False)
        nrm = c.inward_normals()[idx]
        h = c.max_spacing
        offsets = [s * d for s in (1.0, -1.0) for d in (h / 2, h, 2 * h)]
        px = np.concatenate([c.xy[idx, 0] + d * nrm[:, 0] for d in offsets]
                            + [[0.1, -0.2, 2.5, -3.0]])
        py = np.concatenate([c.xy[idx, 1] + d * nrm[:, 1] for d in offsets]
                            + [[0.05, 0.3, 1.0, -2.0]])
        pts = PointE(px, py, bih)
        dist = c.dist_to(px, py)
        assert np.all(dist[:-4] < c.guard_band) and np.all(dist[-4:] > c.guard_band)

        got = CauchyIntegralFn(c, stack)(pts)
        assert np.shape(got.c1) == (2, px.size)
        for k, row in enumerate(rows):
            single = CauchyIntegralFn(c, row)(pts)
            ref = reference_cauchy(c, row, pts)
            scale = max(1.0, norm_of(ref))
            stacked_row = DualComplex(got.c1[k], got.c2[k])
            assert norm_of(dc_sub(stacked_row, single)) <= 1e-13 * scale
            assert norm_of(dc_sub(single, ref)) <= 1e-13 * scale

    def test_scalar_point_gives_scalars(self, bih, unit_circle):
        f = boundary_samples(parse("exp(z)"), unit_circle)
        pt = bih.embed(0.2, -0.1)
        one = CauchyIntegralFn(unit_circle, f)(pt)
        assert np.ndim(one.c1) == 0 and np.ndim(one.c2) == 0
        two = CauchyIntegralFn(unit_circle, DualComplex(
            np.stack([f.c1, 2 * f.c1]), np.stack([f.c2, 2 * f.c2])))(pt)
        assert np.shape(two.c1) == np.shape(two.c2) == (2,)
        assert two.c1[1] == pytest.approx(2 * one.c1, abs=1e-14)
        assert two.c2[0] == pytest.approx(one.c2, abs=1e-14)

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "explicit"])
    def test_too_close_rejected_on_smooth_kinds(self, bih, kind):
        """0.3 h from a node is inside the refused band 3h/8 (polygons:
        TestPolygonNearPath.test_too_close_rejected)."""
        circle = circle_contour(bih, nodes=128)
        c = {"circle": circle,
             "ellipse": ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=128),
             "explicit": explicit_contour(bih, circle.xy)}[kind]
        fn = CauchyIntegralFn(c, boundary_samples(parse("1"), c))
        for k in (0, 37):
            x, y = c.xy[k] + 0.3 * c.max_spacing * c.inward_normals()[k]
            with pytest.raises(TooCloseToBoundaryError):
                fn(bih.embed(x, y))

    @staticmethod
    def peak_of_first_call(fn, pts):
        tracemalloc.start()
        try:
            out = fn(pts)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stacked_call_memory_is_bounded(self, bih, rng):
        """16384 targets, near and far, against a 256-node circle: the
        kernel works in fixed chunks, so the peak stays a few MB.  20000
        targets within the guard band of the 128-node square: the native
        sum and the panel corrections work in fixed chunks too, and the
        peak, 6.1 MiB, stays under the 6.64 MiB of the rule that refined
        every panel."""
        c = circle_contour(bih, radius=1.0, nodes=256)
        dens = DualComplex(rng.normal(size=(2, c.n)) + 0j,
                           rng.normal(size=(2, c.n)) + 0j)
        radii = np.concatenate([np.linspace(0.5, 0.985, 64),
                                np.linspace(1.015, 1.5, 64)])
        ang = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
        r, a = np.meshgrid(radii, ang)
        x, y = (r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()
        near = c.dist_to(x, y) < c.guard_band
        assert x.size == 16384 and near.any() and not near.all()
        out, peak = self.peak_of_first_call(CauchyIntegralFn(c, dens),
                                            PointE(x, y, bih))
        assert np.shape(out.c1) == (2, 16384)
        assert peak < 32 * 2 ** 20, peak / 2 ** 20

        c = polygon_contour(bih, SQUARE, nodes=128)
        h = c.max_spacing
        dens = DualComplex(rng.normal(size=(2, c.n)) + 0j,
                           rng.normal(size=(2, c.n)) + 0j)
        # 250 points along each edge at 20 offsets, 0.4 h to 2.9 h on
        # either side
        s, d = np.meshgrid(np.linspace(-0.95, 0.95, 250), np.concatenate(
            [np.linspace(0.4, 2.9, 10), -np.linspace(0.4, 2.9, 10)]) * h)
        s, d = s.ravel(), d.ravel()
        x = np.concatenate([s, s, 1 - d, d - 1])
        y = np.concatenate([1 - d, d - 1, s, s])
        dist = c.dist_to(x, y)
        assert x.size == 20000 and np.all(dist < c.guard_band)
        out, peak = self.peak_of_first_call(CauchyIntegralFn(c, dens),
                                            PointE(x, y, bih))
        assert np.shape(out.c1) == (2, 20000)
        assert peak < 6.64 * 2 ** 20, peak / 2 ** 20


class TestChunkLoops:
    """The kernel loops reuse one set of planes for every chunk of targets;
    a chunk must see none of the previous chunk's values.  The classical
    basis has no rho part, so it runs the loop without the q plane."""

    @staticmethod
    def _stack(rng, n):
        d = DualComplex(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)),
                        rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        d.c1[1] = d.c2[1] = 0.0   # a zero row is left out of the products
        return d

    @pytest.mark.parametrize("kind, basis", [
        ("circle", "bih"), ("square", "bih"), ("circle", "cls"), ("square", "cls")],
        ids=["circle", "square", "circle-classical", "square-classical"])
    def test_kernel_sum_chunks(self, request, rng, kind, basis):
        e = request.getfixturevalue(basis)
        c = (circle_contour(e, nodes=300) if kind == "circle"
             else polygon_contour(e, SQUARE, nodes=128))
        dens = self._stack(rng, c.n)
        chunk = PAIR_CHUNK // c.n
        x = rng.uniform(-3.0, 3.0, chunk + 1)
        y = rng.uniform(-3.0, 3.0, chunk + 1)
        z = e.vector(x, y)

        def at(sl):
            return _kernel_sum(c.values(), c.dtau(), dens, z.c1[sl], z.c2[sl])

        full = at(slice(None))
        assert np.shape(full.c1) == (3, chunk + 1)
        assert not full.c1[1].any() and not full.c2[1].any()
        # one call per chunk: the same products on freshly allocated planes
        first, last = at(slice(0, chunk)), at(slice(chunk, None))
        np.testing.assert_array_equal(full.c1, np.hstack([first.c1, last.c1]))
        np.testing.assert_array_equal(full.c2, np.hstack([first.c2, last.c2]))
        # one call per target: a one-row product may sum in another order
        for k in (0, chunk // 2, chunk):
            one = at(slice(k, k + 1))
            np.testing.assert_allclose(one.c1[:, 0], full.c1[:, k], rtol=1e-13)
            np.testing.assert_allclose(one.c2[:, 0], full.c2[:, k], rtol=1e-13)
        none = at(slice(0, 0))
        assert np.shape(none.c1) == np.shape(none.c2) == (3, 0)

    @pytest.mark.parametrize("n, basis", [
        (128, "bih"), (571, "bih"), (128, "cls"), (571, "cls")],
        ids=["128", "571", "128-classical", "571-classical"])
    def test_node_kernel_sum_chunks(self, request, rng, n, basis):
        """The nodes as targets, each leaving out its own source: 571 nodes
        are five chunks of 114 rows and a last one of one row."""
        c = circle_contour(request.getfixturevalue(basis), nodes=n)
        dens = self._stack(rng, n)
        tau = c.values()
        drop = np.arange(n)
        got = _kernel_sum(tau, c.dtau(), dens, tau.c1, tau.c2, drop=drop)
        want = _pairwise_kernel_sum(tau, c.dtau(), dens, tau.c1, tau.c2, drop)
        np.testing.assert_allclose(got.c1, want.c1, rtol=1e-13)
        np.testing.assert_allclose(got.c2, want.c2, rtol=1e-13)


def _pairwise_kernel_sum(tau, w, dens, z1, z2, drop=None):
    """sum_k dens_k w_k (tau_k - z)^(-1) / (2 pi i), written pair by pair in
    the algebra; ``drop`` leaves out one source per target."""
    u = dc_sub(DualComplex(tau.c1[None, :], tau.c2[None, :]),
               DualComplex(z1[:, None], z2[:, None]))
    keep = np.ones(u.c1.shape, dtype=bool)
    if drop is not None:
        keep[np.arange(len(z1)), drop] = False
    kern = dc_inv(DualComplex(np.where(keep, u.c1, 1.0), np.where(keep, u.c2, 0.0)))
    kern = DualComplex(kern.c1 * keep, kern.c2 * keep)
    rows = []
    for k in range(len(dens.c1)):
        dw = dc_mul(DualComplex(dens.c1[k], dens.c2[k]), w)
        term = dc_mul(DualComplex(dw.c1[None, :], dw.c2[None, :]), kern)
        rows.append((term.c1.sum(axis=1), term.c2.sum(axis=1)))
    return DualComplex(np.array([r[0] for r in rows]) / (2j * np.pi),
                       np.array([r[1] for r in rows]) / (2j * np.pi))


def _broadcast_kernel_sum(tau, w, dens, z1, z2, drop=None):
    """``_kernel_sum`` with its pair planes tau1 - z1 and tau2 - z2 formed by
    broadcast subtraction, chunk for chunk: the products must give the same
    bits."""
    t1, t2 = np.asarray(tau.c1), np.asarray(tau.c2)
    live, ab = _weighted_blocks(w, dens)
    n_live = live.size
    out = np.empty((z1.size, 2 * n_live), dtype=complex)
    m = z1.size if n_live else 0
    chunk = max(1, min(m, PAIR_CHUNK // t1.size))
    rho = bool(np.any(t2) or np.any(z2))
    for s in range(0, m, chunk):
        inv_u = t1 - z1[s:s + chunk, None]
        if drop is not None:
            pair = (np.arange(len(inv_u)), drop[s:s + chunk])
            inv_u[pair] = 1.0
        inv_u = 1.0 / inv_u
        if drop is not None:
            inv_u[pair] = 0.0
        out[s:s + chunk] = inv_u @ ab
        if rho:
            q = (t2 - z2[s:s + chunk, None]) * inv_u * inv_u
            out[s:s + chunk, n_live:] -= q @ ab[:, :n_live]
    return _scatter(live, len(dens.c1), out[:, :n_live], out[:, n_live:])


class TestPairPlanes:
    """``_kernel_sum`` forms tau - z as the product [-z, 1] [1; tau]: every
    entry is one rounded subtraction, so the sums are bit for bit those of
    the broadcast subtraction."""

    @pytest.mark.parametrize("basis", ["bih", "cls"])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("nodes", [False, True], ids=["targets", "nodes"])
    def test_same_bits_as_broadcast_subtraction(self, request, rng, basis,
                                                rows, nodes):
        e = request.getfixturevalue(basis)
        for c in (circle_contour(e, nodes=300),
                  polygon_contour(e, SQUARE, nodes=128)):
            d = DualComplex(
                rng.normal(size=(rows, c.n)) + 1j * rng.normal(size=(rows, c.n)),
                rng.normal(size=(rows, c.n)) + 1j * rng.normal(size=(rows, c.n)))
            if rows > 1:
                d.c1[1] = d.c2[1] = 0.0
            tau = c.values()
            if nodes:
                z, drop = tau, np.arange(c.n)
            else:
                k = PAIR_CHUNK // c.n + 7     # two chunks, the last short
                z = e.vector(rng.uniform(-3.0, 3.0, k), rng.uniform(-3.0, 3.0, k))
                drop = None
            got = _kernel_sum(tau, c.dtau(), d, z.c1, z.c2, drop=drop)
            want = _broadcast_kernel_sum(tau, c.dtau(), d, z.c1, z.c2, drop=drop)
            assert np.array_equal(got.c1, want.c1)
            assert np.array_equal(got.c2, want.c2)


class TestKernelSumReference:
    """``_kernel_sum`` against the sum written pair by pair in the algebra.
    The mixed cases put a rho part on one side only, so the q term must
    still be formed."""

    @pytest.mark.parametrize("sources, targets", [
        ("cls", "cls"), ("bih", "bih"), ("cls", "bih"), ("bih", "cls")],
        ids=["classical", "biharmonic", "rho-in-targets-only",
             "rho-in-sources-only"])
    def test_dense_reference(self, request, rng, sources, targets):
        c = ellipse_contour(request.getfixturevalue(sources),
                            semi_axes=(1.3, 0.8), nodes=64)
        d = DualComplex(rng.normal(size=(2, c.n)) + 1j * rng.normal(size=(2, c.n)),
                        rng.normal(size=(2, c.n)) + 1j * rng.normal(size=(2, c.n)))
        x, y = rng.uniform(-3.0, 3.0, 40), rng.uniform(-3.0, 3.0, 40)
        z = request.getfixturevalue(targets).vector(x, y)
        assert bool(np.any(c.values().c2)) == (sources == "bih")
        assert bool(np.any(z.c2)) == (targets == "bih")
        got = _kernel_sum(c.values(), c.dtau(), d, z.c1, z.c2)
        want = _pairwise_kernel_sum(c.values(), c.dtau(), d, z.c1, z.c2)
        np.testing.assert_allclose(got.c1, want.c1, rtol=1e-13)
        np.testing.assert_allclose(got.c2, want.c2, rtol=1e-13)


@pytest.fixture(scope="session")
def node_rule_contours(bih):
    t = 2 * np.pi * np.arange(128) / 128
    return {"circle": circle_contour(bih, radius=1.0, nodes=256),
            "ellipse": ellipse_contour(bih, semi_axes=(1.3, 0.8), nodes=192),
            "explicit-ellipse": explicit_contour(
                bih, np.stack([1.3 * np.cos(t), 0.8 * np.sin(t)], axis=1)),
            "square": polygon_contour(bih, SQUARE, nodes=128)}


class TestNodeLimits:
    """Singularity-subtraction limits at every node, polygon corner nodes
    included, against closed forms."""

    POLE = "(0.2+0.1i)"

    @pytest.mark.parametrize("text, plus, minus", [
        ("z*exp(z)", "z*exp(z)", "0"),
        (f"1/(z-{POLE})", "0", f"-1/(z-{POLE})"),
    ])
    @pytest.mark.parametrize("kind", ["circle", "ellipse", "explicit-ellipse",
                                      "square"])
    def test_closed_forms(self, node_rule_contours, kind, text, plus, minus):
        c = node_rule_contours[kind]
        tol = 1e-12
        if kind == "square":
            assert c.n == 128 and c.corner_mask.sum() == 64
            # the diagonal term differentiates each panel's degree-7
            # interpolant; the pole sits 3.2 half-panels from the right edge,
            # so that derivative is good only to ~(3.2 + 3.0)^-8 = 4e-7
            tol = 1e-9 if text == "z*exp(z)" else 1e-5
        fn = CauchyIntegralFn(c, boundary_samples(parse(text), c))
        pts = c.points()
        for side, want in (("+", plus), ("-", minus)):
            got = fn.node_limits(side)
            assert np.shape(got.c1) == (c.n,)
            assert norm_of(dc_sub(got, evaluate(parse(want), z=pts))) <= tol, side

    def test_stack_matches_single_calls(self, node_rule_contours):
        c = node_rule_contours["square"]
        rows = [boundary_samples(parse(t), c) for t in ("z*exp(z)", "1/(z-0.3)")]
        stack = CauchyIntegralFn(c, DualComplex(np.stack([r.c1 for r in rows]),
                                                np.stack([r.c2 for r in rows])))
        for side in "+-":
            got = stack.node_limits(side)
            assert np.shape(got.c1) == (2, c.n)
            for k, row in enumerate(rows):
                single = CauchyIntegralFn(c, row).node_limits(side)
                assert norm_of(dc_sub(DualComplex(got.c1[k], got.c2[k]),
                                      single)) <= 1e-13

    def test_table_memory_is_bounded(self, bih):
        """Both sides of one N=2048 table stay within 32 MB of traced
        memory; a dense N x N plane alone would take 64 MB."""
        c = circle_contour(bih, radius=1.0, nodes=2048)
        fn = CauchyIntegralFn(c, boundary_samples(parse("z*exp(z)"), c))
        tracemalloc.start()
        try:
            plus, minus = fn.node_limits("+"), fn.node_limits("-")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm_of(dc_sub(plus, fn.density)) <= 1e-12
        assert norm_of(minus) <= 1e-12
        assert peak < 32 * 2 ** 20, peak / 2 ** 20


def limit_at(fn, contour, node, side):
    """The offset-extrapolated one-sided limit at node ``node``, which must be
    one of the nodes the check samples."""
    table = boundary_values(fn, contour, side)
    (at,) = np.flatnonzero(table.indices == node)
    return table.values.item(int(at))


def check_sample(contour):
    """The smooth nodes that ``boundary_values`` checks: every
    ceil(S / CHECK_NODES)-th of the S smooth nodes."""
    smooth = np.flatnonzero(~contour.corner_mask)
    return smooth[::int(np.ceil(smooth.size / CHECK_NODES))]


class TestBoundaryLimits:
    def test_constant_density_limits(self, unit_circle):
        fn = CauchyIntegralFn(unit_circle,
                              boundary_samples(parse("1"), unit_circle))
        plus = limit_at(fn, unit_circle, 16, "+")
        minus = limit_at(fn, unit_circle, 16, "-")
        assert norm_of(dc_sub(plus, DualComplex(1, 0))) < 1e-8
        assert norm_of(minus) < 1e-8

    def test_identity_density_limits(self, unit_circle):
        fn = CauchyIntegralFn(unit_circle,
                              boundary_samples(parse("tau"), unit_circle))
        k = 40
        tau_k = unit_circle.values().item(k)
        plus = limit_at(fn, unit_circle, k, "+")
        minus = limit_at(fn, unit_circle, k, "-")
        assert norm_of(dc_sub(plus, tau_k)) < 1e-8
        assert norm_of(minus) < 1e-8

    def test_corner_node_rejected(self, bih):
        """The offset limit is never taken at a corner node: the table holds
        the stride sample of the smooth nodes, and a square whose every node
        is a corner node has no limit to take."""
        c = polygon_contour(bih, SQUARE, nodes=512)
        fn = CauchyIntegralFn(c, boundary_samples(parse("1"), c))
        table = boundary_values(fn, c, "+")
        assert not c.corner_mask[table.indices].any()
        assert np.array_equal(table.indices, check_sample(c))
        coarse = polygon_contour(bih, SQUARE, nodes=64)
        fn = CauchyIntegralFn(coarse, boundary_samples(parse("1"), coarse))
        with pytest.raises(CornerNodeError):
            boundary_values(fn, coarse, "+")

    def test_error_estimates_reported(self, unit_circle):
        fn = CauchyIntegralFn(unit_circle,
                              boundary_samples(parse("exp(z)"), unit_circle))
        table = boundary_values(fn, unit_circle, "+")
        assert table.error_estimates.shape == table.indices.shape
        assert float(table.error_estimates.max()) < 1e-6


def lagrange_at_zero(ds, vals):
    """The polynomial through (ds[j], vals[j]) evaluated at zero."""
    out = 0
    for j, v in enumerate(vals):
        others = np.delete(ds, j)
        out = out + v * np.prod(others / (others - ds[j]))
    return out


class TestCheckSample:
    def test_stride_sample(self, bih):
        """256 smooth nodes are checked at stride 4, 200 at stride
        ceil(200 / 64) = 4 too, and 64 or fewer in full."""
        fn = lambda p: DualComplex(p.x + 0j, p.y + 0j)
        big = circle_contour(bih, radius=1.0, nodes=256)
        table = boundary_values(fn, big, "+")
        assert np.array_equal(table.indices, np.arange(0, 256, 4))
        assert table.values.c1.shape == table.error_estimates.shape == (64,)
        odd = circle_contour(bih, radius=1.0, nodes=200)
        assert np.array_equal(boundary_values(fn, odd, "+").indices,
                              np.arange(0, 200, 4))
        for c in (circle_contour(bih, radius=1.0, nodes=64),
                  polygon_contour(bih, SQUARE, nodes=128)):
            assert np.array_equal(boundary_values(fn, c, "-").indices,
                                  c.smooth_indices())
        assert polygon_contour(bih, SQUARE, nodes=128).smooth_indices().size == 64

    @pytest.mark.parametrize("kind", ["circle", "square"])
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_batched_limits_match_per_offset_reference(self, bih, kind, side):
        """One call over all offsets of a stacked integral gives the limits
        and estimates of polynomial extrapolation through each offset's own
        evaluation."""
        c = (circle_contour(bih, radius=1.0, nodes=256) if kind == "circle"
             else polygon_contour(bih, SQUARE, nodes=256))
        d1, d2 = (boundary_samples(parse(f), c) for f in ("exp(z)", "1/(z-2)+rho*z"))
        fn = CauchyIntegralFn(c, DualComplex(np.stack([d1.c1, d2.c1]),
                                             np.stack([d1.c2, d2.c2])))
        table = boundary_values(fn, c, side)
        idx = check_sample(c)
        sign = 1.0 if side == "+" else -1.0
        ds = OFFSET_SPACING_FACTOR * c.max_spacing / 2.0 ** np.arange(N_OFFSETS)
        per_offset = []
        for d in ds:
            p = c.xy[idx] + sign * d * c.inward_normals()[idx]
            v = fn(PointE(p[:, 0], p[:, 1], bih))
            per_offset.append(np.stack([v.c1, v.c2]))
        want = lagrange_at_zero(ds, per_offset)
        penult = lagrange_at_zero(ds[:-1], per_offset[:-1])
        got = np.stack([table.values.c1, table.values.c2])
        assert got.shape == (2, 2, idx.size)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        est = np.asarray(dc_norm(DualComplex(*(want - penult))))
        assert np.max(np.abs(table.error_estimates - est)) <= 1e-13 * scale

    def test_one_evaluator_call_per_table(self, bih):
        c = circle_contour(bih, radius=1.0, nodes=256)
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        calls = []

        def counted(points):
            calls.append(np.shape(points.x))
            return fn(points)
        for side in "+-":
            boundary_values(counted, c, side)
        assert calls == [(N_OFFSETS, 64)] * 2


class TestBoundedApproach:
    """The offset check hands its evaluator each approach point's offset as
    an upper bound on its distance to the curve and the disc bound of
    ``_clear_of_curve`` as a lower one, so the integral measures only the
    points whose bounds straddle its guard band, and splits near from far
    exactly as measuring every point does."""

    CURVES = {
        "circle": lambda bih: circle_contour(bih, radius=1.0, nodes=256),
        "ellipse": lambda bih: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                               nodes=192),
        "thin-ellipse": lambda bih: ellipse_contour(bih, semi_axes=(3.0, 0.5),
                                                    nodes=64),
        "square": lambda bih: polygon_contour(bih, SQUARE, nodes=128),
    }

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_same_limits_as_measuring_every_point(self, bih, monkeypatch, name):
        c = self.CURVES[name](bih)
        d1, d2 = (boundary_samples(parse(f), c) for f in ("exp(z)", "1/(z-2)+rho*z"))
        fn = CauchyIntegralFn(c, DualComplex(np.stack([d1.c1, d2.c1]),
                                             np.stack([d1.c2, d2.c2])))
        measured = []
        dist_to = Contour.dist_to

        def counted(self, x, y):
            measured.append(np.size(x))
            return dist_to(self, x, y)
        monkeypatch.setattr(Contour, "dist_to", counted)
        for side in "+-":
            seen = []

            def spy(points):
                seen.append(points)
                return fn(points)
            measured.clear()
            table = boundary_values(spy, c, side)
            cheap = sum(measured)
            (points,) = seen
            assert isinstance(points, BoundedPoints)
            want = boundary_values(
                lambda p: fn(PointE(p.x, p.y, p.basis)), c, side)
            assert np.array_equal(table.indices, want.indices)
            for got, ref in ((table.values.c1, want.values.c1),
                             (table.values.c2, want.values.c2)):
                assert np.array_equal(got, ref)
            exact = dist_to(c, points.x, points.y).reshape(np.shape(points.x))
            assert np.all(points.lower <= exact)
            assert np.all(exact <= points.upper)
            if name == "circle":
                # the farthest point of each column, and nothing else
                assert cheap == table.indices.size

    def test_plain_points_are_all_measured(self, bih, monkeypatch):
        c = circle_contour(bih, radius=1.0, nodes=256)
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        measured = []
        dist_to = Contour.dist_to
        monkeypatch.setattr(Contour, "dist_to", lambda self, x, y: (
            measured.append(np.size(x)) or dist_to(self, x, y)))
        fn(PointE(np.array([0.0, 0.5, 0.99]), np.zeros(3), bih))
        assert measured == [3]


class TestDistanceBands:
    """A target inside the guard band takes the fewest sources its distance
    allows: m = 2, 4 and 8 times the nodes at 2, 1 and 1/2 node spacings,
    the near rows of the offset check, so m d / h stays at 4 on each.  On
    polygons only the W panels near a target (``TestPolygonLocalRule``) are
    split into 2m Gauss sub-panels: N + W (16m + 8) sources."""

    CURVES = {
        "circle": lambda bih: circle_contour(bih, radius=1.0, nodes=256),
        "explicit-ellipse": lambda bih: explicit_contour(bih, np.stack(
            [1.4 * np.cos(TURN128), 0.9 * np.sin(TURN128)], axis=1)),
        "square": lambda bih: polygon_contour(bih, SQUARE, nodes=128),
    }
    CLOSED_FORM_CURVES = {
        "circle": CURVES["circle"],
        "ellipse": lambda bih: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                               nodes=192),
        "explicit": CURVES["explicit-ellipse"],
        "square": lambda bih: polygon_contour(bih, SQUARE, nodes=256),
    }

    @staticmethod
    def spy_kernel(monkeypatch):
        """(sources, targets) of every kernel sum from now on."""
        calls = []
        real = _kernel_sum

        def spy(tau, w, dens, z1, z2, drop=None):
            calls.append((np.size(tau.c1), np.size(z1)))
            return real(tau, w, dens, z1, z2, drop)
        monkeypatch.setattr("dualrbvp.integral._kernel_sum", spy)
        return calls

    @staticmethod
    def spy_correction(monkeypatch):
        """(sources per near panel, (targets, panels) near mask) of every
        polygon panel correction from now on."""
        calls = []
        real = _panel_correction

        def spy(blocks, near, z1, z2):
            calls.append((blocks[0].shape[1], near.copy()))
            return real(blocks, near, z1, z2)
        monkeypatch.setattr("dualrbvp.integral._panel_correction", spy)
        return calls

    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_rows_take_two_four_and_eight(self, bih, monkeypatch, name):
        c = self.CURVES[name](bih)
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        calls = self.spy_kernel(monkeypatch)
        corrections = self.spy_correction(monkeypatch)
        idx = c.smooth_indices()[::7]
        nrm = c.inward_normals()[idx]
        h = c.max_spacing
        for d, m in ((2 * h, 2), (h, 4), (h / 2, 8)):
            calls.clear()
            corrections.clear()
            x, y = c.xy[idx, 0] + d * nrm[:, 0], c.xy[idx, 1] + d * nrm[:, 1]
            fn(PointE(x, y, bih))
            if c.kind != "polygon":
                assert calls == [(m * c.n, idx.size)] and not corrections, d / h
                continue
            # one native sum, and 2m sub-panels less the native nodes on
            # each near panel
            assert calls == [(c.n, idx.size)], d / h
            [(per_panel, near)] = corrections
            assert per_panel == 16 * m + 8
            assert np.array_equal(near, near_panel_mask(c, x, y))
            width = near.sum(axis=1)
            assert width.min() >= 2 and width.max() <= 3
            assert (c.n + width * per_panel).max() < m * c.n

    def test_one_kernel_sum_per_band(self, bih, monkeypatch):
        c = self.CURVES["circle"](bih)
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        calls = self.spy_kernel(monkeypatch)
        h = c.max_spacing
        r = 1.0 - np.array([2.0, 0.5, 5.0, 2.2, 0.6, 0.4]) * h
        fn(PointE(r, np.zeros_like(r), bih))
        assert sorted(calls) == [(c.n, 1), (2 * c.n, 2), (8 * c.n, 3)]

    def test_thinned_rules_are_the_resampled_ones(self, bih):
        """On smooth kinds the 2N and 4N rules are every 4th and 2nd node
        of the 8N one with 4 and 2 times its weights; they match the rules
        resampled at 2N and 4N directly up to rounding."""
        for name in ("circle", "explicit-ellipse"):
            c = self.CURVES[name](bih)
            dens = boundary_samples(parse("1/(z-2)+rho*z"), c)
            fn = CauchyIntegralFn(c, dens)
            stack = DualComplex(np.atleast_2d(dens.c1), np.atleast_2d(dens.c2))
            for m in (2, 4, 8):
                for got, want in zip(fn._rule(stack, m), trig_rule(c, stack, m)):
                    for g, w in ((got.c1, want.c1), (got.c2, want.c2)):
                        assert np.shape(g) == np.shape(w)
                        assert np.max(np.abs(g - w)) <= 1e-14 * max(1.0, np.max(np.abs(w)))

    @pytest.mark.parametrize("lower, upper, dist, measured", [
        (0.7, 1.2, 0.8, True),      # straddles 0.75 h
        (1.2, 1.6, 1.3, True),      # straddles 1.5 h
        (2.0, 3.5, 2.5, True),      # straddles the guard band, 3 h
        (0.3, 0.5, 0.45, True),     # straddles the floor, 0.375 h
        (0.8, 1.4, 1.0, False),     # inside [0.75 h, 1.5 h)
        (1.6, 2.9, 2.0, False),     # inside [1.5 h, 3 h)
        (0.4, 0.7, 0.5, False),     # inside [0.375 h, 0.75 h)
        (3.1, 9.0, 4.0, False),     # beyond the guard band
    ])
    def test_bounds_are_measured_only_across_an_edge(self, bih, monkeypatch,
                                                     lower, upper, dist, measured):
        c = self.CURVES["circle"](bih)
        h = c.max_spacing
        assert c.guard_band == 3 * h
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        x, y = c.xy[5] + dist * h * c.inward_normals()[5]
        plain = fn(PointE(np.array([x]), np.array([y]), bih))
        exact = float(c.dist_to(np.array([x]), np.array([y]))[0])
        assert lower * h <= exact <= upper * h
        seen = []
        dist_to = Contour.dist_to
        monkeypatch.setattr(Contour, "dist_to", lambda self, x, y: (
            seen.append(np.size(x)) or dist_to(self, x, y)))
        got = fn(BoundedPoints(np.array([x]), np.array([y]), bih,
                               np.array([lower * h]), np.array([upper * h])))
        assert seen == ([1] if measured else [])
        assert np.array_equal(got.c1, plain.c1) and np.array_equal(got.c2, plain.c2)

    @pytest.mark.parametrize("kind", sorted(CLOSED_FORM_CURVES))
    @pytest.mark.parametrize("text", ["exp(z)", "1/(z-2)+rho*z"])
    def test_rows_match_closed_forms(self, bih, kind, text):
        """The integral of a function analytic inside the curve is the
        function inside and zero outside.  Each row has m d = 4 h, the
        product of the native rule at four spacings, and misses by at most
        2.7e-10 x scale (circle; 8x on every row read 1.6e-10 x scale);
        the 256-node square reads 1.0e-10 x scale, the error of the
        degree-7 panel interpolant of 1/(z-2) at every split."""
        c = self.CLOSED_FORM_CURVES[kind](bih)
        dens = boundary_samples(parse(text), c)
        scale = max(1.0, norm_of(dens))
        fn = CauchyIntegralFn(c, dens)
        idx = c.smooth_indices()
        h = c.max_spacing
        for sign in (1.0, -1.0):
            nrm = sign * c.inward_normals()[idx]
            for d in (2 * h, h, h / 2):
                pts = PointE(c.xy[idx, 0] + d * nrm[:, 0],
                             c.xy[idx, 1] + d * nrm[:, 1], bih)
                want = (evaluate(parse(text), z=pts) if sign > 0
                        else DualComplex(np.zeros(idx.size, complex),
                                         np.zeros(idx.size, complex)))
                assert norm_of(dc_sub(fn(pts), want)) <= 1e-9 * scale, (sign, d / h)

    def test_limits_of_a_linear_exponent(self, cls):
        """The classical 384-node circle with E = b tau, as in the
        benchmark's homogeneous kappa = 2 case: the exact limits are b tau
        inside and 0 outside.  The band rule's limits miss by 1.2e-11 x
        scale; with the 8x rule on every near row they missed by 4.1e-11."""
        c = circle_contour(cls, radius=1.0, nodes=384)
        b1, b2 = 0.7 - 0.4j, -0.3 + 0.6j
        tau = c.values()
        exponent = DualComplex(b1 * tau.c1, b1 * tau.c2 + b2 * tau.c1)
        scale = max(1.0, norm_of(exponent))
        fn = CauchyIntegralFn(c, exponent)
        plus, minus = (boundary_values(fn, c, side) for side in "+-")
        at = plus.indices
        assert at.size == CHECK_NODES and np.array_equal(minus.indices, at)
        exact = DualComplex(exponent.c1[at], exponent.c2[at])
        assert norm_of(dc_sub(plus.values, exact)) <= 2e-11 * scale
        assert norm_of(minus.values) <= 2e-11 * scale

    @pytest.mark.parametrize("kind, per_node", [("circle", 14), ("square", 28)])
    def test_offset_check_pair_count(self, bih, monkeypatch, kind, per_node):
        """``residual_report`` pays at most 14N near sources per sampled
        node and side on smooth kinds (2N + 4N + 8N over the three near
        rows), not 24N.  On polygons each near row takes N + W (16m + 8)
        with W = 2 or 3 near panels on the 128-node square: at most
        3N + 3 (40 + 72 + 136) = 1128 per node and side, against
        28N = 3584 (4N + 8N + 16N) with every panel refined."""
        c = (circle_contour(bih, radius=1.0, nodes=256) if kind == "circle"
             else polygon_contour(bih, SQUARE, nodes=128))
        sol = solve_auto(RBVPProblem(contour=c, G="tau*exp(0.5*tau)",
                                     g="exp(tau)*(1+tau^2)"))
        kept = []
        real = boundary_values

        def counted(evaluator, contour, side):
            table = real(evaluator, contour, side)
            kept.append(table.indices.size)
            return table
        monkeypatch.setattr("dualrbvp.rbvp.boundary_values", counted)
        calls = self.spy_kernel(monkeypatch)
        corrections = self.spy_correction(monkeypatch)
        residual_report(sol)
        assert len(kept) == 2 and min(kept) > 0
        if c.kind != "polygon":
            near = [(s, t) for s, t in calls if s > c.n]
            assert sum(t for _, t in near) == 3 * sum(kept)
            assert sum(s * t for s, t in near) <= per_node * c.n * sum(kept)
            return
        assert all(s == c.n for s, _ in calls)
        assert sum(len(n) for _, n in corrections) == 3 * sum(kept)
        assert sorted(s for s, _ in corrections) == [40, 40, 72, 72, 136, 136]
        width = np.concatenate([n.sum(axis=1) for _, n in corrections])
        assert width.min() == 2 and width.max() == 3
        sources = sum(len(n) * c.n + s * n.sum() for s, n in corrections)
        assert sources <= (3 * c.n + 3 * (40 + 72 + 136)) * sum(kept)
        assert sources < per_node * c.n * sum(kept) / 3


class TestCoarseCurves:
    """Offsets of eight node spacings reach past a curve this coarse or
    thin: a node is checked only when each of its approach points lies on
    its side, at least ``min_eval_distance`` from the curve."""

    @pytest.mark.parametrize("nodes", [12, 16, 20, 24])
    def test_every_evaluated_point_is_on_its_side(self, bih, nodes):
        c = circle_contour(bih, radius=1.0, nodes=nodes)
        fn = CauchyIntegralFn(c, boundary_samples(parse("exp(z)"), c))
        for side in "+-":
            seen = []

            def spy(points):
                seen.append(np.hypot(points.x, points.y))
                return fn(points)
            table = boundary_values(spy, c, side)
            (r,) = seen
            assert r.shape == (N_OFFSETS, table.indices.size)
            assert (r < 1.0).all() if side == "+" else (r > 1.0).all()
            # the first inward offset, 8 spacings, crosses the circle; no
            # outward one does
            assert table.indices.size == (0 if side == "+" else nodes)

    def test_only_points_off_the_curve_are_kept(self, bih):
        """The kept nodes are those whose every approach point is at least
        the evaluator's floor from the polyline and on its side, measured
        point by point.  Inward, the (3, 0.5) ellipse keeps only the
        nodes at the ends of its major axis."""
        for c in (ellipse_contour(bih, semi_axes=(3.0, 0.2), nodes=64),
                  ellipse_contour(bih, semi_axes=(3.0, 0.5), nodes=64),
                  polygon_contour(bih, SQUARE, nodes=256)):
            fn = CauchyIntegralFn(c, boundary_samples(parse("1"), c))
            smooth = check_sample(c)
            ds = OFFSET_SPACING_FACTOR * c.max_spacing / 2.0 ** np.arange(N_OFFSETS)
            for side, sign in (("+", 1.0), ("-", -1.0)):
                p = c.xy[smooth] + sign * ds[:, None, None] * c.inward_normals()[smooth]
                x, y = p[..., 0].ravel(), p[..., 1].ravel()
                ok = ((c.dist_to(x, y) >= fn.min_eval_distance())
                      & ((c.winding_number(x, y) != 0) == (side == "+")))
                want = smooth[ok.reshape(p.shape[:2]).all(axis=0)]
                assert np.array_equal(boundary_values(fn, c, side).indices, want)


class TestJumpCheck:
    def test_zero_density(self, unit_circle):
        zero = DualComplex(np.zeros(512, complex), np.zeros(512, complex))
        assert jump_check(unit_circle, zero).max_residual == 0.0

    def test_constant_density(self, unit_circle):
        jr = jump_check(unit_circle, parse("1"))
        assert jr.max_residual <= 1e-4

    def test_interior_factor_times_rough(self, unit_circle):
        g = sawtooth_density(unit_circle)
        h_plus = boundary_samples(parse("exp(z)"), unit_circle)
        jr = jump_check(unit_circle, dc_mul(h_plus, g))
        assert jr.max_residual <= 1e-3

    def test_exterior_factor_times_rough(self, unit_circle):
        g = sawtooth_density(unit_circle)
        h_minus = boundary_samples(parse("exp(1/tau)"), unit_circle)
        jr = jump_check(unit_circle, dc_mul(h_minus, g))
        assert jr.max_residual <= 1e-3

    def test_square_smooth_nodes(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=512)
        jr = jump_check(c, parse("tau"))
        assert jr.skipped_corners > 0
        assert jr.max_residual <= 1e-3


def taylor_coeffs(f, center, contour, n_max):
    """c_n = (1 / (2 pi i)) closed integral of f(tau) (tau - center)^(-n-1),
    by the contour quadrature that the moment conditions use."""
    q = dc_inv(dc_sub(contour.values(), center.value()))
    samples, power, out = boundary_samples(f, contour), q, []
    for _ in range(n_max + 1):
        c = contour_integral(contour, dc_mul(samples, power))
        out.append(DualComplex(c.c1 / (2j * np.pi), c.c2 / (2j * np.pi)))
        power = dc_mul(power, q)
    return out


class TestTaylor:
    """Cauchy's formula for the power series coefficients, through
    ``contour_integral``."""

    def test_square_function(self, bih, unit_circle):
        coeffs = taylor_coeffs(parse("z^2"), bih.embed(0, 0), unit_circle, 3)
        want = [0, 0, 1, 0]
        for c, w in zip(coeffs, want):
            assert norm_of(dc_sub(c, DualComplex(w, 0))) < 1e-8

    def test_constant(self, bih, unit_circle):
        k = DualComplex(2.5, -1j)
        coeffs = taylor_coeffs(lambda p: DualComplex(
            np.full(np.shape(p.x), k.c1), np.full(np.shape(p.x), k.c2)),
            bih.embed(0, 0), unit_circle, 4)
        assert norm_of(dc_sub(coeffs[0], k)) < 1e-10
        assert all(norm_of(c) < 1e-10 for c in coeffs[1:])

    def test_exponential_series(self, bih, unit_circle):
        import math
        coeffs = taylor_coeffs(parse("exp(z)"), bih.embed(0, 0), unit_circle, 8)
        for n, c in enumerate(coeffs):
            want = 1.0 / math.factorial(n)
            assert abs(c.c1 - want) < 1e-8, n
            assert abs(c.c2) < 1e-8, n

    def test_center_must_be_interior(self, bih, unit_circle):
        # about a centre outside the curve every integrand is monogenic
        # inside it, so the formula gives no series: all coefficients vanish
        coeffs = taylor_coeffs(parse("z"), bih.embed(2.0, 0.0), unit_circle, 2)
        assert all(norm_of(c) < 1e-10 for c in coeffs)

    def test_series_reproduces_function(self, bih, unit_circle):
        f = parse("exp(z)*z^2")
        coeffs = taylor_coeffs(f, bih.embed(0, 0), unit_circle, 12)
        pt = bih.embed(0.3, 0.2)
        z = pt.value()
        acc = DualComplex(0j, 0j)
        power = DualComplex(1 + 0j, 0j)
        for c in coeffs:
            acc = acc + dc_mul(c, power)
            power = dc_mul(power, z)
        assert norm_of(dc_sub(acc, evaluate(f, z=pt))) < 1e-9


class TestLogResidue:
    """The logarithmic residue of G is the winding that ``compute_index``
    tracks: zeros minus poles of the complex part inside the curve."""

    def test_simple_zero(self, unit_circle):
        r = compute_index(unit_circle, parse("tau-(0.3+0.2i)"))
        assert r.kappa == 1
        assert abs(r.raw - 1) < 1e-6

    def test_constant_no_zeros(self, unit_circle):
        r = compute_index(unit_circle, parse("2+rho"))
        assert r.kappa == 0
        assert abs(r.raw) < 1e-12

    def test_double_zero(self, unit_circle):
        r = compute_index(unit_circle, parse("(tau-0.4)^2"))
        assert r.kappa == 2
        assert abs(r.raw - 2) < 1e-6

    def test_exterior_region_counts(self, unit_circle):
        # zero at 3 (outside), pole at 0 (inside): the exterior region holds
        # -kappa = 1 zero, infinity included
        r = compute_index(unit_circle, parse("(tau-3)/tau"))
        assert -r.kappa == 1
        assert abs(r.raw + 1) < 1e-6

    def test_vanishing_on_contour_rejected(self, unit_circle):
        # node 128 of 512 is i up to rounding in its real part
        with pytest.raises(NotInvertibleOnContourError):
            compute_index(unit_circle, parse("tau-1i"))

    def test_inconsistent_derivative_detected(self, unit_circle):
        # a branch that assumes the wrong zero count does not close
        with pytest.raises(ClosureFailureError):
            continuous_log(unit_circle, parse("tau-0.3"), 0)


def triangle(bih, *vertices):
    """A triangle contour; its vertices may come in either orientation."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return polygon_contour(bih, vertices, nodes=48)


class TestMorera:
    """Closed integrals over triangles, through ``contour_integral``:
    small for monogenic functions, order one for others."""

    def test_monogenic_cube(self, bih, rng):
        for _ in range(5):
            pts = rng.uniform(-0.6, 0.6, size=(3, 2))
            u, v = pts[1] - pts[0], pts[2] - pts[0]
            if abs(u[0] * v[1] - u[1] * v[0]) < 0.05:
                continue
            assert norm_of(contour_integral(triangle(bih, *pts), parse("z^3"))) <= 1e-8

    def test_non_monogenic_conjugate_like(self, bih):
        def conj_like(p: PointE) -> DualComplex:
            return DualComplex(np.conjugate(p.xi1), np.zeros_like(p.xi1))

        res = norm_of(contour_integral(triangle(bih, (0, 0), (1, 0), (0, 1)),
                                       conj_like))
        assert res > 1e-2  # 2 * area for the conjugate

    def test_nearest_node_lookup_promotion(self, bih, unit_circle):
        g = sawtooth_density(unit_circle)

        def promoted(p: PointE) -> DualComplex:
            ang = np.mod(np.arctan2(p.y, p.x) / (2 * np.pi), 1.0)
            k = np.asarray(np.rint(ang * unit_circle.n), dtype=int) % unit_circle.n
            return DualComplex(np.asarray(g.c1)[k], np.asarray(g.c2)[k])

        res = norm_of(contour_integral(
            triangle(bih, (0.1, 0.1), (0.6, 0.2), (0.3, 0.7)), promoted))
        assert res > 1e-4


def quotient_limits(F, p, d=5e-4):
    """Difference quotients of F at p along e1, e2 and their diagonal, each
    extrapolated to zero step from the steps d and d/2."""
    basis, f0, out = p.basis, F(p), []
    for ux, uy in ((1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5))):
        q = [dc_mul(dc_sub(F(PointE(p.x + ux * h, p.y + uy * h, basis)), f0),
                    dc_inv(basis.vector(ux * h, uy * h))) for h in (d, d / 2)]
        out.append(DualComplex(2 * q[1].c1 - q[0].c1, 2 * q[1].c2 - q[0].c2))
    return out


class TestMonogenicity:
    """A Cauchy-type integral is monogenic off the curve: its difference
    quotients have one limit in every direction."""

    def integral(self, bih, text, center=(0.0, 0.0)):
        c = circle_contour(bih, center=center, radius=2.0, nodes=256)
        return CauchyIntegralFn(c, boundary_samples(parse(text), c))

    def test_square_at_e1(self, bih):
        p = bih.embed(1.0, 0.0)
        want = dc_mul(DualComplex(2, 0), p.value())
        for v in quotient_limits(self.integral(bih, "z^2"), p):
            assert norm_of(dc_sub(v, want)) <= 1e-5

    def test_constant(self, bih):
        for v in quotient_limits(self.integral(bih, "2+3i"), bih.embed(0.2, 0.4)):
            assert norm_of(v) < 1e-10

    def test_log_derivative(self, bih):
        fn = self.integral(bih, "ln(z)", center=(2.5, 0.0))
        for v in quotient_limits(fn, bih.embed(2.0, 0.0)):
            assert abs(v.c1 - 0.5) < 1e-4

    def test_matches_symbolic_derivative(self, bih, rng):
        for text, deriv in (("z^3", "3*z^2"), ("exp(z)", "exp(z)"),
                            ("z*exp(z)", "(1+z)*exp(z)"), ("1/(z+3)", "-1/(z+3)^2")):
            p = bih.embed(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
            want = evaluate(parse(deriv), z=p)
            for v in quotient_limits(self.integral(bih, text), p):
                assert norm_of(dc_sub(v, want)) < 1e-4, text


class TestComponentDecompose:
    """A function of z built from the algebra splits as
    f(zeta) = F(xi1) + xi2 F'(xi1) rho: its complex part sees xi1 alone."""

    def grid(self, bih, rng):
        x = rng.uniform(-0.7, 0.7, 60)
        y = rng.uniform(-0.7, 0.7, 60)
        return PointE(x, y, bih)

    def test_square_function(self, bih, rng):
        g = self.grid(bih, rng)
        v = evaluate(parse("z^2"), z=g)
        w, xi2 = np.asarray(g.value().c1), np.asarray(g.value().c2)
        assert np.max(np.abs(v.c1 - w ** 2)) < 1e-10
        assert np.max(np.abs(v.c2 - 2 * w * xi2)) < 1e-10

    def test_constant(self, bih, rng):
        v = evaluate(parse("2+rho"), z=self.grid(bih, rng))
        assert np.max(np.abs(np.asarray(v.c1) - 2.0)) < 1e-12

    def test_exponential(self, bih, rng):
        g = self.grid(bih, rng)
        v = evaluate(parse("exp(z)"), z=g)
        w, xi2 = np.asarray(g.value().c1), np.asarray(g.value().c2)
        assert np.max(np.abs(v.c1 - np.exp(w))) < 1e-10
        assert np.max(np.abs(v.c2 - xi2 * np.exp(w))) < 1e-10
