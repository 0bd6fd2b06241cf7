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
from dualrbvp.contour import PAIR_CHUNK
from dualrbvp.integral import (
    CHECK_NODES,
    N_OFFSETS,
    OFFSET_SPACING_FACTOR,
    CauchyIntegralFn,
    _kernel_sum,
    _node_kernel_sum,
    _refined_panel_integral,
    boundary_samples,
    boundary_values,
)
from dualrbvp.errors import (
    ClosureFailureError,
    CornerNodeError,
    NotInvertibleOnContourError,
    TooCloseToBoundaryError,
)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


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


@pytest.fixture(scope="session")
def kernel_contours(bih):
    t = 2 * np.pi * np.arange(128) / 128
    return {"circle": circle_contour(bih, radius=1.0, nodes=128),
            "explicit-ellipse": explicit_contour(
                bih, np.stack([1.4 * np.cos(t), 0.9 * np.sin(t)], axis=1)),
            "square": polygon_contour(bih, SQUARE, nodes=128)}


def reference_cauchy(contour, dens, pts):
    """Per-pair Cauchy sums, one target and one density at a time: the
    native rule outside the guard band, the refined rule inside it."""
    if contour.kind == "polygon":
        near_rule = _refined_panel_integral(contour, dens)
    else:
        xy_up, w_up = contour.refined_geometry()
        near_rule = (contour.basis.vector(xy_up[:, 0], xy_up[:, 1]), w_up,
                     contour.upsample_samples(dens))
    far_rule = (contour.values(), contour.dtau(), dens)
    z = pts.value()
    dist = contour.dist_to(pts.x, pts.y)
    out1, out2 = [], []
    for z1, z2, d in zip(z.c1, z.c2, dist):
        tau, w, f = near_rule if d < contour.guard_band else far_rule
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

    def test_stacked_call_memory_is_bounded(self, bih, rng):
        """16384 targets, near and far, against a 256-node circle: the
        kernel works in fixed chunks, so the peak stays a few MB."""
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
        fn = CauchyIntegralFn(c, dens)
        tracemalloc.start()
        try:
            out = fn(PointE(x, y, bih))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shape(out.c1) == (2, 16384)
        assert peak < 32 * 2 ** 20, peak / 2 ** 20


class TestChunkLoops:
    """The kernel loops reuse one set of planes for every chunk of targets;
    a chunk must see none of the previous chunk's values."""

    @staticmethod
    def _stack(rng, n):
        d = DualComplex(rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)),
                        rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        d.c1[1] = d.c2[1] = 0.0   # a zero row is left out of the products
        return d

    @pytest.mark.parametrize("kind", ["circle", "square"])
    def test_kernel_sum_chunks(self, bih, rng, kind):
        c = (circle_contour(bih, nodes=300) if kind == "circle"
             else polygon_contour(bih, SQUARE, nodes=128))
        dens = self._stack(rng, c.n)
        chunk = PAIR_CHUNK // c.n
        x = rng.uniform(-3.0, 3.0, chunk + 1)
        y = rng.uniform(-3.0, 3.0, chunk + 1)
        z = bih.vector(x, y)

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

    @pytest.mark.parametrize("n", [128, 571])
    def test_node_kernel_sum_chunks(self, bih, rng, n):
        """571 nodes are five chunks of 114 rows and a last one of one row;
        the reference is the same loop on planes allocated per chunk."""
        c = circle_contour(bih, nodes=n)
        dens = self._stack(rng, n)
        got = _node_kernel_sum(c.values(), c.dtau(), dens)
        t1, t2 = c.values().c1, c.values().c2
        w1, w2 = c.dtau().c1, c.dtau().c2
        a = np.ascontiguousarray((dens.c1[[0, 2]] * w1).T)
        b = np.ascontiguousarray((dens.c1[[0, 2]] * w2 + dens.c2[[0, 2]] * w1).T)
        want1 = np.zeros((3, n), dtype=complex)
        want2 = np.zeros((3, n), dtype=complex)
        chunk, scale = max(1, PAIR_CHUNK // n), 1.0 / (2j * np.pi)
        for s in range(0, n, chunk):
            rows = np.arange(s, min(s + chunk, n))
            diag = (np.arange(rows.size), rows)
            u = t1 - t1[rows, None]
            u[diag] = 1.0
            inv_u = 1.0 / u
            inv_u[diag] = 0.0
            q = (t2 - t2[rows, None]) * inv_u * inv_u
            want1[[0, 2], s:s + rows.size] = (inv_u @ a).T * scale
            want2[[0, 2], s:s + rows.size] = (inv_u @ b - q @ a).T * scale
        np.testing.assert_array_equal(got.c1, want1)
        np.testing.assert_array_equal(got.c2, want2)


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
