import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrbvp import (
    build_contour,
    circle_contour,
    ellipse_contour,
    explicit_contour,
    polygon_contour,
    theta_measure,
)
from dualrbvp.contour import PAIR_CHUNK, _trig_derivative, _trig_eval, _trig_interp
from dualrbvp.errors import (
    ContourError,
    CornerNodeError,
    EmptySpecError,
    SelfIntersectingError,
)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


def ellipse_perimeter(a, b):
    """Closed form by the arithmetic-geometric mean: 2 pi (a^2 - sum
    2^(n-1) c_n^2) / M(a, b), with c_0^2 = a^2 - b^2."""
    a2, s, k = a * a, 0.5 * (a * a - b * b), 0
    while True:
        c = (a - b) / 2.0
        a, b, k = (a + b) / 2.0, np.sqrt(a * b), k + 1
        s += 2.0 ** (k - 1) * c * c
        if c * c < 1e-18:
            return 2.0 * np.pi * (a2 - s) / a


class TestBuild:
    def test_circle_length(self, bih):
        c = circle_contour(bih, radius=1.0, nodes=512)
        assert abs(c.length - 2 * np.pi) < 1e-10

    def test_explicit_contour_is_not_rebuilt(self, bih):
        c = explicit_contour(bih, circle_contour(bih, nodes=64).xy)
        with pytest.raises(ContourError, match="explicit contour"):
            c.rebuilt(256)

    def test_circle_length_stable_under_doubling(self, bih):
        c1 = circle_contour(bih, radius=1.0, nodes=512)
        c2 = c1.rebuilt(1024)
        assert abs(c2.length - c1.length) / c1.length < 1e-6

    def test_chord_length_second_order(self, bih):
        errs = []
        for n in (64, 128, 256):
            c = circle_contour(bih, radius=1.0, nodes=n)
            chord = np.hypot(*(np.roll(c.xy, -1, axis=0) - c.xy).T).sum()
            errs.append(abs(chord - 2 * np.pi))
        assert errs[0] / errs[1] > 3.5
        assert errs[1] / errs[2] > 3.5

    def test_square_perimeter(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=512)
        assert c.length == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("center, axes, n", [
        ((0.0, 0.0), (1.0, 1.0), 16), ((0.0, 0.0), (1.0, 1.0), 256),
        ((0.3, -0.2), (1.7, 1.7), 384), ((0.0, 0.0), (1.5, 0.8), 192)])
    def test_trapezoid_rule_closed_forms(self, bih, center, axes, n):
        # weights are dtau/dt / N of the parametrization, read off the nodes
        a, b = axes
        c = (circle_contour(bih, center=center, radius=a, nodes=n) if a == b
             else ellipse_contour(bih, center=center, semi_axes=axes, nodes=n))
        ang = 2 * np.pi * np.arange(n) / n
        d = 2 * np.pi * np.stack([-a * np.sin(ang), b * np.cos(ang)], axis=1)
        speed = np.hypot(d[:, 0], d[:, 1])
        assert np.max(np.abs(c.w_xy - d / n)) < 1e-13
        assert np.max(np.abs(c.tangent - d / speed[:, None])) < 1e-13
        assert abs(c.length - ellipse_perimeter(max(a, b), min(a, b))) < 1e-13

    def test_explicit_ellipse_has_the_parametric_length(self, bih):
        pts = ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=128).xy
        c = explicit_contour(bih, pts)
        assert abs(c.length - ellipse_perimeter(1.5, 0.8)) < 1e-12

    def test_clockwise_spec_still_loads(self, bih):
        c = build_contour(bih, {"kind": "circle", "nodes": 64, "clockwise": True})
        assert c.xy_ccw
        assert np.array_equal(c.xy, circle_contour(bih, nodes=64).xy)

    def test_clockwise_polygon_reversed(self, bih):
        with pytest.warns(UserWarning):
            c = polygon_contour(bih, SQUARE[::-1], nodes=64)
        assert c.xy_ccw

    def test_invalid_specs(self, bih):
        with pytest.raises(EmptySpecError):
            circle_contour(bih, radius=-1.0)
        with pytest.raises(EmptySpecError):
            ellipse_contour(bih, nodes=2)
        with pytest.raises(EmptySpecError):
            polygon_contour(bih, [[0, 0], [1, 1]])
        with pytest.raises(EmptySpecError):
            build_contour(bih, {})

    def test_self_intersection_detected(self, bih):
        bowtie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(SelfIntersectingError):
            polygon_contour(bih, bowtie, nodes=64)

    def test_build_dispatch(self, bih):
        c = build_contour(bih, {"kind": "ellipse", "semi_axes": [1.5, 0.8],
                                "nodes": 256})
        assert c.kind == "ellipse"
        e = build_contour(bih, {"kind": "explicit",
                                "points": circle_contour(bih, nodes=64).xy.tolist()})
        assert e.kind == "explicit"

    def test_node_parameters_uniform(self, unit_circle):
        assert np.allclose(unit_circle.t, np.arange(512) / 512)


class TestInteriorTest:
    """``interior_mask`` codes: 1 interior, 0 exterior, -1 in the guard band."""

    def test_unit_circle_origin(self, unit_circle):
        assert unit_circle.interior_mask(0.0, 0.0).tolist() == [1]

    def test_unit_circle_far_point(self, unit_circle):
        assert unit_circle.interior_mask(3.0, 0.0).tolist() == [0]

    def test_near_boundary_guard(self, unit_circle):
        assert unit_circle.interior_mask(1.0 - 1e-9, 0.0).tolist() == [-1]

    def test_matches_analytic_sign_test(self, bih, rng):
        for kind, contour, inside in (
            ("circle", circle_contour(bih, center=(0.2, -0.1), radius=1.3, nodes=512),
             lambda x, y: np.hypot(x - 0.2, y + 0.1) < 1.3),
            ("ellipse", ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=512),
             lambda x, y: (x / 1.5) ** 2 + (y / 0.8) ** 2 < 1.0),
        ):
            x = rng.uniform(-2.5, 2.5, size=1000)
            y = rng.uniform(-2.5, 2.5, size=1000)
            code = contour.interior_mask(x, y)
            ok = code != -1
            assert np.array_equal(code[ok] == 1, inside(x, y)[ok]), kind


L_SHAPE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]


def brute_force_distance(contour, x, y):
    """Distance to the node polyline from (M, N, 2) projections onto every
    segment."""
    p = np.stack([x, y], axis=1)
    a = contour.xy
    ab = np.roll(contour.xy, -1, axis=0) - a
    ap = p[:, None, :] - a[None, :, :]
    s = np.clip((ap * ab[None]).sum(-1) / (ab * ab).sum(-1)[None], 0.0, 1.0)
    closest = a[None] + s[..., None] * ab[None]
    return np.hypot(*(p[:, None, :] - closest).transpose(2, 0, 1)).min(axis=1)


def angle_sum_winding(contour, x, y):
    """Winding of the node polyline by summing the angle each edge subtends."""
    a = contour.xy
    b = np.roll(contour.xy, -1, axis=0)
    v1x, v1y = a[None, :, 0] - x[:, None], a[None, :, 1] - y[:, None]
    v2x, v2y = b[None, :, 0] - x[:, None], b[None, :, 1] - y[:, None]
    ang = np.arctan2(v1x * v2y - v1y * v2x, v1x * v2x + v1y * v2y)
    return np.rint(ang.sum(axis=1) / (2.0 * np.pi)).astype(int)


class TestDistanceAndWinding:
    @pytest.mark.parametrize("kind", ["circle", "ellipse", "polygon", "explicit"])
    def test_dist_to_matches_brute_force(self, bih, rng, kind):
        c = {"circle": lambda: circle_contour(bih, center=(0.2, -0.1), nodes=256),
             "ellipse": lambda: ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=192),
             "polygon": lambda: polygon_contour(bih, L_SHAPE, nodes=128),
             "explicit": lambda: explicit_contour(
                 bih, ellipse_contour(bih, semi_axes=(1.2, 0.7), nodes=128).xy),
             }[kind]()
        mid = (c.xy + np.roll(c.xy, -1, axis=0)) / 2.0
        lo, hi = c.xy.min(axis=0) - 0.5, c.xy.max(axis=0) + 0.5
        x = np.concatenate([rng.uniform(lo[0], hi[0], 3000), c.xy[:, 0], mid[:, 0]])
        y = np.concatenate([rng.uniform(lo[1], hi[1], 3000), c.xy[:, 1], mid[:, 1]])
        got = c.dist_to(x, y)
        assert got.shape == x.shape
        assert np.max(np.abs(got - brute_force_distance(c, x, y))) <= 1e-14
        assert np.all(got[3000:3000 + c.n] == 0.0)

    def test_dist_to_chunks_match_one_query_per_target(self, bih, rng):
        """0, 1 and chunk + 1 targets: the reused planes give each target
        exactly what a query of its own gives."""
        c = polygon_contour(bih, L_SHAPE, nodes=128)
        chunk = PAIR_CHUNK // c.n
        x = rng.uniform(-0.5, 2.5, chunk + 1)
        y = rng.uniform(-0.5, 2.5, chunk + 1)
        got = c.dist_to(x, y)
        want = np.concatenate([c.dist_to(x[k], y[k]) for k in range(x.size)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(c.dist_to(x[-1:], y[-1:]), got[-1:])
        assert c.dist_to([], []).shape == (0,)

    def test_winding_of_l_shape_matches_angle_sum(self, bih, rng):
        c = polygon_contour(bih, L_SHAPE, nodes=128)
        # points at vertex heights and in the notch, then random ones
        x = np.concatenate([[0.5, 3.0, -1.0, -1.0, 3.0, 1.5, 0.5, 1.5],
                            rng.uniform(-0.5, 2.5, 4000)])
        y = np.concatenate([[1.0, 1.0, 1.0, 2.0, 0.0, 1.5, 1.5, 0.5],
                            rng.uniform(-0.5, 2.5, 4000)])
        keep = brute_force_distance(c, x, y) > 1e-6
        x, y = x[keep], y[keep]
        got = c.winding_number(x, y)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, angle_sum_winding(c, x, y))
        assert list(got[:8]) == [1, 0, 0, 0, 0, 0, 1, 1]
        assert 0 < got.sum() < got.size


def dense_theta(contour, node_index, eps):
    """theta on full (anchors, eps, segments) planes: every segment clipped
    by the quadratic |p(s) - tau|^2 = eps^2."""
    eps = np.asarray(eps, dtype=float)
    k = np.asarray(node_index, dtype=int) % contour.n
    a = contour.xy
    d = np.roll(a, -1, axis=0) - a
    seg_arc = np.diff(np.append(contour.cum_len, contour.length))
    f = a - a[k][..., None, :]
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
    return (frac * seg_arc).sum(axis=-1)


class TestThetaMeasure:
    @pytest.mark.parametrize("kind", ["circle", "square", "l-shape"])
    def test_sweep_matches_dense_clipping(self, bih, kind):
        """Radii on a refined dyadic grid and radii equal to node-to-node
        distances, at anchors that include a corner node of the square and
        the reflex corner of the L-shaped polygon."""
        c = {"circle": lambda: circle_contour(bih, nodes=384),
             "square": lambda: polygon_contour(bih, SQUARE, nodes=128),
             "l-shape": lambda: polygon_contour(bih, L_SHAPE, nodes=200)}[kind]()
        corner = int(np.argmin(np.hypot(*(c.xy - [1.0, 1.0]).T)))
        anchors = np.unique(np.r_[np.linspace(0, c.n, 16, endpoint=False)
                                  .astype(int), 0, corner])
        xy = c.xy
        node_dist = np.hypot(*(xy[anchors, None, :] - xy[None, :, :])
                             .transpose(2, 0, 1))
        eps = np.concatenate([2.0 ** (-np.arange(0, 40) / 4.0),
                              node_dist[:, 1:40:3].ravel()])
        eps = eps[eps > 0]
        got = theta_measure(c, anchors[:, None], eps[None, :])
        want = dense_theta(c, anchors[:, None], eps[None, :])
        assert got.shape == want.shape == (anchors.size, eps.size)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_saturates_at_full_length(self, unit_circle):
        assert theta_measure(unit_circle, 0, 2.5) == pytest.approx(
            unit_circle.length, rel=1e-6)

    def test_small_ball_chord_to_arc(self, unit_circle):
        got = theta_measure(unit_circle, 0, 0.1)
        assert got == pytest.approx(4 * np.arcsin(0.05), abs=1e-3)

    def test_monotone_and_vanishing(self, unit_circle):
        eps = [0.4, 0.2, 0.1, 0.05, 0.025]
        vals = [theta_measure(unit_circle, 17, e) for e in eps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.06
        assert all(v <= unit_circle.length + 1e-12 for v in vals)

    def test_rejects_nonpositive_eps(self, unit_circle):
        with pytest.raises(ValueError):
            theta_measure(unit_circle, 0, 0.0)
        with pytest.raises(ValueError):
            theta_measure(unit_circle, np.arange(4)[:, None],
                          np.array([[0.5, 0.1, -0.2]]))

    @pytest.mark.parametrize("kind", ["circle", "square"])
    def test_array_form_matches_scalar_calls(self, bih, unit_circle, kind):
        c = unit_circle if kind == "circle" else polygon_contour(bih, SQUARE, nodes=128)
        nodes = np.array([0, 3, 17, 64, c.n - 1])
        eps = np.array([2.5, 0.4, 0.1, 0.03, 1e-3])
        got = theta_measure(c, nodes[:, None], eps[None, :])
        want = np.array([[theta_measure(c, k, e) for e in eps] for k in nodes])
        assert got.shape == (len(nodes), len(eps))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert isinstance(theta_measure(c, 3, 0.1), float)
        assert theta_measure(c, 3, eps).shape == eps.shape


class TestGeometryHelpers:
    def test_point_at_matches_nodes(self, bih):
        for c in (circle_contour(bih, nodes=64),
                  ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=64),
                  explicit_contour(bih, circle_contour(bih, nodes=64).xy)):
            got = c.point_at(c.t)
            assert np.max(np.abs(got - c.xy)) < 1e-12, c.kind

    def test_point_at_is_the_refined_curve(self, bih):
        # one trigonometric interpolant gives both, for every smooth kind
        for c in (circle_contour(bih, radius=1.3, nodes=64),
                  ellipse_contour(bih, semi_axes=(1.5, 0.8), nodes=64),
                  explicit_contour(bih, ellipse_contour(
                      bih, semi_axes=(1.5, 0.8), nodes=128).xy)):
            xy_up, _ = c.refined_geometry()
            got = c.point_at(np.arange(len(xy_up)) / len(xy_up))
            assert np.max(np.abs(got - xy_up)) < 1e-13, c.kind

    def test_polygon_point_at_lands_on_edges(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=128)
        pts = c.point_at(np.linspace(0, 1, 37, endpoint=False))
        on_square = np.maximum(np.abs(pts[:, 0]), np.abs(pts[:, 1]))
        assert np.max(np.abs(on_square - 1.0)) < 1e-12

    def test_corner_mask_square(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=512)
        assert c.corner_mask.any()
        assert (~c.corner_mask).sum() > 0.6 * c.n
        corner_xy = c.xy[c.corner_mask]
        vert_dist = np.min(
            [np.hypot(corner_xy[:, 0] - vx, corner_xy[:, 1] - vy)
             for vx, vy in SQUARE], axis=0)
        panel_len = 2.0 / 16  # edge length 2, 128 nodes per edge in 16 panels
        assert np.max(vert_dist) < 1.05 * panel_len

    def test_inward_normals_point_inside(self, bih, unit_circle):
        nrm = unit_circle.inward_normals()
        probe = unit_circle.xy + 0.05 * nrm
        assert np.all(np.hypot(probe[:, 0], probe[:, 1]) < 1.0)

    def test_content_hash_deterministic(self, bih):
        a = circle_contour(bih, nodes=128).content_hash()
        b = circle_contour(bih, nodes=128).content_hash()
        c = circle_contour(bih, nodes=256).content_hash()
        assert a == b != c

    def test_guard_band_scale(self, unit_circle):
        assert unit_circle.guard_band == pytest.approx(
            3 * unit_circle.max_spacing)
        assert unit_circle.max_spacing == pytest.approx(2 * np.pi / 512, rel=1e-3)

    def test_no_smooth_node_is_a_corner_error(self, bih):
        c = polygon_contour(bih, SQUARE, nodes=64)
        assert c.corner_mask.all()
        with pytest.raises(CornerNodeError):
            c.smooth_indices()


class TestTrigInterp:
    def test_nyquist_mode_is_not_doubled(self):
        up = _trig_interp(np.array([1.0, -1.0] * 4), 16)
        assert np.allclose(up, np.cos(np.pi * np.arange(16) / 2), atol=1e-12)

    def test_odd_count_keeps_the_highest_mode(self):
        # with 7 samples, mode 3 must stay mode 3, not alias to mode -4
        t = np.arange(7) / 7
        tq = np.arange(28) / 28
        f = np.cos(6 * np.pi * t)
        assert np.max(np.abs(_trig_interp(f, 28) - np.cos(6 * np.pi * tq))) < 1e-13
        assert np.max(np.abs(_trig_derivative(f, 28)
                             + 6 * np.pi * np.sin(6 * np.pi * tq))) < 1e-12

    @pytest.mark.parametrize("n", [7, 8])
    def test_eval_matches_interp_at_uniform_parameters(self, rng, n):
        f = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        m = 5 * n
        got = _trig_eval(f, np.arange(m) / m)
        assert got.shape == (m, 2)
        assert np.max(np.abs(got.T - _trig_interp(f, m))) < 1e-13
        assert np.max(np.abs(_trig_eval(f[0].real, np.arange(m) / m)
                             - _trig_interp(f[0].real, m))) < 1e-13

    @settings(max_examples=60)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=33),
           factor=st.integers(2, 8))
    @example(values=[1.0, -1.0, 1.0, -1.0], factor=2)
    @example(values=[0.5, 2.0, -1.0], factor=3)
    def test_upsampled_signal_reproduces_its_nodes(self, values, factor):
        f = np.asarray(values)
        up = _trig_interp(f, factor * len(f))
        scale = max(1.0, float(np.max(np.abs(f))))
        assert np.max(np.abs(up[::factor] - f)) <= 1e-12 * len(f) * scale
