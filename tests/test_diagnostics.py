import tracemalloc

import numpy as np
import pytest

from dualrbvp import (
    DualComplex,
    circle_contour,
    dini_estimate,
    explicit_contour,
    modulus_of_continuity,
    parse,
    polygon_contour,
    dc_norm,
    evaluate,
    regularity_report,
    theta_measure,
)
from dualrbvp.algebra import PointE
from dualrbvp.diagnostics import ANCHOR_COUNT, DINI_LEVELS, ETA_RATIO
from dualrbvp.integral import boundary_samples


class TestModulusOfContinuity:
    def test_constant_is_flat(self, unit_circle):
        eps, omega = modulus_of_continuity(unit_circle, parse("2+3i"))
        assert np.max(omega) == 0.0

    def test_identity_slope_matches_embedding(self, bih, unit_circle):
        eps, omega = modulus_of_continuity(unit_circle, parse("tau"))
        # g(tau) = tau is Lipschitz with constant max ||unit direction in E||
        ang = np.linspace(0, 2 * np.pi, 720)
        lip = float(np.max(np.hypot(np.abs(bih.embed(np.cos(ang), np.sin(ang)).xi1),
                                    np.abs(bih.embed(np.cos(ang), np.sin(ang)).xi2))))
        small = eps <= 0.25 * eps.max()
        slope = np.polyfit(eps[small], omega[small], 1)[0]
        assert abs(slope - lip) / lip < 0.1

    def test_saturation_at_diameter(self, unit_circle):
        vals = boundary_samples(parse("tau"), unit_circle)
        d1 = np.asarray(vals.c1)
        d2 = np.asarray(vals.c2)
        gap = np.hypot(np.abs(d1[:, None] - d1[None, :]),
                       np.abs(d2[:, None] - d2[None, :]))
        eps, omega = modulus_of_continuity(unit_circle, parse("tau"),
                                           eps_grid=[3.0])
        assert omega[0] == pytest.approx(float(gap.max()), rel=1e-12)

    def test_monotone(self, unit_circle):
        eps, omega = modulus_of_continuity(unit_circle, parse("exp(tau)"))
        assert np.all(np.diff(omega) >= -1e-15)


class TestDiniEstimate:
    def test_constant_is_zero(self, unit_circle):
        assert dini_estimate(unit_circle, parse("5")) == 0.0

    def test_lipschitz_ballpark_and_stability(self, bih):
        c = circle_contour(bih, radius=1.0, nodes=512)
        est = dini_estimate(c, parse("tau"), levels=40)
        # expected scale: integral of Lip * eta / eta against ~2 d eta
        lip = 1.118  # max unit-direction norm in the default basis
        assert 0.5 * 2 * lip < est < 2.0 * 2 * lip
        est_half = dini_estimate(c, parse("tau"), levels=20)
        assert abs(est - est_half) / est < 0.2

    def test_jump_flagged_as_divergent(self, bih):
        c = circle_contour(bih, radius=1.0, nodes=256)

        def with_jump(points: PointE) -> DualComplex:
            sign = np.where(points.y >= 0, 1.0, -1.0).astype(complex)
            return DualComplex(sign, np.zeros_like(sign))

        rep = regularity_report(c, with_jump)
        assert rep.divergence_suspected
        smooth = regularity_report(c, parse("exp(tau)"))
        assert not smooth.divergence_suspected

    def test_report_fields(self, unit_circle):
        rep = regularity_report(unit_circle, parse("tau"))
        assert not rep.is_constant
        assert rep.lipschitz_slope is not None
        assert rep.dini_estimate >= rep.dini_half_depth > 0
        const = regularity_report(unit_circle, parse("1"))
        assert const.is_constant


def _reference_report(contour, g):
    """The report built the direct way: a full N x N modulus on each grid
    and one scalar theta per anchor and eta."""
    vals = boundary_samples(g, contour)
    xy = contour.xy
    dist = np.hypot(xy[:, 0][:, None] - xy[:, 0][None, :],
                    xy[:, 1][:, None] - xy[:, 1][None, :])
    d1 = np.asarray(vals.c1)
    d2 = np.asarray(vals.c2)
    gap = np.hypot(np.abs(d1[:, None] - d1[None, :]),
                   np.abs(d2[:, None] - d2[None, :]))

    def omega_at(grid):
        return np.array([gap[dist <= e].max() for e in grid])

    lo = float(dist[dist > 0].min())
    hi = float(dist.max())
    m = int(np.ceil(np.log(hi / lo) / np.log(2.0))) + 1
    eps = hi / (2.0 ** np.arange(m))[::-1]
    omega = omega_at(eps)
    eta = 1.0 / (ETA_RATIO ** np.arange(DINI_LEVELS + 1))
    eta = eta[eta >= contour.max_spacing]
    om_eta = omega_at(eta)
    anchors = np.linspace(0, contour.n, ANCHOR_COUNT, endpoint=False).astype(int)
    sums = []
    for k in anchors:
        theta = np.array([theta_measure(contour, k, e) for e in eta])
        sums.append(np.cumsum((om_eta[:-1] / eta[1:]) * (theta[:-1] - theta[1:])))
    partial = np.max(sums, axis=0)
    full = float(partial[-1])
    half = float(partial[(len(partial) - 1) // 2])
    small = eps <= 0.25 * eps.max()
    slope = float(np.polyfit(eps[small], omega[small], 1)[0])
    return eps, omega, full, half, slope, full / half > 1.8


L_SHAPE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]


class TestReportAgainstReference:
    @pytest.mark.parametrize("case", ["exp-circle", "square-tau2",
                                      "l-shape-pole", "explicit-exp"])
    def test_all_fields(self, bih, unit_circle, case):
        """omega is a maximum over the same pairs, so it is exact; the Dini
        sums add the same terms in another order."""
        if case == "exp-circle":
            c, g = unit_circle, parse("exp(tau)")
        elif case == "square-tau2":
            c, g = polygon_contour(bih, [[-1, -1], [1, -1], [1, 1], [-1, 1]],
                                   nodes=128), parse("tau^2")
        elif case == "l-shape-pole":
            c, g = polygon_contour(bih, L_SHAPE, nodes=200), parse("1/(tau-3)")
        else:
            t = 2 * np.pi * np.arange(150) / 150
            c = explicit_contour(bih, np.stack(
                [1.3 * np.cos(t) + 0.1 * np.cos(3 * t), 0.9 * np.sin(t)], axis=1))
            g = parse("tau*exp(tau)")
        eps, omega, full, half, slope, divergent = _reference_report(c, g)
        rep = regularity_report(c, g)
        np.testing.assert_array_equal(rep.eps_grid, eps)
        np.testing.assert_array_equal(rep.omega, omega)
        assert rep.dini_estimate == pytest.approx(full, rel=1e-12)
        assert rep.dini_half_depth == pytest.approx(half, rel=1e-12)
        assert rep.lipschitz_slope == pytest.approx(slope, rel=1e-12)
        assert rep.divergence_suspected == divergent
        assert not rep.is_constant


class TestConstantAndMemory:
    @pytest.mark.parametrize("value", ["1", "2+3i"])
    def test_constant_function(self, bih, value):
        c = polygon_contour(bih, L_SHAPE, nodes=128)
        rep = regularity_report(c, parse(value))
        assert rep.is_constant
        assert not rep.omega.any() and rep.omega.shape == rep.eps_grid.shape
        assert rep.dini_estimate == 0.0 and rep.dini_half_depth == 0.0
        assert rep.lipschitz_slope is None and not rep.divergence_suspected

    def test_report_memory_is_bounded(self, bih):
        """4096 nodes have 8.4e6 pairs; the report works in row blocks and
        keeps no pair table, so the peak stays a few MB."""
        c = circle_contour(bih, radius=1.0, nodes=4096)
        tracemalloc.start()
        try:
            rep = regularity_report(c, parse("exp(tau)"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.omega.max() > 0 and not rep.divergence_suspected
        assert peak < 32 * 2 ** 20, peak / 2 ** 20


def sup_norm(f, points) -> float:
    """Largest value norm of an expression over a point set, or of a sample
    set when ``points`` is None."""
    vals = f if points is None else evaluate(f, z=points)
    return float(np.max(dc_norm(vals)))


class TestSupNorm:
    def test_zero(self, bih, rng):
        pts = PointE(rng.normal(size=50), rng.normal(size=50), bih)
        assert sup_norm(parse("0"), pts) == 0.0

    def test_identity_on_disk_converges_from_below(self, bih, rng):
        vals = []
        for n in (100, 1000, 10000):
            ang = rng.uniform(0, 2 * np.pi, n)
            r = np.sqrt(rng.uniform(0, 1, n))
            pts = PointE(r * np.cos(ang), r * np.sin(ang), bih)
            vals.append(sup_norm(parse("z"), pts))
        assert vals[0] <= vals[2] + 1e-12
        assert vals[2] <= 1.118034 + 1e-6  # boundary maximum in this basis

    def test_monotone_under_inclusion(self, bih, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        small = PointE(x[:50], y[:50], bih)
        large = PointE(x, y, bih)
        f = parse("exp(z)")
        assert sup_norm(f, small) <= sup_norm(f, large) + 1e-15

    def test_precomputed_samples(self, rng):
        vals = DualComplex(rng.normal(size=20) + 0j, rng.normal(size=20) + 0j)
        assert sup_norm(vals, None) == pytest.approx(
            float(np.max(np.hypot(np.abs(vals.c1), np.abs(vals.c2)))))
