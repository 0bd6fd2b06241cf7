import numpy as np
import pytest

from dualrbvp import (
    DualComplex,
    build_canonical_X,
    check_solvability,
    circle_contour,
    dc_inv,
    dc_mul,
    dc_norm,
    dc_sub,
    ellipse_contour,
    evaluate,
    explicit_contour,
    parse,
    polygon_contour,
    residual_report,
    solve_auto,
    solve_homogeneous,
    solve_jump,
    solve_nonhomogeneous,
)
from dualrbvp import integral
from dualrbvp.algebra import PointE
from dualrbvp.integral import boundary_defect
from dualrbvp.rbvp import RBVPProblem, Tolerances
from dualrbvp.errors import (
    InputError,
    PolynomialDegreeError,
    UnsolvableError,
)

from conftest import random_dc


def norm_of(c):
    return float(np.max(dc_norm(c)))


def problem(contour, G="1", g="0", coeffs=()):
    return RBVPProblem(contour=contour, G=G, g=g, poly_coeffs=list(coeffs))


class TestJump:
    def test_identity_free_term(self, bih, unit_circle):
        s = solve_jump(problem(unit_circle, g="tau"))
        pin = bih.embed(0.2, 0.3)
        pout = bih.embed(1.8, -0.6)
        assert norm_of(dc_sub(s.plus(pin), pin.value())) < 1e-12
        assert norm_of(s.minus(pout)) < 1e-12

    def test_zero_free_term_gives_constants(self, bih, unit_circle, rng):
        c = random_dc(rng)
        s = solve_jump(problem(unit_circle, g="0", coeffs=[c]))
        for p in (bih.embed(0.1, 0.2), bih.embed(3.0, 0.5)):
            assert norm_of(dc_sub(s.plus(p), c)) < 1e-12

    def test_reciprocal_free_term(self, bih, unit_circle):
        s = solve_jump(problem(unit_circle, g="1/tau"))
        pin = bih.embed(0.2, -0.1)
        pout = bih.embed(2.2, 0.9)
        assert norm_of(s.plus(pin)) < 1e-12
        want = -1 * dc_inv(pout.value())
        assert norm_of(dc_sub(s.minus(pout), want)) < 1e-12
        r = residual_report(s)
        assert r.sup_residual <= 1e-4

    def test_solutions_differ_by_their_constant(self, bih, unit_circle, rng):
        k = random_dc(rng)
        s0 = solve_jump(problem(unit_circle, g="tau"))
        s1 = solve_jump(problem(unit_circle, g="tau", coeffs=[k]))
        p = bih.embed(0.4, 0.1)
        assert norm_of(dc_sub(dc_sub(s1.plus(p), s0.plus(p)), k)) < 1e-12

    def test_rejects_nonconstant_coefficient(self, bih, unit_circle):
        with pytest.raises(InputError):
            solve_jump(problem(unit_circle, G="tau", g="1"))


class TestHomogeneous:
    def test_identity_coefficient_family(self, bih, unit_circle, rng):
        alpha, beta = random_dc(rng), random_dc(rng)
        s = solve_homogeneous(problem(unit_circle, G="tau",
                                      coeffs=[alpha, beta]))
        pin = bih.embed(0.3, -0.2)
        want_in = alpha + dc_mul(beta, pin.value())
        assert norm_of(dc_sub(s.plus(pin), want_in)) < 1e-12
        pout = bih.embed(2.0, 1.0)
        zeta = pout.value()
        want_out = dc_mul(dc_inv(zeta), alpha + dc_mul(beta, zeta))
        assert norm_of(dc_sub(s.minus(pout), want_out)) < 1e-12
        r = residual_report(s)
        assert r.sup_residual <= 1e-6
        # Phi- tends to beta at infinity
        assert abs(r.infinity_bound - float(dc_norm(beta))) < 0.4 * float(dc_norm(beta)) + 0.1

    def test_constant_coefficient_degenerates_to_constants(self, bih, unit_circle, rng):
        alpha = random_dc(rng)
        s = solve_homogeneous(problem(unit_circle, G="1", coeffs=[alpha]))
        for p in (bih.embed(0.2, 0.1), bih.embed(2.4, -0.4)):
            side = s.plus if p.modulus < 1 else s.minus
            assert norm_of(dc_sub(side(p), alpha)) < 1e-12

    def test_negative_index_trivial_only(self, bih, unit_circle):
        s = solve_homogeneous(problem(unit_circle, G="1/tau"))
        assert s.trivial_only
        assert s.kappa == -1
        assert norm_of(s.plus(bih.embed(0.1, 0.1))) == 0.0
        assert norm_of(s.minus(bih.embed(2.0, 2.0))) == 0.0

    def test_rejects_nonzero_free_term(self, bih, unit_circle):
        with pytest.raises(InputError):
            solve_homogeneous(problem(unit_circle, G="tau", g="1"))

    def test_polynomial_degree_enforced(self, bih, unit_circle, rng):
        coeffs = [random_dc(rng) for _ in range(3)]  # degree 2 > kappa = 1
        with pytest.raises(PolynomialDegreeError):
            solve_homogeneous(problem(unit_circle, G="tau", coeffs=coeffs))


class TestSolvability:
    def test_nonnegative_index_vacuous(self, bih, unit_circle):
        p = problem(unit_circle, G="tau", g="1")
        x = build_canonical_X(unit_circle, p.G)
        rep = check_solvability(p, x)
        assert rep.solvable and rep.moments == []

    def test_zero_moment_solvable(self, bih, unit_circle):
        p = problem(unit_circle, G="1/tau", g="1")
        x = build_canonical_X(unit_circle, p.G)
        rep = check_solvability(p, x)
        assert rep.kappa == -1
        assert rep.solvable
        assert rep.moment_norms[0] <= 1e-10

    def test_nonzero_moment_unsolvable(self, bih, unit_circle):
        p = problem(unit_circle, G="1/tau", g="1/tau")
        x = build_canonical_X(unit_circle, p.G)
        rep = check_solvability(p, x)
        assert not rep.solvable
        assert rep.moment_norms[0] == pytest.approx(2 * np.pi, abs=1e-6)

    def test_moments_stable_under_node_doubling(self, bih):
        norms = []
        for nodes in (512, 1024):
            c = circle_contour(bih, radius=1.0, nodes=nodes)
            p = problem(c, G="1/tau", g="1/tau")
            x = build_canonical_X(c, p.G)
            norms.append(check_solvability(p, x).moment_norms[0])
        assert abs(norms[0] - norms[1]) <= 1e-6


class TestNonhomogeneous:
    def test_constant_coefficient_reduces_to_jump(self, bih, unit_circle, rng):
        g = "exp(i*t)+0.5*rho"
        c0 = random_dc(rng)
        s_jump = solve_jump(problem(unit_circle, g=g, coeffs=[c0]))
        s_gen = solve_nonhomogeneous(
            RBVPProblem(contour=unit_circle, G="1", g=g, poly_coeffs=[c0]))
        assert s_gen.kappa == 0
        for p in (bih.embed(0.35, 0.1), bih.embed(1.9, -0.7)):
            side_j = s_jump.plus if p.modulus < 1 else s_jump.minus
            side_g = s_gen.plus if p.modulus < 1 else s_gen.minus
            assert norm_of(dc_sub(side_j(p), side_g(p))) < 1e-9

    def test_identity_coefficient_unit_free_term(self, bih, unit_circle):
        s = solve_nonhomogeneous(problem(unit_circle, G="tau", g="1"))
        pin = bih.embed(0.25, 0.15)
        pout = bih.embed(2.5, 0.5)
        assert norm_of(dc_sub(s.plus(pin), DualComplex(1, 0))) < 1e-10
        assert norm_of(s.minus(pout)) < 1e-10
        r = residual_report(s)
        assert r.sup_residual <= 1e-4

    def test_negative_index_solvable_case(self, bih, unit_circle):
        s = solve_nonhomogeneous(problem(unit_circle, G="1/tau", g="1"))
        assert s.kappa == -1
        assert s.solvability.solvable
        pin = bih.embed(0.3, -0.3)
        pout = bih.embed(3.0, 1.0)
        assert norm_of(dc_sub(s.plus(pin), DualComplex(1, 0))) < 1e-10
        assert norm_of(s.minus(pout)) < 1e-10
        r = residual_report(s)
        assert r.sup_residual <= 1e-4

    def test_unsolvable_raises_with_report(self, bih, unit_circle):
        with pytest.raises(UnsolvableError) as exc:
            solve_nonhomogeneous(problem(unit_circle, G="1/tau", g="1/tau"))
        rep = exc.value.report
        assert rep.kappa == -1
        assert rep.moment_norms[0] == pytest.approx(2 * np.pi, abs=1e-6)

    def test_generic_smooth_problem(self, bih, unit_circle, rng):
        coeffs = [random_dc(rng, scale=0.5) for _ in range(3)]
        p = RBVPProblem(contour=unit_circle, G="exp(tau)*tau^2",
                        g="tau+0.3*rho", poly_coeffs=coeffs)
        s = solve_nonhomogeneous(p)
        assert s.kappa == 2
        r = residual_report(s)
        assert r.sup_residual <= 1e-4
        assert r.infinity_bound < 1e3


    def test_explicit_nodes_reach_parametric_accuracy(self, bih):
        # the same 400 ellipse nodes, once with exact parametric weights and
        # once as an explicit node list with trapezoid-rule weights
        par = ellipse_contour(bih, semi_axes=(1.3, 0.8), nodes=400)
        residuals = [
            residual_report(solve_nonhomogeneous(problem(
                c, G="tau*exp(tau)", g="1+tau^2"))).sup_residual
            for c in (par, explicit_contour(bih, par.xy))]
        assert residuals[1] <= 10 * residuals[0]


class TestClosedFormsAtEveryNode:
    """kappa = 1, G = tau exp(b tau), g = 1 + tau^2 and P = 0 have
    Phi+ = g and Phi- = 0; the tables must meet them at every node, the
    square's 64 corner nodes included."""

    @pytest.mark.parametrize("kind, tol", [
        ("circle", 1e-12), ("ellipse", 1e-12), ("explicit-ellipse", 1e-12),
        ("square", 1e-9)])
    def test_tables(self, bih, kind, tol):
        t = 2 * np.pi * np.arange(128) / 128
        contour = {
            "circle": lambda: circle_contour(bih, radius=1.0, nodes=128),
            "ellipse": lambda: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                               nodes=192),
            "explicit-ellipse": lambda: explicit_contour(
                bih, np.stack([1.3 * np.cos(t), 0.8 * np.sin(t)], axis=1)),
            "square": lambda: polygon_contour(
                bih, [[-1, -1], [1, -1], [1, 1], [-1, 1]], nodes=128),
        }[kind]()
        s = solve_nonhomogeneous(problem(contour,
                                         G="tau*exp((0.5+0.25*rho)*tau)",
                                         g="1+tau^2"))
        want = evaluate(parse("1+z^2"), z=contour.points())
        plus, minus = s.boundary_table("+"), s.boundary_table("-")
        assert list(plus.indices) == list(range(contour.n))
        scale = max(1.0, norm_of(want))
        assert norm_of(dc_sub(plus.values, want)) <= tol * scale
        assert norm_of(minus.values) <= tol * scale
        # the offset check covers the stride sample of the smooth nodes
        smooth = np.flatnonzero(~contour.corner_mask)
        sample = smooth[::int(np.ceil(smooth.size / integral.CHECK_NODES))]
        assert np.array_equal(np.flatnonzero(~np.isnan(plus.error_estimates)),
                              sample)
        assert residual_report(s).boundary_error_estimate is not None


def estimate(contour, G, g):
    return residual_report(solve_nonhomogeneous(problem(
        contour, G=G, g=g))).boundary_error_estimate


def pole_family(c, d):
    """G = tau exp(b tau + c (tau - a)^(-1)) and
    g = exp(b tau) (1 + tau^2 - d (tau - a)^(-1)) with a = 0.9 + 0.1 rho,
    0.1 inside the unit circle."""
    b, a = "(0.5+0.25*rho)", "(0.9+0.1*rho)"
    return (f"tau*exp({b}*tau+({c})/(tau-{a}))",
            f"exp({b}*tau)*(1+tau^2-({d})/(tau-{a}))")


class TestSampledEstimate:
    """The offset check on its node sample against the check at every
    smooth node (a CHECK_NODES above any node count)."""

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "explicit-ellipse",
                                      "square"])
    def test_entire_data_within_ten_percent(self, bih, kind, monkeypatch):
        t = 2 * np.pi * np.arange(128) / 128
        contour = {
            "circle": lambda: circle_contour(bih, radius=1.0, nodes=256),
            "ellipse": lambda: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                               nodes=192),
            "explicit-ellipse": lambda: explicit_contour(
                bih, np.stack([1.3 * np.cos(t), 0.8 * np.sin(t)], axis=1)),
            "square": lambda: polygon_contour(
                bih, [[-1, -1], [1, -1], [1, 1], [-1, 1]], nodes=512),
        }[kind]()
        data = ("tau*exp((0.5+0.25*rho)*tau)", "1+tau^2")
        sampled = estimate(contour, *data)
        monkeypatch.setattr(integral, "CHECK_NODES", 10 ** 6)
        full = estimate(contour, *data)
        assert 0.9 * full <= sampled <= full

    @pytest.mark.parametrize("c, d", [("0.3+0.1*rho", "0.5+0.2*rho"),
                                      ("1", "1"), ("0.3", "0")])
    def test_pole_family_within_half(self, bih, c, d, monkeypatch):
        contour = circle_contour(bih, radius=1.0, nodes=256)
        sampled = estimate(contour, *pole_family(c, d))
        monkeypatch.setattr(integral, "CHECK_NODES", 10 ** 6)
        full = estimate(contour, *pole_family(c, d))
        assert 0.5 * full <= sampled <= full

    def test_sample_can_miss_the_worst_node(self, bih, monkeypatch):
        """Near a pole the estimate is a diagnostic, not a bound: with this
        data the worst node is not in the sample, and the sampled estimate
        reads 0.45 of the full one."""
        contour = circle_contour(bih, radius=1.0, nodes=256)
        data = pole_family("0.5i", "0.3-0.2i")
        sampled = estimate(contour, *data)
        monkeypatch.setattr(integral, "CHECK_NODES", 10 ** 6)
        assert 0.0 < sampled < 0.9 * estimate(contour, *data)


class TestResidualReport:
    def test_perturbed_free_term_shifts_residual(self, bih, unit_circle):
        p0 = problem(unit_circle, G="tau", g="1")
        s = solve_nonhomogeneous(p0)
        plus, minus = tables(s)
        shifted = boundary_defect(unit_circle, p0.G, parse("1+0.01"), plus, minus)
        assert float(shifted.max()) == pytest.approx(0.01, abs=1e-4)

    def test_infinity_samples_bounded_nonincreasing(self, bih, unit_circle, rng):
        s = solve_homogeneous(problem(unit_circle, G="tau",
                                      coeffs=[random_dc(rng), random_dc(rng)]))
        r = residual_report(s)
        # beyond the contour's scale the exterior part settles: no growth
        assert r.infinity_by_radius[2] <= r.infinity_by_radius[0] * 1.5 + 1e-9


def tables(s):
    """Phi+ and Phi- at every node."""
    return [s.boundary_table(side).values for side in "+-"]


class TestModuleStructure:
    def test_scaling_preserves_homogeneous_solutions(self, bih, unit_circle, rng):
        # k P solves the homogeneous problem, with k times the tables of P
        coeffs = [random_dc(rng), random_dc(rng)]
        s = solve_homogeneous(problem(unit_circle, G="tau", coeffs=coeffs))
        for _ in range(3):
            k = random_dc(rng)
            ks = solve_homogeneous(problem(unit_circle, G="tau",
                                           coeffs=[dc_mul(k, c) for c in coeffs]))
            for got, base in zip(tables(ks), tables(s)):
                assert norm_of(dc_sub(got, dc_mul(k, base))) <= 1e-10
            assert residual_report(ks).sup_residual <= 1e-4

    def test_superposition(self, bih, unit_circle, rng):
        # psi and P add: the general solution with P is the particular one
        # plus the homogeneous one with P
        coeffs = [random_dc(rng), random_dc(rng)]
        hom = solve_homogeneous(problem(unit_circle, G="tau", coeffs=coeffs))
        nonhom = solve_nonhomogeneous(problem(unit_circle, G="tau", g="1"))
        combined = solve_nonhomogeneous(problem(unit_circle, G="tau", g="1",
                                                coeffs=coeffs))
        for got, a, b in zip(tables(combined), tables(nonhom), tables(hom)):
            assert norm_of(dc_sub(got, a + b)) <= 1e-10
        assert residual_report(combined).sup_residual <= 1e-4

    def test_superposition_needs_one_coefficient(self, bih, unit_circle):
        # solutions for two coefficients do not add up to a solution of
        # either problem
        a = solve_nonhomogeneous(problem(unit_circle, G="tau", g="1/tau"))
        b = solve_nonhomogeneous(problem(unit_circle, G="tau^2", g="1/tau"))
        plus, minus = (p + q for p, q in zip(tables(a), tables(b)))
        for G in ("tau", "tau^2"):
            defect = boundary_defect(unit_circle, parse(G), parse("2/tau"), plus, minus)
            assert float(np.max(defect)) > 1e-2, G

    def test_dimension_count(self, bih, unit_circle, rng):
        # each of the kappa + 1 coefficients independently moves the solution
        base = solve_homogeneous(problem(unit_circle, G="tau",
                                         coeffs=[DualComplex(0, 0), DualComplex(0, 0)]))
        pt = bih.embed(0.4, 0.2)
        for j in range(2):
            coeffs = [DualComplex(0, 0), DualComplex(0, 0)]
            coeffs[j] = DualComplex(1, 0)
            bumped = solve_homogeneous(problem(unit_circle, G="tau",
                                               coeffs=coeffs))
            assert norm_of(dc_sub(bumped.plus(pt), base.plus(pt))) > 1e-3


class TestAuto:
    def test_dispatch(self, bih, unit_circle):
        assert solve_auto(problem(unit_circle, G="1", g="tau")).kind == "jump"
        assert solve_auto(problem(unit_circle, G="tau", g="0")).kind == "homogeneous"
        assert solve_auto(problem(unit_circle, G="tau", g="1")).kind == "nonhomogeneous"
