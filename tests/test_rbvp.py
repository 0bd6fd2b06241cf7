import json

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
from dualrbvp import integral, rbvp
from dualrbvp.algebra import PointE
from dualrbvp.cli import main
from dualrbvp.contour import Contour
from dualrbvp.problemfile import _grid_section, load_problem
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
        assert norm_of(dc_sub(s.off_curve("+", pin), pin.value())) < 1e-12
        assert norm_of(s.off_curve("-", pout)) < 1e-12

    def test_zero_free_term_gives_constants(self, bih, unit_circle, rng):
        c = random_dc(rng)
        s = solve_jump(problem(unit_circle, g="0", coeffs=[c]))
        for side, p in (("+", bih.embed(0.1, 0.2)), ("-", bih.embed(3.0, 0.5))):
            assert norm_of(dc_sub(s.off_curve(side, p), c)) < 1e-12

    def test_reciprocal_free_term(self, bih, unit_circle):
        s = solve_jump(problem(unit_circle, g="1/tau"))
        pin = bih.embed(0.2, -0.1)
        pout = bih.embed(2.2, 0.9)
        assert norm_of(s.off_curve("+", pin)) < 1e-12
        want = -1 * dc_inv(pout.value())
        assert norm_of(dc_sub(s.off_curve("-", pout), want)) < 1e-12
        r = residual_report(s)
        assert r.sup_residual <= 1e-4

    def test_solutions_differ_by_their_constant(self, bih, unit_circle, rng):
        k = random_dc(rng)
        s0 = solve_jump(problem(unit_circle, g="tau"))
        s1 = solve_jump(problem(unit_circle, g="tau", coeffs=[k]))
        p = bih.embed(0.4, 0.1)
        diff = dc_sub(s1.off_curve("+", p), s0.off_curve("+", p))
        assert norm_of(dc_sub(diff, k)) < 1e-12

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
        assert norm_of(dc_sub(s.off_curve("+", pin), want_in)) < 1e-12
        pout = bih.embed(2.0, 1.0)
        zeta = pout.value()
        want_out = dc_mul(dc_inv(zeta), alpha + dc_mul(beta, zeta))
        assert norm_of(dc_sub(s.off_curve("-", pout), want_out)) < 1e-12
        r = residual_report(s)
        assert r.sup_residual <= 1e-6

    def test_constant_coefficient_degenerates_to_constants(self, bih, unit_circle, rng):
        alpha = random_dc(rng)
        s = solve_homogeneous(problem(unit_circle, G="1", coeffs=[alpha]))
        for p in (bih.embed(0.2, 0.1), bih.embed(2.4, -0.4)):
            side = "+" if p.modulus < 1 else "-"
            assert norm_of(dc_sub(s.off_curve(side, p), alpha)) < 1e-12

    def test_negative_index_trivial_only(self, bih, unit_circle):
        s = solve_homogeneous(problem(unit_circle, G="1/tau"))
        assert s.kind == "homogeneous"
        assert s.kappa == -1
        for table in tables(s):
            assert not table.c1.any() and not table.c2.any()
        assert norm_of(s.off_curve("+", bih.embed(0.1, 0.1))) == 0.0
        assert norm_of(s.off_curve("-", bih.embed(2.0, 2.0))) == 0.0

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
            side = "+" if p.modulus < 1 else "-"
            assert norm_of(dc_sub(s_jump.off_curve(side, p),
                                  s_gen.off_curve(side, p))) < 1e-9

    def test_identity_coefficient_unit_free_term(self, bih, unit_circle):
        s = solve_nonhomogeneous(problem(unit_circle, G="tau", g="1"))
        pin = bih.embed(0.25, 0.15)
        pout = bih.embed(2.5, 0.5)
        assert norm_of(dc_sub(s.off_curve("+", pin), DualComplex(1, 0))) < 1e-10
        assert norm_of(s.off_curve("-", pout)) < 1e-10
        r = residual_report(s)
        assert r.sup_residual <= 1e-4

    def test_negative_index_solvable_case(self, bih, unit_circle):
        s = solve_nonhomogeneous(problem(unit_circle, G="1/tau", g="1"))
        assert s.kappa == -1
        assert s.solvability.solvable
        pin = bih.embed(0.3, -0.3)
        pout = bih.embed(3.0, 1.0)
        assert norm_of(dc_sub(s.off_curve("+", pin), DualComplex(1, 0))) < 1e-10
        assert norm_of(s.off_curve("-", pout)) < 1e-10
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
        assert plus.c1.shape == minus.c1.shape == (contour.n,)
        scale = max(1.0, norm_of(want))
        assert norm_of(dc_sub(plus, want)) <= tol * scale
        assert norm_of(minus) <= tol * scale
        # the offset check's sample is pinned by
        # test_integral.py::TestCheckSample::test_stride_sample
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

    def test_no_checked_node_gives_no_estimate(self, bih, monkeypatch):
        """When the offset check keeps no node on either side, as when
        every approach crosses or nears the curve, there is no estimate."""
        contour = circle_contour(bih, radius=1.0, nodes=64)
        monkeypatch.setattr(integral, "_clear_of_curve",
                            lambda c, p, inside: (np.zeros(p.shape[1], dtype=bool),
                                                  np.zeros(p.shape[:2])))
        report = residual_report(solve_nonhomogeneous(problem(
            contour, G="tau*exp(tau)", g="1+tau^2")))
        assert report.boundary_error_estimate is None
        assert report.sup_residual <= 1e-12

    def test_sample_can_miss_the_worst_node(self, bih, monkeypatch):
        """Near a pole the estimate is a diagnostic, not a bound: with this
        data the worst node is not in the sample, and the sampled estimate
        reads 0.45 of the full one."""
        contour = circle_contour(bih, radius=1.0, nodes=256)
        data = pole_family("0.5i", "0.3-0.2i")
        sampled = estimate(contour, *data)
        monkeypatch.setattr(integral, "CHECK_NODES", 10 ** 6)
        assert 0.0 < sampled < 0.9 * estimate(contour, *data)


# P of degree kappa, so that Phi-(infinity) is its last coefficient
POLE_POLYNOMIAL = {-1: [], 0: ["(0.3-0.2i)+(0.1+0.4i)*rho"], 1: [],
                   2: ["0.2+0.1*rho", "-0.3+0.1i", "(0.25-0.4i)+0.3*rho"]}


def pole_closed_form(kappa):
    """(G, g, P, Phi+, Phi-) of the pole family with b = 0.5, c = 0.3,
    d = 0.2, a = 0.5 + 0.1 rho and a' = 0.5 + 0.05 rho, both inside every
    test curve: G = tau^kappa exp(b tau + c (tau - a)^(-1)) and
    g = exp(b tau) (1 + tau^2 - d (tau - a')^(-m)) give
    Phi+ = exp(b z) (1 + z^2 + P) and
    Phi- = z^(-kappa) exp(-c (z - a)^(-1)) (d (z - a')^(-m) + P), with m = 2
    for kappa = -1, where the moment of psi must vanish, and m = 1 else."""
    m = 2 if kappa == -1 else 1
    texts = POLE_POLYNOMIAL[kappa]
    p = "+".join(f"({t})*z^{j}" for j, t in enumerate(texts)) or "0"
    coeffs = [evaluate(parse(t)) for t in texts]
    a, a2 = "(0.5+0.1*rho)", "(0.5+0.05*rho)"
    return (f"tau^({kappa})*exp(0.5*tau+0.3*inv(tau-{a}))",
            f"exp(0.5*tau)*(1+tau^2-0.2*inv(tau-{a2})^{m})", coeffs,
            f"exp(0.5*z)*(1+z^2+{p})",
            f"z^({-kappa})*exp(-0.3*inv(z-{a}))*(0.2*inv(z-{a2})^{m}+{p})")


OFF_CURVE_DATA = {
    "entire": ("tau*exp((0.5+0.25*rho)*tau)", "1+tau^2", [], "1+z^2", "0*z"),
    **{f"pole-k{k}": pole_closed_form(k) for k in (-1, 0, 1, 2)},
}


def off_curve_contour(bih, kind):
    t = 2 * np.pi * np.arange(128) / 128
    return {
        "circle": lambda: circle_contour(bih, radius=1.0, nodes=256),
        "ellipse": lambda: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                           nodes=256),
        "explicit-ellipse": lambda: explicit_contour(
            bih, np.stack([1.3 * np.cos(t), 0.8 * np.sin(t)], axis=1)),
        "square": lambda: polygon_contour(
            bih, [[-1, -1], [1, -1], [1, 1], [-1, 1]], nodes=512),
    }[kind]()


def relative_miss(got, want) -> float:
    diff = DualComplex(got.c1 - want.c1, got.c2 - want.c2)
    return float(np.max(dc_norm(diff) / np.maximum(1.0, dc_norm(want))))


class TestOffCurveEvaluator:
    """Phi+ inside and Phi- outside from Cauchy's formula on the node
    tables, against the closed form along the normals at 24 parameters
    between nodes, 1e-8 to 1 from the curve, and on a ring of radius 1000
    where Phi- nears Phi-(infinity): P's last coefficient for kappa = 0
    and 2, and 0 for kappa = -1 and 1.  The bound is 1e-12 or twice the
    tables' own miss, whichever is larger: the square's tables miss by up
    to 3.4e-9 at 512 nodes on the pole family, and the evaluator measured
    within 1.1 times that; every other case measured below 4e-15."""

    @pytest.mark.parametrize("data", sorted(OFF_CURVE_DATA))
    @pytest.mark.parametrize("kind", ["circle", "ellipse", "explicit-ellipse",
                                      "square"])
    def test_closed_form_on_both_sides(self, bih, kind, data):
        contour = off_curve_contour(bih, kind)
        G, g, coeffs, plus, minus = OFF_CURVE_DATA[data]
        s = solve_auto(problem(contour, G=G, g=g, coeffs=coeffs))
        t = (np.arange(24) + 0.37) / 24
        base = contour.point_at(t)
        tangent = contour.point_at(t + 1e-6) - contour.point_at(t - 1e-6)
        inward = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        inward /= np.hypot(inward[:, 0], inward[:, 1])[:, None]
        d = np.repeat(np.logspace(-8, 0, 9), len(t))[:, None]
        inside = np.tile(base, (9, 1)) + d * np.tile(inward, (9, 1))
        outside = np.tile(base, (9, 1)) - d * np.tile(inward, (9, 1))
        ring = 1000.0 * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)],
                                 axis=1)
        outside = np.concatenate([outside, ring])
        bound = 1e-12
        for side, text in (("+", plus), ("-", minus)):
            bound = max(bound, 2 * relative_miss(
                s.boundary_table(side),
                evaluate(parse(text), z=contour.points())))
        for text, side, xy in ((plus, "+", inside), (minus, "-", outside)):
            pts = PointE(xy[:, 0], xy[:, 1], bih)
            assert relative_miss(s.off_curve(side, pts),
                                 evaluate(parse(text), z=pts)) <= bound


# the circle and ellipse-jump grid problems of the field-grid bench workload
# at seed 301, with their coefficients rounded to six digits
BENCH_GRID_PROBLEMS = {
    "circle-k1": {
        "basis": "biharmonic",
        "contour": {"kind": "circle", "radius": 1.0, "nodes": 256},
        "G": "tau*exp((0.050652-0.283845*i+(-0.062617+0.128558*i)*rho)*tau)",
        "g": "(0.560218-0.515749*i+(0.688538+0.596796*i)*rho)"
             "+(0.271837-0.413845*i+(0.930989-0.545525*i)*rho)*tau"
             "+(0.132852-0.017873*i+(0.551016+0.858274*i)*rho)*tau^2",
        "polynomial": [[-0.014222, -0.004769, -0.393606, 0.08503],
                       [0.374607, -0.149181, -0.309423, -0.186886]]},
    "classical-ellipse-jump": {
        "basis": "classical",
        "contour": {"kind": "ellipse", "semi_axes": [1.272986, 0.825387],
                    "nodes": 256},
        "G": "1",
        "g": "(0.515226+0.895587*i+(-0.940343+0.393606*i)*rho)"
             "+(0.584223+0.395746*i+(-0.404729+0.388119*i)*rho)*tau"
             "+(0.261745+0.231804*i+(-0.327119-0.582507*i)*rho)*tau^2"},
}

# the pole family of the off-curve tests with its pole at a1 = 0.9, 0.1 from
# a unit circle: at 256 nodes its tables' tail is far above rounding
POLE_NEAR_CURVE = {
    "contour": {"kind": "circle", "radius": 1.0, "nodes": 256},
    "G": "tau*exp(0.5*tau+0.3*inv(tau-(0.9+0.1*rho)))",
    "g": "exp(0.5*tau)*(1+tau^2-0.2*inv(tau-(0.9+0.05*rho)))"}


def grid_problem(tmp_path, doc, n=128):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {**doc, "output": {"grid": {"nx": n, "ny": n, "margin": 0.5}}}))
    return path


def every_node(monkeypatch):
    """Evaluate off the curve on all N nodes from now on: the rule before
    the chop."""
    monkeypatch.setattr(Contour, "resolved_rule",
                        lambda self, samples: (1, self.values(), self.dtau()))


def grid_values(grid):
    rows = [r for r in grid["phi_plus"] + grid["phi_minus"] if r is not None]
    return np.array(rows)


class TestResolvedOffCurve:
    """Off the curve the barycentric quotient runs on the fewest nodes that
    resolve the table and the curve (``Contour.resolved_rule``)."""

    def test_bench_grids_chop_within_rounding(self, tmp_path, monkeypatch):
        for name, doc in sorted(BENCH_GRID_PROBLEMS.items()):
            spec = load_problem(str(grid_problem(tmp_path, doc)))
            s = solve_auto(spec.problem)
            c = spec.contour
            steps = [c.resolved_rule(s.boundary_table(side))[0] for side in "+-"]
            assert min(steps) > 1, name
            got = grid_values(_grid_section(spec, s))
            with monkeypatch.context() as m:
                every_node(m)
                want = grid_values(_grid_section(spec, s))
            assert got.shape == want.shape
            a = want[:, 0::2] + 1j * want[:, 1::2]
            miss = np.abs(got[:, 0::2] + 1j * got[:, 1::2] - a)
            scale = np.maximum(1.0, np.hypot(*np.abs(a).T))
            assert np.max(np.hypot(*miss.T) / scale) <= 1e-14, name

    @pytest.mark.parametrize("case", ["pole-near-curve", "square",
                                      "rough-star"])
    def test_unresolved_keeps_every_node_bit_for_bit(self, tmp_path, bih,
                                                     monkeypatch, case):
        """An under-resolved table, a polygon and an explicit curve whose
        coordinates are not band-limited (a star with kinks) keep N."""
        theta = 2 * np.pi * np.arange(128) / 128
        r = 1.0 + 0.2 * np.abs(np.sin(2.5 * theta))
        doc = {
            "pole-near-curve": POLE_NEAR_CURVE,
            "square": {"contour": {"kind": "polygon", "nodes": 128,
                                   "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
                       "G": "tau", "g": "1+tau^2"},
            "rough-star": {"contour": {"kind": "explicit", "points": np.stack(
                [r * np.cos(theta), r * np.sin(theta)], axis=1).tolist()},
                "G": "tau*exp(0.5*tau)", "g": "1+tau^2"},
        }[case]
        spec = load_problem(str(grid_problem(tmp_path, doc, n=48)))
        s = solve_auto(spec.problem)
        for side in "+-":
            assert spec.contour.resolved_rule(s.boundary_table(side))[0] == 1
        got = _grid_section(spec, s)
        every_node(monkeypatch)
        assert _grid_section(spec, s) == got

    def test_zero_table_gives_exact_zeros(self, bih):
        """The homogeneous kappa = -1 problem has only the zero solution;
        the chop leaves the coordinates to decide N', and the zero row is
        left out of the kernel sum."""
        contour = circle_contour(bih, radius=1.0, nodes=256)
        s = solve_homogeneous(problem(contour, G="inv(tau)"))
        x = np.linspace(-2.0, 2.0, 41)
        gx, gy = np.meshgrid(x, x)
        code = contour.interior_mask(gx.ravel(), gy.ravel())
        for side, want in (("+", 1), ("-", 0)):
            table = s.boundary_table(side)
            assert not (table.c1.any() or table.c2.any())
            assert contour.resolved_rule(table)[0] == 256 // 8
            sel = code == want
            v = s.off_curve(side, PointE(gx.ravel()[sel], gy.ravel()[sel], bih))
            assert v.c1.size == sel.sum() > 0
            assert not (v.c1.any() or v.c2.any())

    def test_two_solves_write_the_same_bytes(self, tmp_path):
        prob = grid_problem(tmp_path, BENCH_GRID_PROBLEMS["circle-k1"], n=32)
        out = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in out:
            assert main(["solve", str(prob), "--out", str(path)]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()


class TestResidualReport:
    def test_perturbed_free_term_shifts_residual(self, bih, unit_circle):
        p0 = problem(unit_circle, G="tau", g="1")
        s = solve_nonhomogeneous(p0)
        plus, minus = tables(s)
        shifted = boundary_defect(unit_circle, p0.G, parse("1+0.01"), plus, minus)
        assert float(shifted.max()) == pytest.approx(0.01, abs=1e-4)

    @pytest.mark.parametrize("kind, checked", [("ellipse", "+-"),
                                                ("corner-square", "")])
    def test_offset_check_runs_in_the_report_alone(self, bih, monkeypatch,
                                                   kind, checked):
        """Building both tables runs no offset check; the report runs one
        per side, on the solution's stacked integral, and none when every
        node is a corner, as on a 64-node square."""
        calls = []
        check = rbvp.boundary_values

        def counted(evaluator, contour, side):
            calls.append((evaluator, side))
            return check(evaluator, contour, side)

        monkeypatch.setattr(rbvp, "boundary_values", counted)
        contour = {
            "ellipse": lambda: ellipse_contour(bih, semi_axes=(1.3, 0.8),
                                               nodes=128),
            "corner-square": lambda: polygon_contour(
                bih, [[-1, -1], [1, -1], [1, 1], [-1, 1]], nodes=64),
        }[kind]()
        s = solve_nonhomogeneous(problem(contour, G="tau*exp(tau)", g="1+tau^2"))
        tables(s)
        assert calls == []
        estimate = residual_report(s).boundary_error_estimate
        assert calls == [(s.integral, side) for side in checked]
        assert (estimate is None) == (not checked)


def tables(s):
    """Phi+ and Phi- at every node."""
    return [s.boundary_table(side) for side in "+-"]


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
            assert norm_of(dc_sub(bumped.off_curve("+", pt), base.off_curve("+", pt))) > 1e-3


class TestAuto:
    def test_dispatch(self, bih, unit_circle):
        assert solve_auto(problem(unit_circle, G="1", g="tau")).kind == "jump"
        assert solve_auto(problem(unit_circle, G="tau", g="0")).kind == "homogeneous"
        assert solve_auto(problem(unit_circle, G="tau", g="1")).kind == "nonhomogeneous"
