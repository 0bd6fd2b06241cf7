import numpy as np
import pytest

from dualrbvp import (
    DualComplex,
    build_canonical_X,
    circle_contour,
    compute_index,
    continuous_log,
    dc_exp,
    dc_inv,
    dc_mul,
    dc_norm,
    dc_sub,
    parse,
)
from dualrbvp.algebra import PointE
from dualrbvp.errors import (
    BranchAmbiguityError,
    ClosureFailureError,
    NotInvertibleOnContourError,
    OriginNotInteriorError,
)
from dualrbvp.integral import boundary_defect, boundary_samples


def norm_of(c):
    return float(np.max(dc_norm(c)))


class TestComputeIndex:
    def test_constant_coefficient(self, unit_circle):
        r = compute_index(unit_circle, parse("1"))
        assert r.kappa == 0
        assert abs(r.raw) < 1e-12

    def test_identity_coefficient(self, unit_circle):
        r = compute_index(unit_circle, parse("tau"))
        assert r.kappa == 1
        assert abs(r.raw - 1) < 1e-12

    def test_inverse_square(self, unit_circle):
        r = compute_index(unit_circle, parse("tau^(-2)"))
        assert r.kappa == -2
        assert abs(r.raw + 2) < 1e-12

    def test_power_family_and_node_doubling(self, bih):
        for n in range(-3, 4):
            text = "1" if n == 0 else f"tau^({n})"
            for nodes in (512, 1024):
                c = circle_contour(bih, radius=1.0, nodes=nodes)
                r = compute_index(c, parse(text))
                assert r.kappa == n, (n, nodes)
                assert abs(r.raw - n) <= 1e-6

    def test_smooth_coefficient(self, unit_circle):
        r = compute_index(unit_circle, parse("exp(tau)*tau^2"))
        assert r.kappa == 2

    def test_callable_coefficient(self, unit_circle):
        # a callable takes the curve points, as everywhere else
        r = compute_index(unit_circle, lambda p: p.value())
        assert r.kappa == 1
        assert abs(r.raw - 1) < 1e-12

    def test_vanishing_coefficient_rejected(self, unit_circle):
        with pytest.raises(NotInvertibleOnContourError):
            compute_index(unit_circle, parse("tau-1"))

    def test_refinement_handles_coarse_sampling(self, bih):
        # tau^3 on a 16-node circle turns nearly 7 degrees short of pi per
        # step; midpoint insertion keeps the branch trackable
        c = circle_contour(bih, radius=1.0, nodes=16)
        r = compute_index(c, parse("tau^3"))
        assert r.kappa == 3

    def test_branch_ambiguity_when_underresolved(self, bih):
        # a nearly singular coefficient turns faster than four levels of
        # midpoint insertion can resolve on a coarse contour
        c = circle_contour(bih, radius=1.0, nodes=16)
        with pytest.raises(BranchAmbiguityError):
            compute_index(c, parse("tau-0.9999"))
        # mild near-singularity is still resolved by refinement
        assert compute_index(c, parse("tau-0.9995")).kappa == 1

    def test_invariant_under_constant_scaling(self, unit_circle, rng):
        for _ in range(5):
            k1 = complex(*rng.normal(size=2))
            if abs(k1) < 0.1:
                continue
            scaled = f"({k1.real}+{k1.imag}i)*tau"
            r = compute_index(unit_circle, parse(scaled))
            assert r.kappa == 1


class TestContinuousLog:
    def test_identity_reduces_to_zero(self, unit_circle):
        logs = continuous_log(unit_circle, parse("tau"), 1)
        assert norm_of(logs) < 1e-12

    def test_constant_two(self, unit_circle):
        logs = continuous_log(unit_circle, parse("2"), 0)
        assert np.max(np.abs(logs.c1 - np.log(2))) < 1e-12
        assert np.max(np.abs(logs.c2)) < 1e-12

    def test_wrong_index_fails_to_close(self, unit_circle):
        with pytest.raises(ClosureFailureError):
            continuous_log(unit_circle, parse("tau^2"), 1)

    def test_branch_closure_tight(self, unit_circle):
        logs = continuous_log(unit_circle, parse("exp(tau)*tau^2"), 2)
        # re-evaluating the first node from a full loop: compare against the
        # principal start value
        start = complex(logs.c1[0])
        assert abs(start.imag) < 1e-8

    def test_rho_component_pointwise(self, unit_circle):
        # ln(tau^{-2} exp(tau) tau^2) = tau: the rho part must equal xi2
        logs = continuous_log(unit_circle, parse("exp(tau)*tau^2"), 2)
        tau = unit_circle.values()
        assert np.max(np.abs(logs.c2 - tau.c2)) < 1e-10
        assert np.max(np.abs(logs.c1 - tau.c1)) < 1e-10


def node_tables(x):
    """X+ and X- at every node, from the exponent's node limits."""
    tau = x.contour.values()
    return [x.from_exponent(side, tau, x.exponent.node_limits(side))
            for side in "+-"]


def x_relation_defect(x, G):
    """Sup over the nodes of ||X+ - G X-||, the homogeneous relation."""
    return float(np.max(boundary_defect(x.contour, G, DualComplex(0j, 0j),
                                        *node_tables(x))))


def x_at(x, side, p):
    """X+ or X- at points off the curve, from the exponent integral there."""
    return x.from_exponent(side, p.value(), x.exponent(p))


class TestCanonicalX:
    def test_identity_coefficient(self, bih, unit_circle):
        x = build_canonical_X(unit_circle, parse("tau"))
        assert x.kappa == 1
        pin = bih.embed(0.3, 0.1)
        assert norm_of(dc_sub(dc_exp(x.exponent(pin)), DualComplex(1, 0))) < 1e-12
        assert norm_of(dc_sub(x_at(x, "+", pin), DualComplex(1, 0))) < 1e-12
        pout = bih.embed(2.5, -1.0)
        assert norm_of(dc_sub(x_at(x, "-", pout), dc_inv(pout.value()))) < 1e-12
        assert x_relation_defect(x, parse("tau")) <= 1e-6

    def test_constant_coefficient(self, bih, unit_circle):
        x = build_canonical_X(unit_circle, parse("1"))
        assert x.kappa == 0
        for p in (bih.embed(0.2, 0.2), bih.embed(3.0, 1.0)):
            side = "+" if p.modulus < 1 else "-"
            assert norm_of(dc_sub(x_at(x, side, p), DualComplex(1, 0))) < 1e-12
        assert x_relation_defect(x, parse("1")) < 1e-12

    def test_reciprocal_coefficient(self, bih, unit_circle):
        x = build_canonical_X(unit_circle, parse("1/tau"))
        assert x.kappa == -1
        pout = bih.embed(2.0, 2.0)
        assert norm_of(dc_sub(x_at(x, "-", pout), pout.value())) < 1e-12
        assert x_relation_defect(x, parse("1/tau")) <= 1e-6

    def test_generic_smooth_coefficient(self, unit_circle):
        g = parse("exp(tau)*tau^2")
        x = build_canonical_X(unit_circle, g)
        assert x.kappa == 2
        assert x_relation_defect(x, g) <= 1e-4

    def test_origin_must_be_interior_for_nonzero_index(self, bih):
        c = circle_contour(bih, center=(5.0, 0.0), radius=1.0, nodes=512)
        with pytest.raises(OriginNotInteriorError):
            build_canonical_X(c, parse("tau-5"))  # winds once, origin outside
        # index zero needs no origin hypothesis; on this curve tau itself
        # does not wind about 0, so its canonical factor is index-free
        x = build_canonical_X(c, parse("tau"))
        assert x.kappa == 0
        assert x_relation_defect(x, parse("tau")) <= 1e-6

    def test_boundary_relation_in_invertible_form(self, unit_circle):
        g = parse("exp(tau)*tau^2")
        plus, minus = node_tables(build_canonical_X(unit_circle, g))
        ratio = dc_mul(plus, dc_inv(minus))
        assert norm_of(dc_sub(ratio, boundary_samples(g, unit_circle))) <= 1e-4

    def test_x0_invertible_everywhere_sampled(self, bih, unit_circle, rng):
        x = build_canonical_X(unit_circle, parse("exp(tau)*tau^2"))
        ang = rng.uniform(0, 2 * np.pi, 50)
        r = np.concatenate([rng.uniform(0.05, 0.8, 25), rng.uniform(1.3, 6.0, 25)])
        pts = PointE(r * np.cos(ang), r * np.sin(ang), bih)
        vals = dc_exp(x.exponent(pts))
        assert np.min(np.abs(vals.c1)) > 1e-6

    def test_index_stable_under_node_doubling(self, bih):
        for nodes in (512, 1024):
            c = circle_contour(bih, radius=1.0, nodes=nodes)
            x = build_canonical_X(c, parse("exp(tau)*tau^2"))
            assert x.kappa == 2

    def test_scaling_by_invertible_constant(self, bih, unit_circle):
        # kappa(k G) = kappa(G); the canonical factor of k G still satisfies
        # the boundary relation for k G
        kG = parse("(2+1i)*tau")
        x = build_canonical_X(unit_circle, kG)
        assert x.kappa == 1
        assert x_relation_defect(x, kG) <= 1e-6

    def test_infinity_behavior(self, bih, unit_circle):
        # X- at infinity: 0 for a positive index, 1 for index zero, growth of
        # order -kappa for a negative one; |X-| scales as r^(-kappa)
        far = (bih.embed(1e3, 0.0), bih.embed(1e6, 0.0))
        for text, kappa in (("tau", 1), ("1", 0), ("1/tau", -1)):
            x = build_canonical_X(unit_circle, parse(text))
            n1, n2 = (norm_of(x_at(x, "-", p)) for p in far)
            assert np.log(n2 / n1) / np.log(1e3) == pytest.approx(-kappa, abs=1e-9)
