import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dualrbvp import (
    BasisE,
    DualComplex,
    dc_add,
    dc_exp,
    dc_inv,
    dc_ln,
    dc_mul,
    dc_neg,
    dc_norm,
    dc_pow_int,
    dc_sub,
)
from dualrbvp.algebra import RHO, ONE, ZERO
from dualrbvp.errors import (
    DegenerateBasisError,
    ExpOverflowError,
    NotInvertibleError,
)

from conftest import random_dc


def close(a: DualComplex, b: DualComplex, tol=1e-12):
    return float(np.max(dc_norm(dc_sub(a, b)))) <= tol * (
        1.0 + float(np.max(dc_norm(a))) + float(np.max(dc_norm(b))))


class TestArithmetic:
    def test_add(self):
        assert close(dc_add(DualComplex(1, 2), DualComplex(3, 4)), DualComplex(4, 6))

    def test_add_identity_and_inverse(self, rng):
        c = random_dc(rng)
        assert close(dc_add(c, ZERO), c)
        assert close(dc_add(c, dc_neg(c)), ZERO)

    def test_rho_squared_is_zero(self):
        assert close(dc_mul(RHO, RHO), ZERO)

    def test_mul_identity(self, rng):
        c = random_dc(rng)
        assert close(dc_mul(ONE, c), c)

    def test_mul_example(self):
        # (2 + 3 rho)(1 + i rho) = 2 + (2i + 3) rho, expanding and dropping rho^2
        got = dc_mul(DualComplex(2, 3), DualComplex(1, 1j))
        assert close(got, DualComplex(2, 3 + 2j))

    def test_operator_sugar(self):
        a = DualComplex(1, 2)
        assert close(a + 1, DualComplex(2, 2))
        assert close(2 * a, DualComplex(2, 4))
        assert close(a - a, ZERO)
        assert close(a / a, ONE)
        assert close(-a, DualComplex(-1, -2))
        assert close(a ** 2, dc_mul(a, a))


class TestInverse:
    def test_unit(self):
        assert close(dc_inv(ONE), ONE)

    def test_example(self):
        got = dc_inv(DualComplex(2, 3))
        assert close(got, DualComplex(0.5, -0.75))
        assert close(dc_mul(DualComplex(2, 3), got), ONE)

    def test_pure_rho_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            dc_inv(DualComplex(0, 5))

    def test_random_inverse_property(self, rng):
        c = random_dc(rng, size=10_000)
        c = DualComplex(np.where(np.abs(c.c1) < 1e-6, c.c1 + 1.0, c.c1), c.c2)
        assert close(dc_mul(c, dc_inv(c)), DualComplex(np.ones(10_000), np.zeros(10_000)))


class TestLogExp:
    def test_ln_one(self):
        assert close(dc_ln(ONE), ZERO)

    def test_ln_e_plus_e_rho(self):
        got = dc_ln(DualComplex(np.e, np.e))
        assert close(got, DualComplex(1, 1))

    def test_ln_principal_branch(self):
        got = dc_ln(DualComplex(-1, 1))
        assert close(got, DualComplex(1j * np.pi, -1))

    def test_exp_zero(self):
        assert close(dc_exp(ZERO), ONE)

    def test_exp_rho_truncates(self):
        assert close(dc_exp(RHO), DualComplex(1, 1))

    def test_exp_of_sum(self, rng):
        a, b = random_dc(rng), random_dc(rng)
        assert close(dc_exp(dc_add(a, b)), dc_mul(dc_exp(a), dc_exp(b)), tol=1e-11)

    def test_roundtrip_example(self):
        c = DualComplex(2, 3)
        assert close(dc_exp(dc_ln(c)), c)

    def test_roundtrip_random(self, rng):
        c = random_dc(rng, size=10_000)
        c = DualComplex(np.where(np.abs(c.c1) < 1e-6, c.c1 + 1.0, c.c1), c.c2)
        assert close(dc_exp(dc_ln(c)), c)

    def test_ln_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            dc_ln(DualComplex(0, 1))

    def test_exp_overflow(self):
        with pytest.raises(ExpOverflowError):
            dc_exp(DualComplex(1000.0, 0))


class TestPowInt:
    def test_zeroth_power(self, rng):
        assert close(dc_pow_int(random_dc(rng), 0), ONE)

    def test_cube(self):
        assert close(dc_pow_int(DualComplex(1, 1), 3), DualComplex(1, 3))

    def test_negative_power(self):
        assert close(dc_pow_int(DualComplex(2, 0), -2), DualComplex(0.25, 0))

    def test_matches_repeated_product(self, rng):
        for _ in range(25):
            c = random_dc(rng)
            if abs(c.c1) < 1e-3:
                continue
            acc = ONE
            for n in range(1, 6):
                acc = dc_mul(acc, c)
                assert close(dc_pow_int(c, n), acc, tol=1e-11)
                assert close(dc_pow_int(c, -n), dc_inv(acc), tol=1e-10)

    def test_negative_power_requires_invertible(self):
        with pytest.raises(NotInvertibleError):
            dc_pow_int(DualComplex(0, 1), -1)


class TestRingAxioms:
    def test_axioms_random(self, rng):
        n = 10_000
        a, b, c = (random_dc(rng, size=n) for _ in range(3))
        assert close(dc_mul(a, b), dc_mul(b, a))
        assert close(dc_mul(dc_mul(a, b), c), dc_mul(a, dc_mul(b, c)))
        assert close(dc_mul(a, dc_add(b, c)), dc_add(dc_mul(a, b), dc_mul(a, c)))


class TestNorms:
    def test_zero(self):
        assert dc_norm(ZERO) == 0.0

    def test_components(self):
        assert dc_norm(DualComplex(3, 4j)) == pytest.approx(5.0, abs=1e-15)

    def test_unit_coordinate_vector(self, bih):
        p = bih.embed(1.0, 0.0)
        assert p.modulus == pytest.approx(1.0)

    def test_embedding_inequality(self, bih, cls, rng):
        for basis in (bih, cls):
            # ||x e1 + y e2|| <= ||e1|| |x| + ||e2|| |y| <= c |zeta|
            const = np.hypot(dc_norm(DualComplex(basis.a1, basis.b1)),
                             dc_norm(DualComplex(basis.a2, basis.b2)))
            x = rng.normal(size=1000)
            y = rng.normal(size=1000)
            p = basis.embed(x, y)
            assert np.all(dc_norm(p.value()) <= const * p.modulus + 1e-12)


class TestBasis:
    def test_biharmonic_valid(self, bih):
        assert bih.det == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateBasisError):
            BasisE(1 + 0j, 0j, 1 + 0j, 1 + 0j)  # e2 = 1 + rho, det = 0

    def test_classical_valid(self, cls):
        assert cls.det == pytest.approx(1.0)


class TestPointEmbedding:
    def test_origin(self, bih):
        p = bih.embed(0.0, 0.0)
        assert p.value().c1 == 0 and p.value().c2 == 0

    def test_biharmonic_components(self, bih, rng):
        x, y = rng.normal(size=2)
        p = bih.embed(x, y)
        assert abs(p.xi1 - complex(x, y)) < 1e-14
        assert abs(p.xi2 - (-0.5j * y)) < 1e-14

    def test_classical_components(self, cls, rng):
        x, y = rng.normal(size=2)
        p = cls.embed(x, y)
        assert abs(p.xi1 - complex(x, y)) < 1e-14
        assert p.xi2 == 0

    def test_nonzero_points_invertible(self, bih, cls, rng):
        for basis in (bih, cls):
            ang = rng.uniform(0, 2 * np.pi, size=500)
            r = 10.0 ** rng.uniform(-9, 2, size=500)
            p = basis.embed(r * np.cos(ang), r * np.sin(ang))
            dc_inv(p.value())  # must not raise for any |zeta| >= 1e-9


# -- properties ---------------------------------------------------------------

_part = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
_duals = st.builds(lambda a, b, c, d: DualComplex(complex(a, b), complex(c, d)),
                   _part, _part, _part, _part)


def _near(a: DualComplex, b: DualComplex, scale: float) -> bool:
    """Equal to rounding relative to ``scale``, the size of the terms."""
    return float(dc_norm(dc_sub(a, b))) <= 1e-13 * (1.0 + scale)


class TestProperties:
    @given(a=_duals, b=_duals, c=_duals)
    def test_ring_identities(self, a, b, c):
        na, nb, nc = (float(dc_norm(v)) for v in (a, b, c))
        assert _near(dc_add(a, b), dc_add(b, a), 0.0)
        assert _near(dc_add(dc_add(a, b), c), dc_add(a, dc_add(b, c)), na + nb + nc)
        assert _near(dc_mul(a, b), dc_mul(b, a), na * nb)
        assert _near(dc_mul(dc_mul(a, b), c), dc_mul(a, dc_mul(b, c)), na * nb * nc)
        assert _near(dc_mul(a, dc_add(b, c)), dc_add(dc_mul(a, b), dc_mul(a, c)),
                     na * (nb + nc))
        assert _near(dc_add(a, ZERO), a, 0.0) and _near(dc_mul(a, ONE), a, 0.0)
        assert _near(dc_add(a, dc_neg(a)), ZERO, na)

    @given(x=_duals)
    def test_inverse(self, x):
        assume(abs(x.c1) >= 1e-3 * max(1.0, float(dc_norm(x))))
        inv = dc_inv(x)
        assert _near(dc_mul(x, inv), ONE, float(dc_norm(x)) * float(dc_norm(inv)))

    @given(a=_duals, b=_duals)
    def test_exp_of_sum(self, a, b):
        ea, eb = dc_exp(a), dc_exp(b)
        assert _near(dc_exp(dc_add(a, b)), dc_mul(ea, eb),
                     (1.0 + float(dc_norm(a)) + float(dc_norm(b)))
                     * float(dc_norm(ea)) * float(dc_norm(eb)))
