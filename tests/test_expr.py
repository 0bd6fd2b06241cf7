import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualrbvp import DualComplex, dc_add, dc_inv, dc_mul, dc_norm, dc_sub, evaluate, parse, to_str
from dualrbvp.expr import Bin, Call, Const, Neg, Pow, Var
from dualrbvp.errors import (
    DualRbvpError,
    ExprSyntaxError,
    NotInvertibleError,
    UnboundVariableError,
    UnknownIdentifierError,
)

from conftest import random_dc


def close(a, b, tol=1e-12):
    return float(np.max(dc_norm(dc_sub(a, b)))) <= tol * (
        1.0 + float(np.max(dc_norm(a))) + float(np.max(dc_norm(b))))


class TestParse:
    def test_tree_shape(self):
        e = parse("z^2 + (1+2i)")
        assert e == Bin("+", Pow(Var("z"), 2), Const(1 + 2j))

    def test_nested_calls(self):
        e = parse("exp(ln(tau))")
        assert e == Call("exp", Call("ln", Var("tau")))

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("z^^2")
        assert exc.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("z + w")

    def test_precedence(self):
        assert parse("1+2*3") == Const(7 + 0j)
        e = parse("z+tau*t")
        assert isinstance(e, Bin) and e.op == "+"

    def test_unary_minus_binds_below_power(self):
        e = parse("-z^2")
        got = evaluate(e, z=DualComplex(2 + 0j, 0j))
        assert close(got, DualComplex(-4, 0))

    def test_negative_exponent_forms(self):
        for text in ("tau^(-1)", "tau^-1", "1/tau"):
            got = evaluate(parse(text), tau=DualComplex(2 + 0j, 0j))
            assert close(got, DualComplex(0.5, 0))

    def test_imag_literal_glues(self):
        assert parse("2i") == Const(2j)
        assert parse("1+2i") == Const(1 + 2j)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(z+1")

    def test_roundtrip_corpus(self):
        corpus = [
            "z", "tau", "t", "i", "rho", "2", "2.5", "(1+2i)",
            "z^2", "z^(-3)", "-z", "-(z+tau)", "1/tau", "z*tau",
            "exp(z)", "ln(z)", "inv(z)", "exp(ln(tau))",
            "z^2+(1+2i)", "(z+1)*(z-1)", "z/(z+1)", "exp(z)*z^2",
            "1-z", "z-1", "z-tau-t", "z*(tau+t)", "z*tau+z*t",
            "2*rho", "(1+rho)", "z^2*exp(z)", "exp(1/tau)",
            "exp(i*t)", "t*t", "-(1/z)", "ln(z)^2", "inv(z^2)",
            "z+z+z", "z*z*z", "(z^2)^3", "exp(-(z))", "1/(1+z)",
            "tau^(-2)", "exp(2i*t)", "0.5*z", "z-0.25",
            "exp(tau)*tau^2", "-1", "-i", "(2+3i)*z", "rho*z", "z^10",
        ]
        for text in corpus:
            tree = parse(text)
            assert parse(to_str(tree)) == tree, text


class TestEval:
    def test_square_of_one_plus_rho(self):
        # z bound to the algebra value 1 + rho: (1 + rho)^2 = 1 + 2 rho
        got = evaluate(parse("z^2"), z=DualComplex(1 + 0j, 1 + 0j))
        assert close(got, DualComplex(1, 2))

    def test_square_on_a_plane_containing_one_plus_rho(self):
        from dualrbvp import BasisE
        basis = BasisE(1 + 0j, 1 + 0j, 1j, 0j)  # e1 = 1 + rho, e2 = i
        p = basis.point_from_value(DualComplex(1 + 0j, 1 + 0j))
        got = evaluate(parse("z^2"), z=p)
        assert close(got, DualComplex(1, 2))

    def test_rho_times_rho(self):
        assert close(evaluate(parse("rho*rho")), DualComplex(0, 0))

    def test_non_invertible_boundary_value(self):
        with pytest.raises(NotInvertibleError):
            evaluate(parse("1/tau"), tau=DualComplex(0j, 1 + 0j))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("z+tau"), z=DualComplex(1 + 0j, 0j))

    def test_array_broadcast(self):
        t = np.linspace(0, 1, 7, endpoint=False)
        got = evaluate(parse("2*t"), t=t)
        assert np.allclose(got.c1, 2 * t)

    def test_algebra_axioms_pointwise(self, rng):
        lhs = parse("z*(tau+t)")
        rhs = parse("z*tau+z*t")
        for _ in range(20):
            z, tau = random_dc(rng), random_dc(rng)
            t = float(rng.normal())
            assert close(evaluate(lhs, z=z, tau=tau, t=t),
                         evaluate(rhs, z=z, tau=tau, t=t))


def quotient(e, z, h):
    """(f(z + h) - f(z)) h^(-1) for an expression f of z and a step h."""
    return dc_mul(dc_sub(evaluate(e, z=dc_add(z, h)), evaluate(e, z=z)), dc_inv(h))


class TestDifferentiate:
    """Functions of z built from the algebra's arithmetic are monogenic:
    their difference quotients converge in every direction of E to the
    derivative that the product, quotient and chain rules give."""

    def test_power_rule(self):
        z = DualComplex(3 + 0j, 1 + 0j)
        got = quotient(parse("z^2"), z, DualComplex(1e-7, 0j))
        assert close(got, dc_mul(DualComplex(2 + 0j, 0j), z), 1e-6)

    def test_exp(self, bih):
        z = bih.embed(0.3, -0.2).value()
        got = quotient(parse("exp(z)"), z, bih.vector(0.0, 1e-7))
        assert close(got, evaluate(parse("exp(z)"), z=z), 1e-6)

    def test_ln(self, bih):
        z = bih.embed(2.0, 0.0).value()
        got = quotient(parse("ln(z)"), z, bih.vector(1e-7, 0.0))
        assert close(got, DualComplex(0.5, 0), 1e-6)

    def test_finite_difference_convergence(self, bih, rng):
        """Quotients along e1 converge at first order to the central
        difference along e2."""
        exprs = [
            "z^2", "z^3", "exp(z)", "z*exp(z)", "z^2+3*z", "(z+1)*(z-2)",
            "1/(z+3)", "ln(z+4)", "exp(z)*z^2", "z^5", "inv(z+5)",
            "exp(-(z))", "(z^2)^2", "2*z^3-z", "exp(z)+z", "z/(z+4)",
            "exp(2*z)", "z^2*exp(-(z))", "0.5*z^4", "exp(z)^2",
        ]
        deltas = [1e-3, 5e-4, 2.5e-4]
        k = bih.vector(0.0, 1e-5)
        for text in exprs:
            e = parse(text)
            x, y = rng.uniform(-0.5, 0.5, size=2)
            z = bih.embed(float(x), float(y)).value()
            want = dc_mul(dc_sub(evaluate(e, z=dc_add(z, k)),
                                 evaluate(e, z=dc_sub(z, k))), dc_inv(dc_add(k, k)))
            errs = [float(dc_norm(dc_sub(quotient(e, z, bih.vector(d, 0.0)), want)))
                    for d in deltas]
            # at least first-order convergence (ratio close to 2 per halving)
            if errs[0] > 1e-10:
                assert errs[0] / max(errs[1], 1e-300) > 1.5, (text, errs)
                assert errs[1] / max(errs[2], 1e-300) > 1.5, (text, errs)

    def test_fd_convergence_second_direction(self, bih):
        e = parse("z^3+exp(z)")
        z = bih.embed(0.3, -0.2).value()
        want = evaluate(parse("3*z^2+exp(z)"), z=z)
        errs = [float(dc_norm(dc_sub(quotient(e, z, bih.vector(0.0, d)), want)))
                for d in [1e-3, 5e-4, 2.5e-4]]
        assert errs[0] / errs[2] > 3.0


# -- property: printing and parsing back keeps the value -----------------------

_Z = DualComplex(0.7 + 0.3j, 0.2 - 0.1j)
_TAU = DualComplex(-0.4 + 0.9j, 0.3 + 0.5j)
_T = 0.37

_part = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.sampled_from([Var("z"), Var("tau"), Var("t")]),
    st.builds(lambda a, b, c, d: Const(complex(a, b), complex(c, d)),
              _part, _part, _part, _part),
    st.builds(lambda a: Const(complex(a)), _part))


def _extend(children):
    return st.one_of(
        st.builds(Bin, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-3, 3)),
        st.builds(Call, st.sampled_from(["exp", "ln", "inv"]), children),
        st.builds(Neg, children))


_trees = st.recursive(_leaves, _extend, max_leaves=8)


def _value(tree_or_text):
    """The tree's value at fixed z, tau and t, or the type of the error it
    raises; overflow to inf is left to the caller."""
    try:
        with np.errstate(all="ignore"):
            tree = (parse(tree_or_text) if isinstance(tree_or_text, str)
                    else tree_or_text)
            return evaluate(tree, z=_Z, tau=_TAU, t=_T)
    except DualRbvpError as err:
        return type(err)


class TestRoundTripProperty:
    @settings(max_examples=300)
    @given(tree=_trees)
    def test_parse_of_to_str_evaluates_like_the_tree(self, tree):
        want = _value(tree)
        got = _value(to_str(tree))
        if isinstance(want, type):
            assert got is want
            return
        finite = [np.isfinite(v).all() for v in (want.c1, want.c2)]
        assume(all(finite) and float(dc_norm(want)) < 1e100)
        assert not isinstance(got, type), got
        assert close(got, want, tol=1e-9)

    def test_negative_literal_as_power_base(self):
        for c in (Const(-2 + 0j), Const(-2j), Const(-0.5 + 0j)):
            tree = Pow(c, 2)
            assert close(evaluate(parse(to_str(tree))), evaluate(tree))
