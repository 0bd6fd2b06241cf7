"""The complex part of every dual solution against the scalar Gakhov oracle.

Complex parts multiply independently of the rho parts, so the complex part
of Phi+- must equal the classical scalar solution F+- = Y+- (phi~+- + P)
of F+ = a F- + b, where a and b are the complex parts of G and g on the
xi1 trace of the curve.  The oracle takes its boundary values by
principal-value quadrature, the package by singularity subtraction.
"""

import numpy as np
import pytest

from dualrbvp import DualComplex, biharmonic_basis, circle_contour, classical_basis
from dualrbvp.rbvp import RBVPProblem, solve_auto

from oracle_gakhov import GakhovOracle, circle_samples

N = 256
B = (0.2 + 0.1j, 0.3 - 0.1j)   # exp(b tau): b = B[0] + B[1] rho
B_TEXT = "((0.2+0.1i)+(0.3-0.1i)*rho)"

# name -> (G text, g text, complex part of G, complex part of g,
#          polynomial coefficients as (c1, c2) pairs)
CASES = {
    "kappa1-nonhomogeneous": (
        f"tau*exp({B_TEXT}*tau)", "tau^2+(0.5+0.2i)*tau+0.3*rho",
        lambda w: w * np.exp(B[0] * w), lambda w: w ** 2 + (0.5 + 0.2j) * w,
        [(0.4 - 0.3j, 0.1j), (-0.2 + 0.5j, 0.25)]),
    "kappa-1-solvable": (
        f"tau^(-1)*exp({B_TEXT}*tau)", "1+0.5*tau+0.2*rho*tau",
        lambda w: np.exp(B[0] * w) / w, lambda w: 1 + 0.5 * w,
        []),
    "kappa2-homogeneous": (
        f"tau^2*exp({B_TEXT}*tau)", "0",
        lambda w: w ** 2 * np.exp(B[0] * w), lambda w: 0 * w,
        [(0.3 + 0.1j, -0.2j), (-0.5 + 0.2j, 0.1), (0.25 - 0.4j, 0.3 + 0.3j)]),
}
BASES = {"biharmonic": biharmonic_basis, "classical": classical_basis}


def _tables_and_oracle(basis, G, g, a_fn, b_fn, poly):
    """Both boundary tables of the dual solution, with the oracle's (F+, F-)."""
    contour = circle_contour(basis, radius=1.0, nodes=N)
    sol = solve_auto(RBVPProblem(
        contour=contour, G=G, g=g,
        poly_coeffs=[DualComplex(c1, c2) for c1, c2 in poly]))
    nodes, dnodes = circle_samples(basis.a1, basis.a2, N)
    oracle = GakhovOracle(nodes, dnodes, a_fn(nodes), b_fn(nodes),
                          poly=[c1 for c1, _ in poly])
    assert oracle.kappa == sol.kappa
    assert oracle.solvable()
    tables = [sol.boundary_table(side) for side in "+-"]
    return zip(tables, oracle.boundary_sides())


def _miss(table, want) -> float:
    return float(np.max(np.abs(np.asarray(table.values.c1) - want[table.indices])))


@pytest.mark.parametrize("basis_name", sorted(BASES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_complex_part_matches_scalar_solution(case, basis_name):
    for table, want in _tables_and_oracle(BASES[basis_name](), *CASES[case]):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert _miss(table, want) <= 1e-8 * scale, (table.side, _miss(table, want))


def test_error_estimate_covers_oracle_miss_for_nonentire_free_term():
    # g with a pole at 0 gives psi~- = -(0.5+0.2i)/zeta: offset
    # extrapolation meets only ~1e-7 here, and the table must say so
    G, _, a_fn, _, poly = CASES["kappa1-nonhomogeneous"]
    tables = _tables_and_oracle(biharmonic_basis(), G, "tau^2+(0.5+0.2i)/tau",
                                a_fn, lambda w: w ** 2 + (0.5 + 0.2j) / w, poly)
    for table, want in tables:
        assert _miss(table, want) <= float(np.nanmax(table.error_estimates))


def test_pole_free_term_meets_oracle_at_every_node():
    # psi~- = -(0.5+0.2i)/zeta has its pole at the curve's scale; offset
    # extrapolation met it only to ~1e-7, the node-limit rule to rounding
    G, _, a_fn, _, poly = CASES["kappa1-nonhomogeneous"]
    tables = _tables_and_oracle(biharmonic_basis(), G, "tau^2+(0.5+0.2i)/tau",
                                a_fn, lambda w: w ** 2 + (0.5 + 0.2j) / w, poly)
    for table, want in tables:
        assert len(table.indices) == N
        assert _miss(table, want) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_oracle_interior_limits_of_one_and_tau():
    nodes, dnodes = circle_samples(1 + 0j, 1j, N)
    oracle = GakhovOracle(nodes, dnodes, np.ones(N), np.zeros(N))
    assert np.max(np.abs(oracle.jump_plus(np.ones(N)) - 1.0)) <= 1e-12
    assert np.max(np.abs(oracle.jump_plus(nodes) - nodes)) <= 1e-12
    assert np.max(np.abs(oracle.jump_minus(nodes))) <= 1e-12
