"""Seeded problem generator for the benchmark workloads.

Every case is built so that its exact solution is known without the solver:

* G = tau^kappa exp(b tau) and an entire free term g give
  Phi+ = g + exp(b z) P(z) and Phi- = z^(-kappa) P(z), with P = 0 when
  kappa < 0 (the moment conditions hold because g exp(-b tau) is entire);
* a jump problem (G = 1) with entire g gives Phi+ = g and Phi- = 0;
* G = tau^(-1) exp(b tau) with g = 1/tau is unsolvable, with first moment
  norm 2 pi.

The seed draws the dual coefficients of g, b and P, the ellipse axes and
the polygon vertex jitter.  Node counts and grid sizes never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# basis vectors (e1, e2) as dual numbers (c1, c2); mirrors the two named
# bases of the problem-file format
BASES = {
    "biharmonic": ((1 + 0j, 0j), (1j, -0.5j)),
    "classical": ((1 + 0j, 0j), (1j, 0j)),
}

WORKLOADS = ("factor", "field-grid")

DIGITS = 6  # coefficients are rounded so the problem text is exact

# A polygon gets ceil(ceil(edge / h) / 8) eight-node panels per edge, with
# h = perimeter / nodes.  The node target below puts every edge mid-way
# between two panel counts, so the 0.01 vertex jitter never changes N:
# the square has 128 nodes.
SQUARE = [[-1, -1], [1, -1], [1, 1], [-1, 1]]


@dataclass
class Case:
    """One problem file plus the closed form its solution must match."""

    name: str
    problem: dict
    basis: str
    kind: str                       # jump | homogeneous | nonhomogeneous
    kappa: int
    b: tuple = (0j, 0j)             # h = b tau, b as (c1, c2)
    g: list = field(default_factory=list)      # [(c1, c2)] coefficients of tau^j
    poly: list = field(default_factory=list)   # [(c1, c2)] coefficients of z^j
    solvable: bool = True
    calls: tuple = ("solve", "verify")

    @property
    def expected_solve_exit(self) -> int:
        return 0 if self.solvable else 2


def _dual(rng, scale: float) -> tuple:
    v = np.round(rng.uniform(-scale, scale, 4), DIGITS)
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def _num(x: float) -> str:
    return f"{x:.{DIGITS}f}"


def _dual_text(d: tuple) -> str:
    a, r = d
    return (f"(({_num(a.real)})+({_num(a.imag)})*i"
            f"+(({_num(r.real)})+({_num(r.imag)})*i)*rho)")


def _poly_text(coeffs: list) -> str:
    terms = [_dual_text(c) if j == 0 else f"{_dual_text(c)}*tau^{j}"
             for j, c in enumerate(coeffs)]
    return "+".join(terms) if terms else "0"


def _rows(coeffs: list) -> list:
    return [[c.real, c.imag, r.real, r.imag] for c, r in coeffs]


def _problem(basis: str, contour: dict, G: str, g: str, poly: list,
             grid: Optional[int] = None) -> dict:
    doc = {"basis": basis, "contour": contour, "G": G, "g": g,
           "output": {"boundary_samples": 128}}
    if poly:
        doc["polynomial"] = _rows(poly)
    if grid is not None:
        doc["output"]["grid"] = {"nx": grid, "ny": grid, "margin": 0.5}
    return doc


def _coefficient_case(rng, name: str, basis: str, contour: dict, kappa: int,
                      homogeneous: bool = False, grid: Optional[int] = None,
                      calls=("solve", "verify")) -> Case:
    """G = tau^kappa exp(b tau) with an entire (or zero) free term."""
    b = _dual(rng, 0.3)
    g = [] if homogeneous else [_dual(rng, 1.0) for _ in range(3)]
    poly = [_dual(rng, 0.5) for _ in range(kappa + 1)] if kappa >= 0 else []
    G = f"tau^({kappa})*exp({_dual_text(b)}*tau)"
    return Case(name=name, basis=basis, kind="homogeneous" if homogeneous
                else "nonhomogeneous", kappa=kappa, b=b, g=g,
                poly=poly, calls=calls,
                problem=_problem(basis, contour, G, _poly_text(g), poly, grid))


def _jump_case(rng, name: str, basis: str, contour: dict,
               grid: Optional[int] = None, calls=("solve", "verify")) -> Case:
    g = [_dual(rng, 1.0) for _ in range(3)]
    return Case(name=name, basis=basis, kind="jump", kappa=0, g=g, calls=calls,
                problem=_problem(basis, contour, "1", _poly_text(g), [], grid))


def _unsolvable_case(rng, name: str, contour: dict, calls) -> Case:
    b = _dual(rng, 0.3)
    G = f"tau^(-1)*exp({_dual_text(b)}*tau)"
    return Case(name=name, basis="biharmonic", kind="nonhomogeneous", kappa=-1,
                b=b, solvable=False, calls=calls,
                problem=_problem("biharmonic", contour, G, "1/tau", [], None))


def _axes(rng) -> list:
    return [round(float(rng.uniform(1.15, 1.35)), DIGITS),
            round(float(rng.uniform(0.75, 0.9)), DIGITS)]


def _jitter(rng, verts: list, amount: float) -> list:
    v = np.asarray(verts, dtype=float)
    return np.round(v + rng.uniform(-amount, amount, v.shape), DIGITS).tolist()


def make_cases(workload: str, seed: int) -> list[Case]:
    """The cases of one workload, drawn from the seed; N is fixed per case."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "factor":
        a, b = _axes(rng)
        ang = 2.0 * np.pi * np.arange(128) / 128
        ea, eb = _axes(rng)
        explicit = np.round(np.stack([ea * np.cos(ang), eb * np.sin(ang)], axis=1),
                            12).tolist()
        square = _jitter(rng, SQUARE, 0.01)
        return [
            _coefficient_case(rng, "circle-k1", "biharmonic",
                              {"kind": "circle", "radius": 1.0, "nodes": 256}, 1),
            _coefficient_case(rng, "ellipse-k-1", "biharmonic",
                              {"kind": "ellipse", "semi_axes": [a, b],
                               "nodes": 192}, -1),
            _coefficient_case(rng, "explicit-ellipse-k1", "biharmonic",
                              {"kind": "explicit", "points": explicit}, 1),
            _coefficient_case(rng, "classical-circle-k2-hom", "classical",
                              {"kind": "circle", "radius": 1.0, "nodes": 384}, 2,
                              homogeneous=True),
            _coefficient_case(rng, "square-k1", "biharmonic",
                              {"kind": "polygon", "vertices": square,
                               "nodes": 112}, 1),
        ]
    if workload == "field-grid":
        a, b = _axes(rng)
        calls = ("solve", "verify", "index")
        return [
            _coefficient_case(rng, "circle-k1-grid", "biharmonic",
                              {"kind": "circle", "radius": 1.0, "nodes": 256}, 1,
                              grid=128, calls=calls),
            _jump_case(rng, "classical-ellipse-jump-grid", "classical",
                       {"kind": "ellipse", "semi_axes": [a, b], "nodes": 256},
                       grid=128, calls=calls),
            _unsolvable_case(rng, "circle-unsolvable",
                             {"kind": "circle", "radius": 1.0, "nodes": 256},
                             calls=calls),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
