"""Closed-form checks of CLI outputs, independent of the solver.

Dual numbers are (c1, c2) pairs of complex numpy arrays meaning
c1 + c2 rho with rho^2 = 0; the few operations the closed forms need are
written out here so that no solver code takes part in the check.

Each check returns a ``Verdict``: ``sound`` is False when the output is
malformed or structurally wrong (exit code outside the command's documented
outcomes, wrong kind, kappa or solvability, missing sections); ``ok`` is
False as well when the result misses the closed form by more than the
problem's residual tolerance or ``verify`` rejects a solution.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cases import BASES, Case

RESIDUAL_TOL = 1e-6   # the problem files' default residual tolerance
DIGIT_CAP = 15.0


@dataclass
class Verdict:
    sound: bool
    ok: bool
    message: str = ""
    closed_form_error: Optional[float] = None
    sup_residual: Optional[float] = None
    error_estimate: Optional[float] = None


def digits(err: float) -> float:
    """-log10 of an error, kept within [0, DIGIT_CAP] so zero stays finite."""
    if err <= 0.0:
        return DIGIT_CAP
    return min(DIGIT_CAP, max(0.0, -math.log10(err)))


# -- dual arithmetic ---------------------------------------------------------

def _mul(a, b):
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _exp(a):
    e = np.exp(a[0])
    return (e, e * a[1])


def _pow(a, n: int):
    return (a[0] ** n, n * a[0] ** (n - 1) * a[1])


def _poly(coeffs: list, z):
    acc = (np.zeros_like(z[0]), np.zeros_like(z[0]))
    for c in reversed(coeffs):
        acc = _add(_mul(acc, z), (c[0] + 0 * z[0], c[1] + 0 * z[0]))
    return acc


def _norm(a):
    return np.hypot(np.abs(a[0]), np.abs(a[1]))


def exact_sides(case: Case, z):
    """Exact (Phi+, Phi-) of a solvable case at algebra values z."""
    zero = (np.zeros_like(z[0]), np.zeros_like(z[0]))
    g = _poly(case.g, z)
    if case.kind == "jump" or case.kappa < 0:
        return g, zero
    p = _poly(case.poly, z)
    ep = _mul(_exp(_mul((case.b[0], case.b[1]), z)), p)
    plus = ep if case.kind == "homogeneous" else _add(g, ep)
    return plus, _mul(_pow(z, -case.kappa), p)


def _rows(rows) -> tuple:
    arr = np.asarray(rows, dtype=float).reshape(-1, 4)
    return (arr[:, 0] + 1j * arr[:, 1], arr[:, 2] + 1j * arr[:, 3])


def _embed(basis: str, x, y):
    (e1, f1), (e2, f2) = BASES[basis]
    return (x * e1 + y * e2, x * f1 + y * f2)


def _relative_error(got, want) -> float:
    if got[0].size == 0:
        return 0.0
    scale = max(1.0, float(np.max(_norm(want))))
    diff = (got[0] - want[0], got[1] - want[1])
    return float(np.max(_norm(diff))) / scale


def closed_form_error(case: Case, doc: dict) -> float:
    """Largest relative miss of the boundary rows and grid values."""
    bnd = doc["boundary"]
    z = _rows(bnd["tau"])
    plus, minus = exact_sides(case, z)
    err = max(_relative_error(_rows(bnd["phi_plus"]), plus),
              _relative_error(_rows(bnd["phi_minus"]), minus))
    grid = doc.get("grid")
    if grid is not None:
        gx, gy = np.meshgrid(np.asarray(grid["x"]), np.asarray(grid["y"]),
                             indexing="xy")
        gx, gy = gx.ravel(), gy.ravel()
        for key, side in (("phi_plus", 0), ("phi_minus", 1)):
            sel = [j for j, row in enumerate(grid[key]) if row is not None]
            if not sel:
                continue
            z = _embed(case.basis, gx[sel], gy[sel])
            want = exact_sides(case, z)[side]
            got = _rows([grid[key][j] for j in sel])
            err = max(err, _relative_error(got, want))
    return err


# -- per-call checks -----------------------------------------------------------

def check_solve(case: Case, code: int, doc: Optional[dict]) -> Verdict:
    if code != case.expected_solve_exit:
        return Verdict(False, False, f"solve exit {code}, expected "
                                     f"{case.expected_solve_exit}")
    if doc is None:
        return Verdict(False, False, "no result file")
    want_kappa = None if case.kind == "jump" else case.kappa
    for key, want in (("kind", case.kind), ("kappa", want_kappa),
                      ("solvable", case.solvable)):
        if doc.get(key) != want:
            return Verdict(False, False, f"{key} {doc.get(key)!r}, expected {want!r}")
    if not case.solvable:
        norms = doc.get("moment_norms") or []
        if doc.get("boundary") is not None or len(norms) != 1:
            return Verdict(False, False, "unsolvable record is malformed")
        miss = abs(norms[0] - 2.0 * math.pi) / (2.0 * math.pi)
        return Verdict(True, miss <= RESIDUAL_TOL,
                       f"moment norm {norms[0]!r}, expected 2 pi")
    bnd = doc.get("boundary")
    if not bnd or not bnd.get("tau") or not (
            len(bnd["tau"]) == len(bnd["phi_plus"]) == len(bnd["phi_minus"])):
        return Verdict(False, False, "boundary section is missing or ragged")
    wants_grid = "grid" in case.problem["output"]
    if (doc.get("grid") is not None) != wants_grid:
        return Verdict(False, False, "grid section presence is wrong")
    err = closed_form_error(case, doc)
    return Verdict(True, err <= RESIDUAL_TOL, f"closed-form error {err:.3e}",
                   closed_form_error=err, sup_residual=doc["sup_residual"],
                   error_estimate=doc["boundary_error_estimate"])


def check_verify(code: int, report: Optional[dict]) -> Verdict:
    if code not in (0, 1) or report is None:
        return Verdict(False, False, f"verify exit {code}")
    if not report.get("contour_hash_match"):
        return Verdict(False, False, "verify saw a contour hash mismatch")
    passed = bool(report.get("passed"))
    if passed != (code == 0):
        return Verdict(False, False, "verify exit code disagrees with its report")
    return Verdict(True, passed, f"verify exit {code}")


_KAPPA = re.compile(r"kappa=(-?\d+)")


def check_index(case: Case, code: int, stdout: str) -> Verdict:
    m = _KAPPA.search(stdout)
    if code != 0 or m is None or int(m.group(1)) != case.kappa:
        return Verdict(False, False, f"index exit {code}, output {stdout.strip()!r}")
    return Verdict(True, True)
