"""Problem and result files: a JSON schema with deterministic serialization.

Complex numbers are stored as [re, im]; algebra values as four floats
[re c1, im c1, re c2, im c2].

A problem file holds ``contour``, ``basis``, the coefficient ``G`` (default
"1") and free term ``g`` (default "0") as expressions, ``tolerances``,
``output.grid`` and ``polynomial``: the coefficients of P, constant term
first, one four-float row each.  P has degree at most kappa, so a jump
problem (kappa = 0) takes at most one row, its additive constant, and a
negative index takes none that is nonzero; more rows are invalid input.

Result files contain no timestamps and use sorted keys, so identical inputs
produce byte-identical outputs.  ``polynomial`` records P, ``psi`` records
g exp(-E+) at every node (zero rows for a homogeneous problem), and the
boundary section records Phi+ and Phi- at every contour node, in node
order, because ``verify`` integrates them with the contour's quadrature.

Result and verify files are compact: one line, ``json.dumps(doc,
sort_keys=True)`` with its ", " and ": " separators, then a newline.
Floats are written by ``repr``, so every value reads back exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import BasisE, DualComplex, PointE, biharmonic_basis, classical_basis
from .contour import Contour, build_contour
from .errors import ProblemFormatError
from .rbvp import RBVPProblem, RBVPSolution, ResidualReport, Tolerances
from . import expr as _expr

RESULT_FORMAT = "dualrbvp-result@1"
VERIFY_FORMAT = "dualrbvp-verify@1"

DEFAULT_TOLERANCES = {"residual": 1e-6}


def dc_to_list(c: DualComplex) -> list:
    return [float(np.real(c.c1)), float(np.imag(c.c1)),
            float(np.real(c.c2)), float(np.imag(c.c2))]


def dc_from_list(v) -> DualComplex:
    if not (isinstance(v, (list, tuple)) and len(v) == 4):
        raise ProblemFormatError(f"expected four floats, got {v!r}")
    return DualComplex(complex(v[0], v[1]), complex(v[2], v[3]))


def dc_array_to_lists(c: DualComplex) -> list:
    c1 = np.atleast_1d(np.asarray(c.c1, dtype=complex))
    c2 = np.atleast_1d(np.asarray(c.c2, dtype=complex))
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=1).tolist()


def dc_array_from_lists(rows) -> DualComplex:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ProblemFormatError("expected a list of four-float rows")
    return DualComplex(arr[:, 0] + 1j * arr[:, 1], arr[:, 2] + 1j * arr[:, 3])


@dataclass
class ProblemSpec:
    basis: BasisE
    contour: Contour
    problem: RBVPProblem
    grid: Optional[dict]    # output grid {"nx", "ny", "margin"}, or None
    raw: dict


def _parse_basis(node) -> BasisE:
    if node is None or node == "biharmonic":
        return biharmonic_basis()
    if node == "classical":
        return classical_basis()
    if isinstance(node, dict) and "e1" in node and "e2" in node:
        e1, e2 = node["e1"], node["e2"]
        for v in (e1, e2):
            if not (isinstance(v, (list, tuple)) and len(v) == 4):
                raise ProblemFormatError("basis vectors need four floats "
                                         "[re a, im a, re b, im b]")
        return BasisE(complex(e1[0], e1[1]), complex(e1[2], e1[3]),
                      complex(e2[0], e2[1]), complex(e2[2], e2[3]))
    raise ProblemFormatError(f"unrecognized basis spec {node!r}")


def load_problem(path: str, nodes_override: Optional[int] = None,
                 residual_tol_override: Optional[float] = None) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ProblemFormatError(f"cannot read problem file: {e}") from e
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"problem file is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    if "contour" not in raw:
        raise ProblemFormatError("problem file needs a 'contour' section")

    basis = _parse_basis(raw.get("basis"))
    cspec = dict(raw["contour"])
    if nodes_override is not None:
        if cspec.get("kind") == "explicit":
            raise ProblemFormatError(
                "an explicit contour has exactly its listed points; a node "
                "count cannot be set for it")
        cspec["nodes"] = int(nodes_override)
    contour = build_contour(basis, cspec)

    tol_node = dict(DEFAULT_TOLERANCES)
    extra = raw.get("tolerances", {})
    if not isinstance(extra, dict):
        raise ProblemFormatError("'tolerances' must be an object")
    tol_node.update(extra)
    if residual_tol_override is not None:
        tol_node["residual"] = float(residual_tol_override)
    # other keys, such as "quadrature", "index_integrality" and "moment" in
    # older files, are read and ignored: the residual tolerance also judges
    # the moment conditions
    tols = Tolerances(residual=float(tol_node["residual"]))

    coeffs = [dc_from_list(row) for row in raw.get("polynomial", [])]
    g_text = raw.get("G", "1")
    f_text = raw.get("g", "0")
    if not isinstance(g_text, str) or not isinstance(f_text, str):
        raise ProblemFormatError("'G' and 'g' must be expression strings")
    problem = RBVPProblem(basis=basis, contour=contour,
                          G=_expr.parse(g_text), g=_expr.parse(f_text),
                          poly_coeffs=coeffs, tolerances=tols)

    out_node = raw.get("output", {})
    if not isinstance(out_node, dict):
        raise ProblemFormatError("'output' must be an object")
    # other keys, such as "boundary_samples" in older files, are ignored:
    # the boundary section records every node
    grid = out_node.get("grid")
    if grid is not None:
        for key in ("nx", "ny"):
            if key not in grid:
                raise ProblemFormatError(f"grid spec needs '{key}'")
    return ProblemSpec(basis=basis, contour=contour, problem=problem,
                       grid=grid, raw=raw)


def _grid_section(spec: ProblemSpec, solution: RBVPSolution) -> Optional[dict]:
    if spec.grid is None:
        return None
    nx = int(spec.grid["nx"])
    ny = int(spec.grid["ny"])
    margin = float(spec.grid.get("margin", 0.5))
    lo = spec.contour.xy.min(axis=0)
    hi = spec.contour.xy.max(axis=0)
    pad = margin * max(hi[0] - lo[0], hi[1] - lo[1])
    xs = np.linspace(lo[0] - pad, hi[0] + pad, nx)
    ys = np.linspace(lo[1] - pad, hi[1] + pad, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    flat_x, flat_y = gx.ravel(), gy.ravel()
    # one distance query per grid point: the one that classifies it also
    # picks the near or far rule of its evaluation
    code, dist = spec.contour._classify(flat_x, flat_y)
    plus_rows: list = [None] * flat_x.size
    minus_rows: list = [None] * flat_x.size
    for side, rows, side_code in (("+", plus_rows, 1), ("-", minus_rows, 0)):
        sel = np.nonzero(code == side_code)[0]
        if sel.size == 0:
            continue
        pts = PointE(flat_x[sel], flat_y[sel], spec.basis)
        vals = solution._side(side, pts, dist[sel])
        for j, row in zip(sel, dc_array_to_lists(vals)):
            rows[j] = row
    return {"nx": nx, "ny": ny, "x": [float(v) for v in xs],
            "y": [float(v) for v in ys],
            "phi_plus": plus_rows, "phi_minus": minus_rows}


def _boundary_section(spec: ProblemSpec, solution: RBVPSolution) -> dict:
    from .integral import boundary_samples as _samples
    contour = spec.contour
    return {
        "node_indices": list(range(contour.n)),
        "t": contour.t.tolist(),
        "tau": dc_array_to_lists(contour.values()),
        "phi_plus": dc_array_to_lists(solution.boundary_table("+").values),
        "phi_minus": dc_array_to_lists(solution.boundary_table("-").values),
        "G": dc_array_to_lists(_samples(spec.problem.G, contour)),
        "g": dc_array_to_lists(_samples(spec.problem.g, contour)),
    }


def result_document(spec: ProblemSpec, solution: Optional[RBVPSolution],
                    report: Optional[ResidualReport],
                    solvability=None, kind: Optional[str] = None) -> dict:
    """Assemble the result file body; ``solution`` is None for unsolvable
    problems, which still record their moment data."""
    doc: dict = {
        "format": RESULT_FORMAT,
        "contour_hash": spec.contour.content_hash(),
        "tolerances": {"residual": spec.problem.tolerances.residual},
    }
    sol_report = solvability
    if solution is not None:
        sol_report = solution.solvability if sol_report is None else sol_report
        doc["kind"] = solution.kind
        doc["kappa"] = solution.kappa
        # a jump problem records no index, like its kappa label
        doc["raw_index"] = (solution.canonical.raw_index
                            if solution.kappa is not None else None)
        doc["trivial_only"] = solution.trivial_only
        doc["polynomial"] = [dc_to_list(c) for c in solution.poly_coeffs]
        doc["psi"] = dc_array_to_lists(solution.psi)
        doc["boundary"] = _boundary_section(spec, solution)
        doc["grid"] = _grid_section(spec, solution)
    else:
        doc["kind"] = kind
        doc["kappa"] = sol_report.kappa if sol_report is not None else None
        doc["raw_index"] = None
        doc["trivial_only"] = False
        doc["polynomial"] = []
        doc["psi"] = None
        doc["boundary"] = None
        doc["grid"] = None
    if sol_report is not None:
        doc["solvable"] = sol_report.solvable
        doc["moment_norms"] = [float(v) for v in sol_report.moment_norms]
        doc["moments"] = [dc_to_list(m) for m in sol_report.moments]
    else:
        doc["solvable"] = True
        doc["moment_norms"] = []
        doc["moments"] = []
    if report is not None:
        doc["sup_residual"] = report.sup_residual
        doc["infinity_bound"] = report.infinity_bound
        doc["infinity_by_radius"] = report.infinity_by_radius
        doc["boundary_error_estimate"] = report.boundary_error_estimate
    else:
        doc["sup_residual"] = None
        doc["infinity_bound"] = None
        doc["infinity_by_radius"] = None
        doc["boundary_error_estimate"] = None
    return doc


def write_json(path: str, doc: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump never does
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ProblemFormatError(f"cannot read file: {e}") from e
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"not valid JSON: {e}") from e
