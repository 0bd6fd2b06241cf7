"""Problem and result files: a JSON schema with deterministic serialization.

Complex numbers are stored as [re, im]; algebra values as four floats
[re c1, im c1, re c2, im c2].

A problem file holds ``contour``, ``basis``, the coefficient ``G`` (default
"1") and free term ``g`` (default "0") as expressions, ``tolerances``,
``output.grid`` and ``polynomial``: the coefficients of P, constant term
first, one four-float row each.  P has degree at most kappa, so a jump
problem (kappa = 0) takes at most one row, its additive constant, and a
negative index takes none that is nonzero; more rows are invalid input.

Every number in a problem file is checked before any solve: node counts
are positive ints, and coordinates, basis vectors, polynomial rows and
tolerances are finite numbers.

Result files contain no timestamps and use sorted keys, so identical inputs
produce byte-identical outputs.  A result records what the solve computed,
and what a reader needs in order to use it; it does not restate its inputs,
since ``verify`` samples G and g from the problem, independently of
construction.  ``kind``, ``kappa`` and ``raw_index`` record the branch and
the index; ``polynomial`` records P, the member of the solution family that
was built; ``psi`` records g exp(-E+) at every node (zero rows for a
homogeneous problem); ``solvable``, ``moments`` and ``moment_norms`` record
the moment conditions; and ``tolerances`` the residual tolerance in force,
which ``--tol-residual`` can change.  The boundary section records Phi+ and
Phi- at every contour node, row j at node j, because ``verify`` integrates
them with the contour's quadrature, and ``tau`` at each node, so that a
reader can pair each row with its point.  ``sup_residual`` and
``boundary_error_estimate`` come from ``rbvp.residual_report``.  Older files
of the same format verify the same when they also hold the node order
(``boundary.node_indices``), exterior rings (``infinity_bound``,
``infinity_by_radius``), samples of t, G and g (``boundary.t``,
``boundary.G``, ``boundary.g``) or ``trivial_only``: ``verify`` reads none
of them.
The grid section records Phi+ (``phi_plus``) at the grid points inside the
curve and Phi- (``phi_minus``) at those outside, from the node tables
(``rbvp``), and ``null`` for the other side; a point has neither only
within rounding of the curve, GRID_FLOOR times its diameter, the band that
the grid passes to ``Contour.interior_mask``.

Result and verify files are compact: one line, ``json.dumps(doc,
sort_keys=True)`` with its ", " and ": " separators, then a newline.
Floats are written by ``repr``, so every value reads back exactly.

``read_json`` decodes a result file as ``json.load`` does, except that it
steps over a top-level ``grid`` object that is flat: one whose text holds
no other "{", no backslash and an even number of '"' before its first "}".
Every string in it is then closed, so that "}" ends it.  This is always the
case for what ``write_json`` writes, and the grid is most of a grid
result's bytes (94.8% and 95.3% of the two 128 x 128 grid results of the
benchmark at seed 301).  ``verify`` reads the boundary section
and never the grid, so a flat grid is neither decoded nor checked; any
other grid is decoded.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from json.decoder import WHITESPACE, scanstring
from typing import Optional

import numpy as np

from .algebra import BasisE, DualComplex, PointE, biharmonic_basis, classical_basis
from .contour import Contour, build_contour
from .errors import ProblemFormatError
from .rbvp import (RBVPProblem, RBVPSolution, ResidualReport,
                   SolvabilityReport, Tolerances)
from . import expr as _expr

RESULT_FORMAT = "dualrbvp-result@1"
VERIFY_FORMAT = "dualrbvp-verify@1"

# output grid points nearer the curve than this times its diameter get no
# value: which side they lie on is rounding
GRID_FLOOR = 1e-12


def dc_to_list(c: DualComplex) -> list:
    return [float(np.real(c.c1)), float(np.imag(c.c1)),
            float(np.real(c.c2)), float(np.imag(c.c2))]


def dc_array_to_lists(c: DualComplex) -> list:
    c1 = np.atleast_1d(np.asarray(c.c1, dtype=complex))
    c2 = np.atleast_1d(np.asarray(c.c2, dtype=complex))
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=1).tolist()


def dc_array_from_lists(rows) -> DualComplex:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as e:   # ragged rows, or not numbers
        raise ProblemFormatError(f"expected a list of four-float rows: {e}") from e
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ProblemFormatError("expected a list of four-float rows")
    return DualComplex(arr[:, 0] + 1j * arr[:, 1], arr[:, 2] + 1j * arr[:, 3])


@dataclass
class ProblemSpec:
    contour: Contour        # on the problem's basis
    problem: RBVPProblem
    grid: Optional[dict]    # output grid {"nx", "ny", "margin"}, or None


def _parse_basis(node) -> BasisE:
    if node is None or node == "biharmonic":
        return biharmonic_basis()
    if node == "classical":
        return classical_basis()
    if isinstance(node, dict) and "e1" in node and "e2" in node:
        # each vector is [re a, im a, re b, im b]
        e1, e2 = (_numbers(node[k], f"basis '{k}'", 4) for k in ("e1", "e2"))
        return BasisE(complex(e1[0], e1[1]), complex(e1[2], e1[3]),
                      complex(e2[0], e2[1]), complex(e2[2], e2[3]))
    raise ProblemFormatError(f"unrecognized basis spec {node!r}")


def load_problem(path: str, nodes_override: Optional[int] = None,
                 residual_tol_override: Optional[float] = None) -> ProblemSpec:
    raw = _decode_file(path, "problem file", json.loads)
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    if "contour" not in raw:
        raise ProblemFormatError("problem file needs a 'contour' section")

    basis = _parse_basis(raw.get("basis"))
    contour = build_contour(basis, _parse_contour(raw["contour"], nodes_override))

    tol_node = raw.get("tolerances", {})
    if not isinstance(tol_node, dict):
        raise ProblemFormatError("'tolerances' must be an object")
    tol = tol_node.get("residual", Tolerances.residual)
    if residual_tol_override is not None:
        tol = residual_tol_override
    # other keys, such as "quadrature", "index_integrality" and "moment" in
    # older files, are read and ignored: the residual tolerance also judges
    # the moment conditions
    tols = Tolerances(residual=_finite(tol, "residual tolerance", "> 0"))

    coeffs = [DualComplex(complex(a, b), complex(c, d))
              for a, b, c, d in _rows(raw.get("polynomial", []), "'polynomial'", 4)]
    g_text = raw.get("G", "1")
    f_text = raw.get("g", "0")
    if not isinstance(g_text, str) or not isinstance(f_text, str):
        raise ProblemFormatError("'G' and 'g' must be expression strings")
    problem = RBVPProblem(contour=contour, G=_expr.parse(g_text),
                          g=_expr.parse(f_text), poly_coeffs=coeffs,
                          tolerances=tols)

    out_node = raw.get("output", {})
    if not isinstance(out_node, dict):
        raise ProblemFormatError("'output' must be an object")
    # other keys, such as "boundary_samples" in older files, are ignored:
    # the boundary section records every node
    grid = _parse_grid(out_node.get("grid"))
    return ProblemSpec(contour=contour, problem=problem, grid=grid)


def _parse_contour(node, nodes_override: Optional[int]) -> dict:
    """The contour spec, its numbers checked before any solve: a positive
    integer ``nodes``, a finite ``radius``, and two finite numbers for
    ``center``, ``semi_axes`` and each row of ``vertices`` or ``points``."""
    if not isinstance(node, dict):
        raise ProblemFormatError("'contour' must be an object")
    spec = dict(node)
    if nodes_override is not None:
        if spec.get("kind") == "explicit":
            raise ProblemFormatError(
                "an explicit contour has exactly its listed points; a node "
                "count cannot be set for it")
        spec["nodes"] = nodes_override
    if "nodes" in spec:
        spec["nodes"] = _count(spec["nodes"], "contour 'nodes'")
    if "radius" in spec:
        spec["radius"] = _finite(spec["radius"], "contour 'radius'")
    for key in ("center", "semi_axes"):
        if key in spec:
            spec[key] = _numbers(spec[key], f"contour '{key}'", 2)
    for key in ("vertices", "points"):
        if key in spec:
            spec[key] = _rows(spec[key], f"contour '{key}'", 2)
    return spec


def _parse_grid(node) -> Optional[dict]:
    """The output grid with positive integer ``nx`` and ``ny`` and a finite
    ``margin`` >= 0 (default 0.5), checked before any solve."""
    if node is None:
        return None
    if not isinstance(node, dict):
        raise ProblemFormatError("'output.grid' must be an object")
    grid = {}
    for key in ("nx", "ny"):
        if key not in node:
            raise ProblemFormatError(f"grid spec needs '{key}'")
        grid[key] = _count(node[key], f"grid '{key}'")
    grid["margin"] = _finite(node.get("margin", 0.5), "grid 'margin'", ">= 0")
    return grid


_BOUNDS = {"> 0": operator.gt, ">= 0": operator.ge}


def _finite(v, what: str, bound: Optional[str] = None) -> float:
    """``v`` as a float when it is a finite number (not a bool) that meets
    ``bound``: NaN, infinity, a string or an int no float holds is invalid
    input, not a value to compute with."""
    try:
        ok = (not isinstance(v, bool) and math.isfinite(v)
              and (bound is None or _BOUNDS[bound](v, 0)))
    except (TypeError, OverflowError):   # not a number, or no float holds it
        ok = False
    if not ok:
        rule = f"a finite number {bound}" if bound else "a finite number"
        raise ProblemFormatError(f"{what} must be {rule}, got {v!r}")
    return float(v)


def _count(v, what: str) -> int:
    """``v`` when it is a positive int (not a bool, not a float)."""
    if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
        raise ProblemFormatError(f"{what} must be a positive integer, got {v!r}")
    return v


def _rows(v, what: str, size: int) -> list:
    """``v`` as a list of rows of ``size`` finite floats each."""
    if not isinstance(v, list):
        raise ProblemFormatError(f"{what} must be a list, got {v!r}")
    return [_numbers(row, f"{what} row", size) for row in v]


def _numbers(v, what: str, size: int) -> list:
    """``v`` as ``size`` finite floats."""
    if not isinstance(v, (list, tuple)) or len(v) != size:
        raise ProblemFormatError(
            f"{what} must be a list of {size} finite numbers, got {v!r}")
    return [_finite(x, what) for x in v]


def _grid_section(spec: ProblemSpec, solution: RBVPSolution) -> Optional[dict]:
    if spec.grid is None:
        return None
    nx, ny, margin = spec.grid["nx"], spec.grid["ny"], spec.grid["margin"]
    lo = spec.contour.xy.min(axis=0)
    hi = spec.contour.xy.max(axis=0)
    pad = margin * max(hi[0] - lo[0], hi[1] - lo[1])
    xs = np.linspace(lo[0] - pad, hi[0] + pad, nx)
    ys = np.linspace(lo[1] - pad, hi[1] + pad, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    flat_x, flat_y = gx.ravel(), gy.ravel()
    code = spec.contour.interior_mask(flat_x, flat_y,
                                      GRID_FLOOR * spec.contour.diameter)
    plus_rows: list = [None] * flat_x.size
    minus_rows: list = [None] * flat_x.size
    for side, rows, side_code in (("+", plus_rows, 1), ("-", minus_rows, 0)):
        sel = np.nonzero(code == side_code)[0]
        if sel.size == 0:
            continue
        pts = PointE(flat_x[sel], flat_y[sel], spec.contour.basis)
        vals = solution.off_curve(side, pts)
        for j, row in zip(sel, dc_array_to_lists(vals)):
            rows[j] = row
    return {"nx": nx, "ny": ny, "x": [float(v) for v in xs],
            "y": [float(v) for v in ys],
            "phi_plus": plus_rows, "phi_minus": minus_rows}


def _boundary_section(spec: ProblemSpec, solution: RBVPSolution) -> dict:
    return {
        "tau": dc_array_to_lists(spec.contour.values()),
        "phi_plus": dc_array_to_lists(solution.boundary_table("+")),
        "phi_minus": dc_array_to_lists(solution.boundary_table("-")),
    }


def result_document(spec: ProblemSpec, solution: Optional[RBVPSolution],
                    report: Optional[ResidualReport],
                    solvability: Optional[SolvabilityReport] = None) -> dict:
    """Assemble the result file body: what the solve computed, and what a
    reader needs in order to use it (module docstring).  ``solution`` and
    its ``report`` are None for an unsolvable problem, which records its
    ``solvability`` report and the defaults below.  Only a nonhomogeneous
    problem can be unsolvable: a jump or homogeneous one has no moment
    condition to fail."""
    conditions = solvability if solution is None else solution.solvability
    doc: dict = {
        "format": RESULT_FORMAT,
        "contour_hash": spec.contour.content_hash(),
        "tolerances": {"residual": spec.problem.tolerances.residual},
        "kind": "nonhomogeneous",
        "kappa": conditions.kappa,
        "raw_index": None,
        "polynomial": [],
        "psi": None,
        "boundary": None,
        "grid": None,
        "solvable": conditions.solvable,
        "moment_norms": [float(v) for v in conditions.moment_norms],
        "moments": [dc_to_list(m) for m in conditions.moments],
        "sup_residual": None,
        "boundary_error_estimate": None,
    }
    if solution is not None:
        doc.update(
            kind=solution.kind,
            kappa=solution.kappa,
            # a jump problem records no index, like its kappa label
            raw_index=(solution.canonical.raw_index
                       if solution.kappa is not None else None),
            polynomial=[dc_to_list(c) for c in solution.poly_coeffs],
            psi=dc_array_to_lists(solution.psi),
            boundary=_boundary_section(spec, solution),
            grid=_grid_section(spec, solution),
            sup_residual=report.sup_residual,
            boundary_error_estimate=report.boundary_error_estimate,
        )
    return doc


def write_json(path: str, doc: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump never does
    text = json.dumps(doc, sort_keys=True)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as e:
        raise ProblemFormatError(f"cannot write file: {e}") from e


def read_json(path: str) -> dict:
    """The JSON document of a result file, as ``json.load`` reads it, but
    without a flat top-level ``grid`` member: an object whose text holds no
    other "{", no backslash and an even number of '"' up to its first "}"
    is stepped over, not decoded, so its values are not checked (see the
    module docstring).  Any other ``grid`` value is decoded."""
    return _decode_file(path, "file", _decode_result)


def _decode_file(path: str, what: str, decode):
    """``decode`` of the text of the file at ``path``.  A file that cannot
    be read, is not UTF-8, is not valid JSON or nests too deeply to decode
    is invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ProblemFormatError(f"cannot read {what}: {e}") from e
    except UnicodeDecodeError as e:
        raise ProblemFormatError(f"{what} is not UTF-8 text: {e}") from e
    try:
        return decode(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"{what} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ProblemFormatError(f"{what} nests too deeply to decode") from e


_SCAN = json.JSONDecoder().scan_once


def _decode_result(text: str):
    """``json.loads(text)``, walking a top-level object member by member
    with the decoder's own scanner, and leaving out a flat ``grid``."""
    ws = WHITESPACE.match
    i = ws(text, 0).end()
    if not text.startswith("{", i):
        return json.loads(text)
    doc: dict = {}
    i = ws(text, i + 1).end()
    more = not text.startswith("}", i)
    while more:
        if not text.startswith('"', i):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, i)
        key, i = scanstring(text, i + 1)
        i = ws(text, i).end()
        if not text.startswith(":", i):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
        i = ws(text, i + 1).end()
        end = _flat_object_end(text, i) if key == "grid" else -1
        if end >= 0:
            doc.pop(key, None)   # the last of repeated keys wins, as in json
            i = end + 1
        else:
            try:
                doc[key], i = _SCAN(text, i)
            except StopIteration as e:
                raise json.JSONDecodeError("Expecting value", text, e.value) from None
        i = ws(text, i).end()
        more = text.startswith(",", i)
        if more:
            i = ws(text, i + 1).end()
        elif not text.startswith("}", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
    i = ws(text, i + 1).end()
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return doc


def _flat_object_end(text: str, i: int) -> int:
    """Index of the "}" that ends a flat object opening at ``text[i]``
    (see the module docstring), or -1 when there is none."""
    if not text.startswith("{", i):
        return -1
    end = text.find("}", i)
    if (end < 0 or text.find("{", i + 1, end) >= 0
            or text.find("\\", i, end) >= 0 or text.count('"', i, end) % 2):
        return -1
    return end
