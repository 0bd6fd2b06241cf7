"""Command line front end.

Subcommands:

* solve   PROBLEM [--mode auto|jump|homogeneous|nonhomogeneous] [--out PATH]
          [--nodes N] [--tol-residual X]
* verify  PROBLEM SOLUTION [--out PATH] [--tol-residual X]
* index   PROBLEM [--nodes N]
* eval    EXPR [--x X --y Y] [--t T] [--basis biharmonic|classical]

``verify`` passes when the boundary-condition residual of the recorded
tables is within the residual tolerance and the tables are the traces of
one sectionally monogenic function: max |C[Phi+]| outside the curve and the
spread of C[Phi-] inside it are each within tolerance * max(1, max |Phi|)
(``rbvp.trace_defects``).

Exit codes: 0 success; 1 verification residual failure; 2 unsolvable
(result file still written with the moment report); 3 invalid input;
4 numerical failure, including any unexpected internal error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

import numpy as np

from .algebra import (
    DualComplex,
    PointE,
    biharmonic_basis,
    classical_basis,
    dc_mul,
    dc_norm,
)
from .diagnostics import regularity_report
from .errors import (
    DualRbvpError,
    InputError,
    NumericalError,
    ProblemFormatError,
    UnsolvableError,
)
from .integral import boundary_samples
from .problemfile import (
    RESULT_FORMAT,
    VERIFY_FORMAT,
    dc_array_from_lists,
    dc_to_list,
    load_problem,
    read_json,
    result_document,
    write_json,
)
from .rbvp import (
    residual_report,
    solve_auto,
    solve_homogeneous,
    solve_jump,
    solve_nonhomogeneous,
    trace_defects,
)
from .canonical import compute_index
from . import expr as _expr

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_UNSOLVABLE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_log = logging.getLogger(__name__)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dualrbvp",
                                description="Boundary value problem solver "
                                            "over dual complex numbers")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a problem file")
    s.add_argument("problem")
    s.add_argument("--mode", default="auto",
                   choices=["auto", "jump", "homogeneous", "nonhomogeneous"])
    s.add_argument("--out", default=None)
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--tol-residual", type=float, default=None)

    v = sub.add_parser("verify", help="verify a result file against its problem")
    v.add_argument("problem")
    v.add_argument("solution")
    v.add_argument("--out", default=None)
    v.add_argument("--nodes", type=int, default=None)
    v.add_argument("--tol-residual", type=float, default=None)

    i = sub.add_parser("index", help="print the coefficient's winding index")
    i.add_argument("problem")
    i.add_argument("--nodes", type=int, default=None)

    e = sub.add_parser("eval", help="evaluate an expression at a point")
    e.add_argument("expression")
    e.add_argument("--x", type=float, default=0.0)
    e.add_argument("--y", type=float, default=0.0)
    e.add_argument("--t", type=float, default=None)
    e.add_argument("--basis", default="biharmonic",
                   choices=["biharmonic", "classical"])
    return p


def run_solve(path: str, mode: str = "auto", out_path: str | None = None,
              nodes: int | None = None, tol_residual: float | None = None) -> int:
    out_path = out_path or (path + ".result.json")
    spec = load_problem(path, nodes_override=nodes,
                        residual_tol_override=tol_residual)
    solver = {"auto": solve_auto, "jump": solve_jump,
              "homogeneous": solve_homogeneous,
              "nonhomogeneous": solve_nonhomogeneous}[mode]
    try:
        solution = solver(spec.problem)
    except UnsolvableError as u:
        doc = result_document(spec, None, None, solvability=u.report,
                              kind="nonhomogeneous")
        write_json(out_path, doc)
        norms = ", ".join(f"{v:.6g}" for v in u.report.moment_norms)
        print(f"unsolvable: kappa={u.report.kappa} moment norms [{norms}] "
              f"-> {out_path}")
        return EXIT_UNSOLVABLE
    report = residual_report(solution)
    doc = result_document(spec, solution, report)
    write_json(out_path, doc)
    print(f"{solution.kind}: kappa={solution.kappa} "
          f"sup_residual={report.sup_residual:.3e} -> {out_path}")
    return EXIT_OK


def run_verify(path: str, solution_path: str, out_path: str | None = None,
               nodes: int | None = None, tol_residual: float | None = None) -> int:
    spec = load_problem(path, nodes_override=nodes,
                        residual_tol_override=tol_residual)
    doc = read_json(solution_path)
    if doc.get("format") != RESULT_FORMAT:
        raise ProblemFormatError(
            f"solution file format {doc.get('format')!r} unsupported")
    if doc.get("contour_hash") != spec.contour.content_hash():
        print("verify: contour hash mismatch between problem and solution",
              file=sys.stderr)
        return EXIT_INPUT
    tol = spec.problem.tolerances.residual
    report: dict = {"format": VERIFY_FORMAT, "tolerance": tol,
                    "contour_hash_match": True}

    boundary = doc.get("boundary")
    residual = exterior = interior = None
    if boundary is not None:
        if boundary.get("node_indices") != list(range(spec.contour.n)):
            raise ProblemFormatError(
                "boundary section must record every contour node in order")
        phi_p = dc_array_from_lists(boundary["phi_plus"])
        phi_m = dc_array_from_lists(boundary["phi_minus"])
        G = boundary_samples(spec.problem.G, spec.contour)
        g = boundary_samples(spec.problem.g, spec.contour)
        rhs = dc_mul(G, phi_m)
        defect = DualComplex(phi_p.c1 - rhs.c1 - g.c1, phi_p.c2 - rhs.c2 - g.c2)
        residual = float(np.max(dc_norm(defect)))
        exterior, interior = trace_defects(spec.contour, phi_p, phi_m)
        trace_tol = tol * max(1.0, float(np.max(dc_norm(phi_p))),
                              float(np.max(dc_norm(phi_m))))
        report["trace_tolerance"] = trace_tol
    report["residual"] = residual
    report["exterior_trace_defect"] = exterior
    report["interior_trace_spread"] = interior
    reg_G = regularity_report(spec.contour, spec.problem.G)
    reg_g = regularity_report(spec.contour, spec.problem.g)
    report["dini"] = {
        "G": {"estimate": reg_G.dini_estimate,
              "divergence_suspected": reg_G.divergence_suspected},
        "g": {"estimate": reg_g.dini_estimate,
              "divergence_suspected": reg_g.divergence_suspected},
    }
    passed = (residual is not None and residual <= tol
              and exterior is not None and exterior <= trace_tol
              and interior is not None and interior <= trace_tol)
    if doc.get("kind") == "nonhomogeneous" and not doc.get("solvable", True):
        # an unsolvable record verifies vacuously on its moment data
        passed = residual is None
    report["passed"] = bool(passed)
    if out_path:
        write_json(out_path, report)
    else:
        import json as _json
        print(_json.dumps(report, sort_keys=True, indent=1))
    if passed:
        print(f"verify: residual {residual} <= {tol}" if residual is not None
              else "verify: no boundary data (unsolvable record)")
        return EXIT_OK
    print(f"verify: residual {residual} (tolerance {tol}), exterior trace "
          f"defect {exterior} and interior trace spread {interior} "
          f"(tolerance {report.get('trace_tolerance')})", file=sys.stderr)
    return EXIT_RESIDUAL


def run_index(path: str, nodes: int | None = None) -> int:
    spec = load_problem(path, nodes_override=nodes)
    result = compute_index(
        spec.contour, spec.problem.G,
        integrality_tol=spec.problem.tolerances.index_integrality)
    print(f"kappa={result.kappa} raw={result.raw!r}")
    return EXIT_OK


def run_eval(expression: str, x: float, y: float, t: float | None,
             basis_name: str) -> int:
    basis = biharmonic_basis() if basis_name == "biharmonic" else classical_basis()
    tree = _expr.parse(expression)
    point = PointE(x, y, basis)
    value = _expr.evaluate(tree, z=point, tau=point.value(), t=t)
    print(f"value={dc_to_list(value)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return run_solve(args.problem, mode=args.mode, out_path=args.out,
                             nodes=args.nodes, tol_residual=args.tol_residual)
        if args.command == "verify":
            return run_verify(args.problem, args.solution, out_path=args.out,
                              nodes=args.nodes, tol_residual=args.tol_residual)
        if args.command == "index":
            return run_index(args.problem, nodes=args.nodes)
        return run_eval(args.expression, args.x, args.y, args.t, args.basis)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DualRbvpError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        # a defect, not a user error: one line on stderr, the traceback
        # only to a logging handler that asks for debug records
        _log.debug("%s command failed", args.command, exc_info=True)
        print(f"numerical failure: unexpected {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
