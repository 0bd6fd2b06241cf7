"""Command line front end.

Subcommands:

* solve   PROBLEM [--out PATH] [--nodes N] [--tol-residual X]
* verify  PROBLEM SOLUTION [--out PATH] [--nodes N] [--tol-residual X]
* index   PROBLEM [--nodes N]
* eval    EXPR [--x X --y Y] [--t T] [--basis biharmonic|classical]

``solve`` reads the case off the data (``rbvp.solve_auto``): a coefficient
identically 1 makes a jump problem and a free term identically 0 a
homogeneous one, and every case is built by the one solution formula.

``verify`` passes when the boundary-condition residual of the recorded
tables is within the residual tolerance and the tables are the traces of
one sectionally monogenic function: max |C[Phi+]| outside the curve and the
spread of C[Phi-] inside it are each within tolerance * max(1, max |Phi|)
(``rbvp.trace_defects``).  It reads the result's ``boundary`` section and
neither decodes nor checks its ``grid`` (``problemfile.read_json``).  A
record that claims to be unsolvable holds no boundary data; it passes only
when the problem is unsolvable, which ``verify`` re-derives from the problem
and never reads from the record: the index (``build_canonical_X``) is
negative, and some moment norm (``check_solvability``) exceeds the residual
tolerance.  The verify file reports the re-derived ``kappa`` and
``moment_norms`` next to the record's own (``recorded_moment_norms``).

Exit codes: 0 success; 1 verification residual failure; 2 unsolvable
(result file still written with the moment report); 3 invalid input,
including a command line that does not parse, and any failure to write an
output file (a missing directory as much as a full disk); 4 numerical
failure, including any unexpected internal error.
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
from .integral import boundary_defect
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
from .rbvp import check_solvability, residual_report, solve_auto, trace_defects
from .canonical import build_canonical_X, compute_index
from . import expr as _expr

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_UNSOLVABLE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_log = logging.getLogger(__name__)


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's own parser by name."""
    p = argparse.ArgumentParser(prog="dualrbvp",
                                description="Boundary value problem solver "
                                            "over dual complex numbers")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve a problem file")
    s.add_argument("problem")
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
    return p, sub.choices


def run_solve(path: str, out_path: str | None = None,
              nodes: int | None = None, tol_residual: float | None = None) -> int:
    out_path = out_path or (path + ".result.json")
    spec = load_problem(path, nodes_override=nodes,
                        residual_tol_override=tol_residual)
    try:
        solution = solve_auto(spec.problem)
    except UnsolvableError as u:
        doc = result_document(spec, None, None, solvability=u.report)
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
    if not isinstance(doc, dict):
        raise ProblemFormatError("solution file must be a JSON object")
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
        n = spec.contour.n
        if not isinstance(boundary, dict):
            raise ProblemFormatError("boundary section must be an object")
        phi_p, phi_m = (_recorded_table(boundary, key, n)
                        for key in ("phi_plus", "phi_minus"))
        residual = float(np.max(boundary_defect(
            spec.contour, spec.problem.G, spec.problem.g, phi_p, phi_m)))
        exterior, interior = trace_defects(spec.contour, phi_p, phi_m)
        trace_tol = tol * max(1.0, float(np.max(dc_norm(phi_p))),
                              float(np.max(dc_norm(phi_m))))
        report["trace_tolerance"] = trace_tol
    report["residual"] = residual
    report["exterior_trace_defect"] = exterior
    report["interior_trace_spread"] = interior
    reg_G, reg_g = regularity_report(spec.contour, spec.problem.G,
                                     spec.problem.g)
    report["dini"] = {
        "G": {"estimate": reg_G.dini_estimate,
              "divergence_suspected": reg_G.divergence_suspected},
        "g": {"estimate": reg_g.dini_estimate,
              "divergence_suspected": reg_g.divergence_suspected},
    }
    passed = (residual is not None and residual <= tol
              and exterior is not None and exterior <= trace_tol
              and interior is not None and interior <= trace_tol)
    unsolvable = (doc.get("kind") == "nonhomogeneous"
                  and not doc.get("solvable", True))
    if unsolvable:
        # re-derived from the problem; solvable is True whenever kappa >= 0
        conditions = check_solvability(
            spec.problem, build_canonical_X(spec.contour, spec.problem.G))
        report.update(kappa=conditions.kappa,
                      moment_norms=conditions.moment_norms,
                      recorded_moment_norms=doc.get("moment_norms"))
        passed = residual is None and not conditions.solvable
    report["passed"] = bool(passed)
    if out_path:
        write_json(out_path, report)
    else:
        import json as _json
        print(_json.dumps(report, sort_keys=True, indent=1))
    if unsolvable:
        print(f"verify: unsolvable record; re-derived kappa={conditions.kappa} "
              f"and moment norms {conditions.moment_norms} (tolerance {tol})",
              file=None if passed else sys.stderr)
        return EXIT_OK if passed else EXIT_RESIDUAL
    if passed:
        print(f"verify: residual {residual} <= {tol}")
        return EXIT_OK
    print(f"verify: residual {residual} (tolerance {tol}), exterior trace "
          f"defect {exterior} and interior trace spread {interior} "
          f"(tolerance {report.get('trace_tolerance')})", file=sys.stderr)
    return EXIT_RESIDUAL


def _recorded_table(boundary: dict, key: str, n: int) -> DualComplex:
    """One node table of a result file's boundary section: one row per
    contour node."""
    if key not in boundary:
        raise ProblemFormatError(f"boundary section needs '{key}'")
    table = dc_array_from_lists(boundary[key])
    if len(table.c1) != n:
        raise ProblemFormatError(
            f"boundary '{key}' has {len(table.c1)} rows for {n} contour nodes")
    return table


def run_index(path: str, nodes: int | None = None) -> int:
    spec = load_problem(path, nodes_override=nodes)
    result = compute_index(spec.contour, spec.problem.G)
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
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:
            # the command's own parser: the same result for half the work
            # of the top-level one, which serves help and usage errors
            args = commands[argv[0]].parse_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse has printed the usage error (code 2, which here means
        # unsolvable) or the help (code 0)
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        if args.command == "solve":
            return run_solve(args.problem, out_path=args.out,
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
