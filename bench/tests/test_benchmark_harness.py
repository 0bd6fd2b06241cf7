"""Tests of the benchmark's own code: generator, oracle, spans and output."""

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from dualrbvp.contour import build_contour  # noqa: E402
from dualrbvp.problemfile import _parse_basis  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = [c.problem for c in cases.make_cases(workload, 7)]
    b = [c.problem for c in cases.make_cases(workload, 7)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_seed_changes_coefficients_but_not_nodes(workload):
    base = cases.make_cases(workload, 1)
    for seed in range(2, 12):
        other = cases.make_cases(workload, seed)
        for c0, c1 in zip(base, other):
            assert c0.problem["g"] != c1.problem["g"] or c0.problem["G"] != c1.problem["G"]
            n0, n1 = (build_contour(_parse_basis(c.problem["basis"]),
                                    c.problem["contour"]).n for c in (c0, c1))
            assert n0 == n1


def _exact_document(case):
    """A result document holding the closed-form solution itself."""
    t = np.arange(64) / 64
    x, y = np.cos(2 * np.pi * t), 0.9 * np.sin(2 * np.pi * t)
    z = oracle._embed(case.basis, x, y)
    plus, minus = oracle.exact_sides(case, z)

    def rows(v):
        return [[a.real, a.imag, b.real, b.imag] for a, b in zip(*v)]

    return {"kind": case.kind, "kappa": case.kappa, "solvable": True,
            "sup_residual": 1e-12, "boundary_error_estimate": 1e-12,
            "grid": None, "boundary": {"tau": rows(z), "phi_plus": rows(plus),
                                       "phi_minus": rows(minus)}}


def test_oracle_accepts_exact_and_rejects_perturbed_phi_plus():
    case = cases.make_cases("factor", 3)[0]
    doc = _exact_document(case)
    assert oracle.check_solve(case, 0, doc).ok
    doc["boundary"]["phi_plus"][5][2] += 1e-4
    verdict = oracle.check_solve(case, 0, doc)
    assert verdict.sound and not verdict.ok
    assert verdict.closed_form_error > oracle.RESIDUAL_TOL


def test_oracle_flags_wrong_kind_as_unsound():
    case = cases.make_cases("factor", 3)[0]
    doc = _exact_document(case)
    doc["kind"] = "jump"
    assert not oracle.check_solve(case, 0, doc).sound


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        for name in table:
            assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)


def test_install_rebinds_imported_names_and_restores():
    import dualrbvp.canonical as canonical
    import dualrbvp.integral as integral
    original = integral.boundary_values
    installed = spans.install(spans.Tracer())
    try:
        assert canonical.boundary_values is not original
        for mod in ("dualrbvp.canonical", "dualrbvp.rbvp", "dualrbvp.diagnostics",
                    "dualrbvp.integral"):
            assert mod in installed.rebound["integral.boundary_samples"]
        for mod in ("dualrbvp.canonical", "dualrbvp.rbvp", "dualrbvp.integral"):
            assert mod in installed.rebound["integral.boundary_values"]
    finally:
        installed.restore()
    assert canonical.boundary_values is original


def _small_cases(workload, seed):
    rng = np.random.default_rng(seed)
    calls = ("solve", "verify", "index")
    return [
        cases._coefficient_case(rng, "circle", "biharmonic",
                                {"kind": "circle", "radius": 1.0, "nodes": 64},
                                1, grid=8, calls=calls),
        cases._jump_case(rng, "square", "biharmonic",
                         {"kind": "polygon", "vertices": cases.SQUARE,
                          "nodes": 121}, calls=calls),
        cases._unsolvable_case(rng, "unsolvable",
                               {"kind": "circle", "radius": 1.0, "nodes": 64},
                               calls=calls),
    ]


@pytest.mark.parametrize("trace_flag, table", [(0, run.END_TO_END),
                                               (1, run.PER_LAYER)])
def test_one_command_prints_every_metric_with_its_unit(
        trace_flag, table, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(cases, "make_cases", _small_cases)
    # the run re-imports the package; give the other tests their modules back
    saved = {k: v for k, v in sys.modules.items() if k.startswith("dualrbvp")}
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert run.main(["--workload", "field-grid", "--seed", "1",
                             "--seconds", "0", "--trace", str(trace_flag)]) == 0
    finally:
        for k in [k for k in sys.modules if k.startswith("dualrbvp")]:
            del sys.modules[k]
        sys.modules.update(saved)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 18    # two passes of nine calls
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
