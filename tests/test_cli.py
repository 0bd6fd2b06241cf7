import json

import numpy as np
import pytest

from dualrbvp import evaluate, parse
from dualrbvp.cli import main
from dualrbvp.problemfile import dc_array_from_lists


def write_problem(path, **overrides):
    doc = {
        "basis": "biharmonic",
        "contour": {"kind": "circle", "center": [0, 0], "radius": 1.0,
                    "nodes": 512},
        "G": "1",
        "g": "0",
        "output": {"boundary_samples": 32},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# files that are not text a JSON decoder can read: each exited 4 with
# "unexpected UnicodeDecodeError" or "unexpected RecursionError"
UNREADABLE = {"not-utf8": b"\xff\xfe{}", "deep-nesting": b"[" * 200000}


class TestSolve:
    def test_auto_dispatches_jump(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", g="tau")
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "jump"
        assert doc["sup_residual"] <= 1e-4

    def test_auto_dispatches_homogeneous(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau",
                             polynomial=[[1.0, 0.0, 0.0, 0.0]])
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "homogeneous"

    def test_worked_nonhomogeneous(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "nonhomogeneous"
        assert doc["kappa"] == 1
        assert doc["sup_residual"] <= 1e-4

    def test_unsolvable_exit_2_with_report(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="1/tau", g="1/tau")
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["solvable"] is False
        assert doc["moment_norms"][0] == pytest.approx(6.283, abs=1e-3)
        assert doc["boundary"] is None

    def test_invalid_schema_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"basis\": \"biharmonic\"}")
        assert main(["solve", str(bad)]) == 3

    def test_degenerate_basis_exit_3(self, tmp_path):
        prob = write_problem(tmp_path / "p.json",
                             basis={"e1": [1, 0, 0, 0], "e2": [1, 0, 1, 0]})
        assert main(["solve", str(prob)]) == 3

    def test_noninvertible_coefficient_exit_3(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau-1", g="1")
        assert main(["solve", str(prob)]) == 3

    def test_origin_not_interior_exit_3(self, tmp_path):
        # tau-5 winds once about the origin, which lies outside this curve
        prob = write_problem(
            tmp_path / "p.json", G="tau-5", g="1",
            contour={"kind": "circle", "center": [5, 0], "radius": 1.0,
                     "nodes": 256})
        assert main(["solve", str(prob)]) == 3

    def test_numerical_failure_exit_4(self, tmp_path):
        prob = write_problem(
            tmp_path / "p.json", G="tau-0.9999", g="1",
            contour={"kind": "circle", "center": [0, 0], "radius": 1.0,
                     "nodes": 16})
        assert main(["solve", str(prob)]) == 4

    def test_square_without_smooth_nodes_solves(self, tmp_path):
        # every node of a 64-node square lies in a corner panel: the
        # node-limit rule needs no smooth node, but the offset check does
        prob = write_problem(
            tmp_path / "p.json", G="tau", g="1",
            contour={"kind": "polygon", "nodes": 64,
                     "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        plus = np.asarray(doc["boundary"]["phi_plus"])
        minus = np.asarray(doc["boundary"]["phi_minus"])
        assert plus.shape == (64, 4)
        assert np.max(np.abs(plus - [1.0, 0.0, 0.0, 0.0])) <= 1e-12
        assert np.max(np.abs(minus)) <= 1e-12
        assert doc["boundary_error_estimate"] is None

    def test_jump_polynomial_row_is_the_additive_constant(self, tmp_path):
        # a jump problem's P has degree 0: its one row shifts both sides
        c = [0.3, -0.2, 0.1, 0.4]
        prob0 = write_problem(tmp_path / "p0.json", g="tau")
        prob1 = write_problem(tmp_path / "p1.json", g="tau", polynomial=[c])
        out0, out1 = tmp_path / "r0.json", tmp_path / "r1.json"
        assert main(["solve", str(prob0), "--out", str(out0)]) == 0
        assert main(["solve", str(prob1), "--out", str(out1)]) == 0
        doc0, doc1 = (json.loads(p.read_text()) for p in (out0, out1))
        assert doc1["polynomial"] == [c] and "constant" not in doc1
        for key in ("phi_plus", "phi_minus"):
            shift = (np.asarray(doc1["boundary"][key])
                     - np.asarray(doc0["boundary"][key]))
            assert np.max(np.abs(shift - c)) <= 1e-12
        rep = tmp_path / "v.json"
        assert main(["verify", str(prob1), str(out1), "--out", str(rep)]) == 0

    def test_jump_with_three_polynomial_rows_exit_3(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", g="tau",
                             polynomial=[[1.0, 0.0, 0.0, 0.0]] * 3)
        assert main(["solve", str(prob)]) == 3

    def test_negative_index_homogeneous_polynomial_exit_3(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="1/tau",
                             polynomial=[[1.0, 0.0, 0.0, 0.0]])
        assert main(["solve", str(prob)]) == 3

    def test_homogeneous_records_zero_psi(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 64},
                             polynomial=[[1.0, 0.0, 0.0, 0.0]])
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert np.array_equal(json.loads(out.read_text())["psi"],
                              np.zeros((64, 4)))

    def test_unexpected_exception_exit_4_without_traceback(
            self, tmp_path, capsys, monkeypatch, caplog):
        import dualrbvp.cli as cli

        caplog.set_level("DEBUG", logger="dualrbvp.cli")

        def broken(*args, **kwargs):
            raise ValueError("attempt to get argmin of an empty sequence")

        monkeypatch.setattr(cli, "compute_index", broken)
        prob = write_problem(tmp_path / "p.json", G="tau")
        assert main(["index", str(prob)]) == 4
        err = capsys.readouterr().err
        assert "ValueError" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert [r.exc_info[0] for r in caplog.records] == [ValueError]

    def test_retired_quadrature_tolerance_still_loads(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 128, "clockwise": True},
                             tolerances={"quadrature": 1e-12,
                                         "index_integrality": 1e-3},
                             declarations={"G": "coefficient"})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["tolerances"]) == {"residual"}
        assert "hypothesis_route" not in doc
        assert "declarations" not in doc

    def test_retired_check_simple_cannot_skip_the_intersection_check(
            self, tmp_path, capsys):
        bowtie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        prob = write_problem(tmp_path / "p.json", G="1", g="tau",
                             contour={"kind": "polygon", "vertices": bowtie,
                                      "nodes": 64, "check_simple": False})
        assert main(["solve", str(prob)]) == 3
        assert "intersect" in capsys.readouterr().err

    def test_retired_moment_tolerance_is_ignored(self, tmp_path):
        # the first moment of g = 1/tau is 2 pi; only the residual tolerance
        # judges it, whatever a "moment" key says
        prob = write_problem(tmp_path / "p.json", G="1/tau", g="1/tau",
                             tolerances={"moment": 10.0})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["solvable"] is False
        assert set(doc["tolerances"]) == {"residual"}

    def test_retired_boundary_samples_still_loads(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 96},
                             output={"boundary_samples": 16})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        boundary = json.loads(out.read_text())["boundary"]
        assert len(boundary["phi_plus"]) == len(boundary["phi_minus"]) == 96

    def test_deterministic_output(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             output={"boundary_samples": 16,
                                     "grid": {"nx": 8, "ny": 8, "margin": 0.4}})
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["solve", str(prob), "--out", str(out1)]) == 0
        assert main(["solve", str(prob), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_section(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             output={"boundary_samples": 16,
                                     "grid": {"nx": 10, "ny": 10, "margin": 0.4}})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        assert grid["nx"] == 10 and len(grid["x"]) == 10
        rows = grid["phi_plus"]
        assert any(r is not None for r in rows)
        assert any(r is None for r in rows)  # Phi+ has no exterior rows

    @pytest.mark.parametrize("raw", [
        UNREADABLE["not-utf8"],
        UNREADABLE["deep-nesting"],
        b'{"contour": ' + b"[" * 200000 + b"}",
    ], ids=["not-utf8", "deep-nesting", "deep-contour"])
    def test_unreadable_problem_file_exit_3(self, tmp_path, capsys, raw):
        prob = tmp_path / "p.json"
        prob.write_bytes(raw)
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "unexpected" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        5,
        {"nx": -5, "ny": 8},
        {"nx": "abc", "ny": 8},
        {"nx": 8, "ny": 8, "margin": "x"},
        {"nx": 4.7, "ny": 8},
        {"nx": True, "ny": 8},
        {"nx": 8, "ny": 8, "margin": -0.5},
        {"nx": 8, "ny": 8, "margin": float("nan")},
        {"nx": 8, "ny": 8, "margin": 10 ** 400},
    ], ids=["grid-5", "nx-negative", "nx-string", "margin-string", "nx-float",
            "nx-bool", "margin-negative", "margin-nan", "margin-huge-int"])
    def test_invalid_grid_exit_3_before_solving(self, tmp_path, capsys,
                                                 monkeypatch, grid):
        import dualrbvp.cli as cli

        def unreachable(problem):
            raise AssertionError("solved a problem with an invalid grid")

        monkeypatch.setattr(cli, "solve_auto", unreachable)
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             output={"grid": grid})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 3
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tolerances, argv", [
        ({"residual": float("nan")}, []),
        ({"residual": -1}, []),
        ({"residual": 0}, []),
        ({"residual": "abc"}, []),
        ({"residual": float("inf")}, []),
        ({"residual": True}, []),
        ({}, ["--tol-residual", "nan"]),
        ({}, ["--tol-residual", "-1"]),
        ({}, ["--tol-residual", "inf"]),
    ], ids=["file-nan", "file-negative", "file-zero", "file-string",
            "file-inf", "file-bool", "flag-nan", "flag-negative", "flag-inf"])
    def test_invalid_residual_tolerance_exit_3_before_solving(
            self, tmp_path, capsys, monkeypatch, tolerances, argv):
        """A solvable kappa = -1 problem: a NaN or negative tolerance made it
        exit 2 as unsolvable, a string exit 4, and infinity passed."""
        import dualrbvp.cli as cli

        def unreachable(problem):
            raise AssertionError("solved with an invalid tolerance")

        monkeypatch.setattr(cli, "solve_auto", unreachable)
        prob = write_problem(tmp_path / "p.json", G="tau^(-1)*exp(0.2*tau)",
                             g="1+tau^2", tolerances=tolerances)
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)] + argv) == 3
        assert "tolerance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"contour": [1.0, 0.0, 0.0]}, "'contour'"),
        ({"contour": {"kind": "circle", "nodes": "abc"}}, "'nodes'"),
        ({"contour": {"kind": "circle", "nodes": 64.7}}, "'nodes'"),
        ({"contour": {"kind": "circle", "nodes": True}}, "'nodes'"),
        ({"contour": {"kind": "circle", "radius": "x"}}, "'radius'"),
        ({"contour": {"kind": "circle", "radius": float("nan")}}, "'radius'"),
        ({"contour": {"kind": "circle", "radius": float("inf")}}, "'radius'"),
        ({"contour": {"kind": "circle", "radius": "<1e400>"}}, "'radius'"),
        ({"contour": {"kind": "circle", "center": "ab"}}, "'center'"),
        ({"contour": {"kind": "ellipse", "semi_axes": [1]}}, "'semi_axes'"),
        ({"contour": {"kind": "polygon", "vertices": "abc"}}, "'vertices'"),
        ({"contour": {"kind": "polygon",
                      "vertices": [[0, 0], [1, "a"], [1, 1]]}}, "'vertices'"),
        ({"contour": {"kind": "explicit",
                      "points": [[1, 0], [0, 1], ["-1", 0]]}}, "'points'"),
        ({"basis": {"e1": [1, 0, "x", 0], "e2": [0, 1, 0, 0]}}, "'e1'"),
        ({"polynomial": [[1, 0, "a", 0]]}, "'polynomial'"),
        ({"polynomial": 5}, "'polynomial'"),
    ], ids=["contour-list", "nodes-string", "nodes-float", "nodes-bool",
            "radius-string", "radius-nan", "radius-inf", "radius-1e400",
            "center-string", "semi-axes-short", "vertices-string",
            "vertices-hold-string", "points-hold-string", "basis-string",
            "polynomial-string", "polynomial-number"])
    def test_invalid_number_exit_3_before_solving(self, tmp_path, capsys,
                                                  monkeypatch, overrides, field):
        """Each exited 4 ("unexpected ...") before, or, for a float node
        count, was truncated and solved."""
        import dualrbvp.cli as cli

        def unreachable(problem):
            raise AssertionError("solved a problem with an invalid number")

        monkeypatch.setattr(cli, "solve_auto", unreachable)
        prob = write_problem(tmp_path / "p.json", G="tau", **overrides)
        # JSON reads the literal 1e400 as infinity
        prob.write_text(prob.read_text().replace('"<1e400>"', "1e400"))
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "{prob}", "--tol-residual", "abc"],
        ["solve", "{prob}", "--nodes", "abc"],
        ["solve"],
        ["frobnicate", "{prob}"],
        ["solve", "{prob}", "--bad"],
        [],
    ], ids=["tolerance-string", "nodes-string", "no-problem", "unknown-command",
            "unknown-option", "no-command"])
    def test_usage_error_exit_3(self, tmp_path, capsys, argv):
        """argparse exits 2, the code of an unsolvable problem."""
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "p.json.result.json"
        assert main([a.format(prob=prob) for a in argv]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"],
                                      ["verify", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["solve", "verify", "unsolvable"])
    def test_unwritable_out_exit_3(self, tmp_path, capsys, case):
        """An --out path in a missing directory exited 4 ("unexpected
        FileNotFoundError") after solving."""
        G, g = ("1/tau", "1/tau") if case == "unsolvable" else ("tau", "1")
        prob = write_problem(tmp_path / "p.json", G=G, g=g,
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 64})
        bad = str(tmp_path / "missing" / "out.json")
        argv = ["solve", str(prob), "--out", bad]
        if case == "verify":
            out = tmp_path / "r.json"
            assert main(["solve", str(prob), "--out", str(out)]) == 0
            capsys.readouterr()
            argv = ["verify", str(prob), str(out), "--out", bad]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write file:"), err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_nodes_override(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", g="tau")
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--nodes", "256", "--out", str(out)]) == 0

    def test_nodes_override_refused_for_explicit_contour(self, tmp_path, capsys):
        ang = 2 * np.pi * np.arange(64) / 64
        points = np.stack([1.5 * np.cos(ang), 0.8 * np.sin(ang)], axis=1)
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "explicit",
                                      "points": points.tolist()})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        for argv in (["solve", str(prob), "--out", str(tmp_path / "s.json")],
                     ["verify", str(prob), str(out)],
                     ["index", str(prob)]):
            capsys.readouterr()
            assert main(argv + ["--nodes", "256"]) == 3
            assert "explicit contour" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()


class TestVerify:
    def test_self_consistency(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "r.json"
        rep = tmp_path / "v.json"
        main(["solve", str(prob), "--out", str(out)])
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["passed"] is True
        assert doc["residual"] <= 1e-6

    def test_perturbed_samples_fail(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "r.json"
        main(["solve", str(prob), "--out", str(out)])
        doc = json.loads(out.read_text())
        for row in doc["boundary"]["phi_plus"]:
            row[0] += 0.01
        out.write_text(json.dumps(doc, sort_keys=True))
        rep = tmp_path / "v.json"
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 1
        assert json.loads(rep.read_text())["residual"] == pytest.approx(0.01, rel=1e-3)

    def test_forged_tables_fail(self, tmp_path):
        # Phi- := noise h and Phi+ := G h + g meet the boundary condition
        # to rounding, but are not the traces of one monogenic function
        prob = write_problem(tmp_path / "p.json", G="tau*exp(tau)",
                             g="1+tau^2",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 128})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        rep = tmp_path / "v.json"
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        genuine = json.loads(rep.read_text())
        assert genuine["exterior_trace_defect"] <= genuine["trace_tolerance"]
        assert genuine["interior_trace_spread"] <= genuine["trace_tolerance"]

        doc = json.loads(out.read_text())
        bnd = doc["boundary"]
        # G and g at the recorded nodes, as the solve and verify sample them
        tau = dc_array_from_lists(bnd["tau"])
        G, g = (evaluate(parse(f), tau=tau) for f in ("tau*exp(tau)", "1+tau^2"))
        noise = np.random.default_rng(7).normal(size=(4, 128))
        h = noise[0] + 1j * noise[1], noise[2] + 1j * noise[3]
        plus = (G.c1 * h[0] + g.c1, G.c1 * h[1] + G.c2 * h[0] + g.c2)
        bnd["phi_minus"] = [[a.real, a.imag, b.real, b.imag] for a, b in zip(*h)]
        bnd["phi_plus"] = [[a.real, a.imag, b.real, b.imag] for a, b in zip(*plus)]
        out.write_text(json.dumps(doc, sort_keys=True))
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 1
        forged = json.loads(rep.read_text())
        assert forged["residual"] <= 1e-12
        assert forged["passed"] is False
        assert forged["exterior_trace_defect"] > forged["trace_tolerance"]
        assert forged["interior_trace_spread"] > forged["trace_tolerance"]

    @pytest.mark.parametrize("G, g, kappa", [
        ("tau*exp(0.5*tau)", "exp(0.5*tau)*(1+tau^2)", 1),
        # kappa = -1 with a first moment that vanishes: solvable
        ("exp(tau)/tau", "1", -1)])
    def test_forged_unsolvable_record_fails(self, tmp_path, G, g, kappa):
        """A solved result stripped of its boundary and marked unsolvable:
        verify re-derives kappa and the moments from the problem."""
        prob = write_problem(tmp_path / "p.json", G=G, g=g,
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 128})
        out, rep = tmp_path / "r.json", tmp_path / "v.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.update(boundary=None, solvable=False)
        out.write_text(json.dumps(doc, sort_keys=True))
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 1
        report = json.loads(rep.read_text())
        assert report["passed"] is False and report["kappa"] == kappa
        assert report["recorded_moment_norms"] == doc["moment_norms"]
        assert all(n <= 1e-6 for n in report["moment_norms"])

    def test_genuine_unsolvable_record_passes(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="1/tau", g="1/tau",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 128})
        out, rep = tmp_path / "r.json", tmp_path / "v.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 2
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["passed"] is True and report["kappa"] == -1
        assert report["moment_norms"][0] == pytest.approx(2 * np.pi)
        assert report["recorded_moment_norms"] == json.loads(
            out.read_text())["moment_norms"]

    def test_nonconvex_polygon_verifies(self, tmp_path):
        # L-shaped region with the origin inside; interior probes come
        # from the lattice points the winding test keeps
        prob = write_problem(tmp_path / "p.json",
                             G="tau*exp((0.5+0.25*rho)*tau)", g="1+tau^2",
                             contour={"kind": "polygon", "nodes": 256,
                                      "vertices": [[-1, -1], [2, -1], [2, 0],
                                                   [0.5, 0], [0.5, 2],
                                                   [-1, 2]]})
        out = tmp_path / "r.json"
        rep = tmp_path / "v.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["passed"] is True and "jump_residual" not in doc

    @pytest.mark.parametrize("contour", [
        {"kind": "polygon", "nodes": 64,
         "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
        {"kind": "circle", "radius": 1.0, "nodes": 40}])
    def test_coarse_contours_verify(self, tmp_path, contour):
        # interior probes one guard band from the curve still exist here
        prob = write_problem(tmp_path / "p.json",
                             G="tau*exp((0.3+0.2*rho)*tau)", g="1+tau^2",
                             contour=contour,
                             polynomial=[[0.5, -0.2, 0.1, 0.3],
                                         [0.2, 0.1, -0.4, 0.05]])
        out = tmp_path / "r.json"
        rep = tmp_path / "v.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["interior_trace_spread"] is not None
        assert doc["interior_trace_spread"] <= doc["trace_tolerance"]

    def test_index_zero_needs_no_interior_origin(self, tmp_path):
        # tau does not wind about the origin outside this curve: kappa = 0
        # needs no origin hypothesis
        prob = write_problem(
            tmp_path / "p.json", G="tau", g="1",
            contour={"kind": "circle", "center": [5, 0], "radius": 1.0,
                     "nodes": 256})
        out = tmp_path / "r.json"
        rep = tmp_path / "v.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kappa"] == 0
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["exterior_trace_defect"] <= 1e-12
        assert doc["interior_trace_spread"] <= 1e-12

    def test_infinite_tolerance_exit_3(self, tmp_path, capsys):
        # an infinite tolerance passed any tables and wrote "Infinity"
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "r.json"
        main(["solve", str(prob), "--out", str(out)])
        doc = json.loads(out.read_text())
        for row in doc["boundary"]["phi_plus"]:
            row[0] += 1.0
        out.write_text(json.dumps(doc))
        rep = tmp_path / "v.json"
        assert main(["verify", str(prob), str(out), "--out", str(rep),
                     "--tol-residual", "inf"]) == 3
        assert "tolerance" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("damage", ["list", "no-phi-plus", "short-table",
                                        "ragged-row", "boundary-list",
                                        "not-utf8", "deep-nesting",
                                        "truncated-in-grid", "trailing-data"])
    def test_malformed_result_file_exit_3(self, tmp_path, capsys, damage):
        """Each of the first seven exited 4 ("unexpected ...") before.  A
        file cut inside its grid, or with data after the document, must
        not read as whole although the grid is stepped over."""
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 64},
                             output={"grid": {"nx": 6, "ny": 6}})
        out = tmp_path / "r.json"
        main(["solve", str(prob), "--out", str(out)])
        text = out.read_text()
        doc = json.loads(text)
        boundary = doc["boundary"]
        if damage == "list":
            doc = [doc]
        elif damage == "no-phi-plus":
            del boundary["phi_plus"]
        elif damage == "short-table":
            boundary["phi_minus"].pop()
        elif damage == "ragged-row":
            boundary["phi_plus"][3].pop()
        elif damage == "boundary-list":
            doc["boundary"] = [1, 2]
        if damage in UNREADABLE:
            out.write_bytes(UNREADABLE[damage])
        elif damage == "truncated-in-grid":
            grid = text.index('"grid": {')
            out.write_text(text[:text.index('"phi_plus"', grid)])
        elif damage == "trailing-data":
            out.write_text(text + "{}\n")
        else:
            out.write_text(json.dumps(doc))
        assert main(["verify", str(prob), str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "unexpected" not in err, err

    def test_report_does_not_depend_on_the_grid(self, tmp_path):
        """``verify`` reads the boundary section alone: the report is the
        same byte for byte with the grid as written, without it, and with
        every row emptied.  This is what lets ``read_json`` step over the
        grid."""
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 64},
                             output={"grid": {"nx": 10, "ny": 10}})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        grid = doc["grid"]
        assert grid["nx"] * grid["ny"] == len(grid["phi_plus"]) == 100
        no_rows = dict(grid, phi_plus=[None] * 100, phi_minus=[None] * 100)
        reports = []
        for variant in (None, dict(doc, grid=None), dict(doc, grid=no_rows)):
            if variant is not None:
                out.write_text(json.dumps(variant, sort_keys=True) + "\n")
            rep = tmp_path / f"v{len(reports)}.json"
            assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_result_records_no_fixed_quantities(self, tmp_path):
        """The node order (always 0..N-1), the infinity rings (P's
        z^kappa coefficient + O(1/R)), the samples of t, G and g, and
        ``trivial_only`` (kind and kappa) are not recorded; a file that
        still has them, as older files do, verifies the same."""
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour={"kind": "circle", "radius": 1.0,
                                      "nodes": 64})
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        old_keys = ("infinity_bound", "infinity_by_radius", "trivial_only")
        assert not any(k in doc for k in old_keys)
        bnd = doc["boundary"]
        assert not any(k in bnd for k in ("node_indices", "t", "G", "g"))
        rep, old_rep = tmp_path / "v.json", tmp_path / "v-old.json"
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 0
        doc.update(infinity_bound=0.0, infinity_by_radius=[0.0, 0.0, 0.0],
                   trivial_only=False)
        tau = dc_array_from_lists(bnd["tau"])
        for key, f in (("G", "tau"), ("g", "1")):
            v = evaluate(parse(f), tau=tau)
            bnd[key] = np.broadcast_to(np.stack(
                [v.c1.real, v.c1.imag, v.c2.real, v.c2.imag], axis=-1),
                (64, 4)).tolist()
        bnd.update(node_indices=list(range(64)), t=(np.arange(64) / 64).tolist())
        out.write_text(json.dumps(doc))
        assert main(["verify", str(prob), str(out), "--out", str(old_rep)]) == 0
        assert old_rep.read_bytes() == rep.read_bytes()

    @pytest.mark.parametrize("contour", [
        *({"kind": "circle", "radius": 1.0, "nodes": n} for n in (3, 12, 16, 20, 24)),
        {"kind": "ellipse", "semi_axes": [3.0, 0.2], "nodes": 64},
        {"kind": "explicit", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}])
    def test_coarse_or_thin_curves_solve(self, tmp_path, contour):
        """Offsets of eight node spacings cross these curves inward; the
        offset check leaves those nodes out and the solve succeeds."""
        prob = write_problem(tmp_path / "p.json", G="tau", g="1",
                             contour=contour)
        out = tmp_path / "r.json"
        assert main(["solve", str(prob), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["boundary_error_estimate"] > 0.0

    def test_contour_hash_mismatch(self, tmp_path):
        prob = write_problem(tmp_path / "p.json", G="tau", g="1")
        out = tmp_path / "r.json"
        main(["solve", str(prob), "--out", str(out)])
        other = write_problem(
            tmp_path / "q.json", G="tau", g="1",
            contour={"kind": "circle", "center": [0, 0], "radius": 1.1,
                     "nodes": 512})
        assert main(["verify", str(other), str(out)]) == 3


class TestIndexAndEval:
    def test_index_command(self, tmp_path, capsys):
        prob = write_problem(tmp_path / "p.json", G="tau^(-2)", g="1")
        assert main(["index", str(prob)]) == 0
        assert "kappa=-2" in capsys.readouterr().out

    def test_eval_command(self, capsys):
        assert main(["eval", "exp(ln(2+3*rho))", "--x", "0", "--y", "0"]) == 0
        out = capsys.readouterr().out
        assert "[2.0, 0.0, 3.0, 0.0]" in out

    def test_eval_binds_point(self, capsys):
        assert main(["eval", "z^2", "--x", "1.0", "--y", "0.0"]) == 0
        assert "[1.0, 0.0, 0.0, 0.0]" in capsys.readouterr().out

    def test_eval_bad_expression(self):
        assert main(["eval", "z^^2"]) == 3

    def test_eval_singular_point(self):
        assert main(["eval", "1/z", "--x", "0", "--y", "0"]) == 3


@pytest.mark.parametrize("argv", [
    ["solve", "p.json"],
    ["solve", "p.json", "--out", "r.json", "--nodes", "64", "--tol-residual", "1e-9"],
    ["verify", "p.json", "r.json", "--out", "v.json"],
    ["index", "p.json", "--nodes", "32"],
    ["eval", "z^2", "--x", "-1", "--basis", "classical"],
])
def test_a_command_parses_as_the_top_level_parser_does(argv):
    """``main`` hands a leading command name straight to that command's
    parser; the top-level parser would give the same namespace."""
    import argparse
    from dualrbvp.cli import _build_parser
    parser, commands = _build_parser()
    direct = commands[argv[0]].parse_args(argv[1:],
                                          argparse.Namespace(command=argv[0]))
    assert direct == parser.parse_args(argv)
