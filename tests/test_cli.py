import json

import numpy as np
import pytest

from dualrbvp.cli import main


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
        assert boundary["node_indices"] == list(range(96))
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
        assert any(r is None for r in rows)  # guard band omitted

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
        rows = np.asarray(bnd["G"])
        G = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
        rows = np.asarray(bnd["g"])
        g = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
        noise = np.random.default_rng(7).normal(size=(4, 128))
        h = noise[0] + 1j * noise[1], noise[2] + 1j * noise[3]
        plus = (G[0] * h[0] + g[0], G[0] * h[1] + G[1] * h[0] + g[1])
        bnd["phi_minus"] = [[a.real, a.imag, b.real, b.imag] for a, b in zip(*h)]
        bnd["phi_plus"] = [[a.real, a.imag, b.real, b.imag] for a, b in zip(*plus)]
        out.write_text(json.dumps(doc, sort_keys=True))
        assert main(["verify", str(prob), str(out), "--out", str(rep)]) == 1
        forged = json.loads(rep.read_text())
        assert forged["residual"] <= 1e-12
        assert forged["passed"] is False
        assert forged["exterior_trace_defect"] > forged["trace_tolerance"]
        assert forged["interior_trace_spread"] > forged["trace_tolerance"]

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
