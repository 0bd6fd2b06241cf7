import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualrbvp import (
    DualComplex,
    PointE,
    build_contour,
    ellipse_contour,
    evaluate,
    parse,
)
from dualrbvp.algebra import dc_norm
from dualrbvp.cli import main
from dualrbvp.contour import Contour
from dualrbvp.integral import CauchyIntegralFn
from dualrbvp.errors import ProblemFormatError
from dualrbvp.problemfile import (
    GRID_FLOOR,
    _grid_section,
    _parse_contour,
    load_problem,
    read_json,
    result_document,
    write_json,
)
from dualrbvp.rbvp import (
    PROBE_LATTICE,
    PROBE_RING,
    residual_report,
    solve_auto,
    trace_defects,
)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
CONTOURS = {
    "circle": {"kind": "circle", "center": [0.1, -0.05], "radius": 1.0, "nodes": 128},
    "ellipse": {"kind": "ellipse", "semi_axes": [1.5, 0.8], "nodes": 128},
    "explicit": {"kind": "explicit", "points": None},
    "polygon": {"kind": "polygon", "vertices": SQUARE, "nodes": 128},
}
NX, NY = 12, 11


def contour_spec(bih, kind) -> dict:
    spec = dict(CONTOURS[kind])
    if kind == "explicit":
        spec["points"] = ellipse_contour(bih, semi_axes=(1.2, 0.7), nodes=128).xy.tolist()
    return spec


def solved(tmp_path, bih, kind, **output):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"contour": contour_spec(bih, kind), "G": "tau",
                                "g": "1 + tau*tau", "output": output}))
    spec = load_problem(str(path))
    return spec, solve_auto(spec.problem)


def same_floats(a, b) -> bool:
    """Equal structure, and every float equal bit for bit (NaN included)."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a.hex() == b.hex()
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_floats(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same_floats(p, q) for p, q in zip(a, b)))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("kind", sorted(CONTOURS))
def test_classify_is_the_mask_and_its_distances(bih, rng, kind):
    """``interior_mask(x, y, band)`` is the winding's side, or -1 within
    ``band`` by ``dist_to``, at every point, for the guard band that
    trace_defects selects its probes with and for the grid's floor."""
    c = build_contour(bih, contour_spec(bih, kind))
    lo, hi = c.xy.min(axis=0) - 0.5, c.xy.max(axis=0) + 0.5
    x = np.concatenate([rng.uniform(lo[0], hi[0], 2000), c.xy[:, 0]])
    y = np.concatenate([rng.uniform(lo[1], hi[1], 2000), c.xy[:, 1]])
    exact = c.dist_to(x, y)
    wound = (c.winding_number(x, y) != 0).astype(int)
    for band in (c.guard_band, GRID_FLOOR * c.diameter):
        want = np.where(exact < band, -1, wound)
        assert np.array_equal(c.interior_mask(x, y, band), want)
    assert np.array_equal(c.interior_mask(x, y),
                          c.interior_mask(x, y, c.guard_band))


def measured_points(monkeypatch):
    """The (x, y) of every point ``Contour.dist_to`` measures from now on."""
    measured = []
    dist_to = Contour.dist_to

    def counted(self, x, y):
        measured.append(np.stack(np.broadcast_arrays(
            np.ravel(x), np.ravel(y)), axis=1))
        return dist_to(self, x, y)

    monkeypatch.setattr(Contour, "dist_to", counted)
    return measured


def test_grid_measures_each_point_once(tmp_path, bih, monkeypatch):
    spec, sol = solved(tmp_path, bih, "circle", grid={"nx": NX, "ny": NY})
    # the node tables, built inside the grid section, measure no point
    measured = measured_points(monkeypatch)
    grid = _grid_section(spec, sol)
    assert sum(r is not None for r in grid["phi_plus"] + grid["phi_minus"]) > 0
    points = np.concatenate(measured)
    # at most the grid and the centroid, and no point twice
    assert len(points) <= NX * NY + 1
    assert len(np.unique(points, axis=0)) == len(points)


def test_grid_measures_few_points_far_from_the_curve(tmp_path, bih, monkeypatch):
    """A 128 x 128 grid around a 256-node unit circle: the grid asks
    ``Contour.interior_mask`` for its rounding floor, and the three bounds
    settle every grid point, so only the centroid reaches ``dist_to``."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "contour": {"kind": "circle", "radius": 1.0, "nodes": 256},
        "G": "tau", "g": "1 + tau*tau",
        "output": {"grid": {"nx": 128, "ny": 128, "margin": 0.5}}}))
    spec = load_problem(str(path))
    sol = solve_auto(spec.problem)
    measured = measured_points(monkeypatch)
    _grid_section(spec, sol)
    assert sum(map(len, measured)) <= 1


@pytest.mark.parametrize("kind", sorted(CONTOURS))
def test_grid_rows_equal_the_solution_at_each_point(tmp_path, bih, kind):
    spec, sol = solved(tmp_path, bih, kind, grid={"nx": NX, "ny": NY, "margin": 0.4})
    grid = _grid_section(spec, sol)
    gx, gy = np.meshgrid(grid["x"], grid["y"], indexing="xy")
    # every point has a value, on the side its winding gives
    code = spec.contour.winding_number(gx.ravel(), gy.ravel()) != 0
    for rows, side_code, side in ((grid["phi_plus"], 1, "+"),
                                  (grid["phi_minus"], 0, "-")):
        sel = np.nonzero(code == side_code)[0]
        assert sel.size > 0
        assert all(rows[j] is None for j in np.nonzero(code != side_code)[0])
        v = sol.off_curve(side, PointE(gx.ravel()[sel], gy.ravel()[sel],
                                       spec.contour.basis))
        want = np.stack([v.c1.real, v.c1.imag, v.c2.real, v.c2.imag], axis=1)
        assert np.array_equal(np.array([rows[j] for j in sel]), want), kind


def test_grid_values_every_point_off_the_curve(tmp_path, bih):
    """An L-shape whose inner edges lie 1e-7 and 2e-7 beside grid lines:
    every point farther than rounding from the curve has a row, those
    within 1e-6 of it included, and meets the closed form Phi+ = 1 + z^2,
    Phi- = 0; only points on the curve (the grid lines along the outer
    edges) have none."""
    d = 1e-7
    shape = [[-1, -1], [0.5 + d, -1], [0.5 + d, 2 * d], [2, 2 * d], [2, 1],
             [-1, 1]]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "contour": {"kind": "polygon", "vertices": shape, "nodes": 512},
        "G": "tau*exp((0.5+0.25*rho)*tau)", "g": "1+tau^2",
        "output": {"grid": {"nx": 31, "ny": 21, "margin": 0}}}))
    spec = load_problem(str(path))
    c = spec.contour
    grid = _grid_section(spec, solve_auto(spec.problem))
    gx, gy = np.meshgrid(grid["x"], grid["y"], indexing="xy")
    x, y = gx.ravel(), gy.ravel()
    dist = c.dist_to(x, y)
    valued = np.array([p is not None or m is not None
                       for p, m in zip(grid["phi_plus"], grid["phi_minus"])])
    assert np.array_equal(valued, dist >= 1e-12 * c.diameter)
    assert np.count_nonzero(valued & (dist < 1e-6)) >= 20
    for key, text in (("phi_plus", "1+z^2"), ("phi_minus", "0*z")):
        sel = [j for j, row in enumerate(grid[key]) if row is not None]
        rows = np.array([grid[key][j] for j in sel])
        pts = PointE(x[sel], y[sel], c.basis)
        want = evaluate(parse(text), z=pts)
        miss = np.hypot(np.abs(rows[:, 0] + 1j * rows[:, 1] - want.c1),
                        np.abs(rows[:, 2] + 1j * rows[:, 3] - want.c2))
        assert np.max(miss / np.maximum(1.0, dc_norm(want))) <= 1e-12, key


def test_probes_and_points_keep_their_values(tmp_path, bih):
    spec, sol = solved(tmp_path, bih, "polygon")
    c = spec.contour
    plus, minus = sol.boundary_table("+"), sol.boundary_table("-")
    # reference: each probe set selected by winding and distance, and
    # evaluated through __call__, which measures the distances again
    lo, hi = c.xy.min(axis=0), c.xy.max(axis=0)
    mid, half = (lo + hi) / 2.0, float(np.hypot(*(hi - lo))) / 2.0
    ang = 2.0 * np.pi * np.arange(PROBE_RING) / PROBE_RING
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], PROBE_LATTICE),
                         np.linspace(lo[1], hi[1], PROBE_LATTICE))
    want = []
    for table, x, y, inside in (
            (plus, mid[0] + 2.0 * half * np.cos(ang),
             mid[1] + 2.0 * half * np.sin(ang), False),
            (minus, gx.ravel(), gy.ravel(), True)):
        keep = (((c.winding_number(x, y) != 0) == inside)
                & (c.dist_to(x, y) >= c.guard_band))
        v = CauchyIntegralFn(c, table)(PointE(x[keep], y[keep], c.basis))
        if inside:
            v = DualComplex(v.c1 - np.mean(v.c1), v.c2 - np.mean(v.c2))
        want.append(float(np.max(dc_norm(v))))
    assert trace_defects(c, plus, minus) == tuple(want)


@pytest.mark.parametrize("kind", sorted(CONTOURS))
def test_trace_defects_measures_each_probe_at_most_once(tmp_path, bih,
                                                        monkeypatch, kind):
    """Only ``interior_mask``'s scans reach ``dist_to``: the integral takes
    the kept probes with the guard band as their lower bound."""
    spec, sol = solved(tmp_path, bih, kind)
    plus, minus = sol.boundary_table("+"), sol.boundary_table("-")
    measured = measured_points(monkeypatch)
    trace_defects(spec.contour, plus, minus)
    points = np.concatenate(measured)
    assert len(np.unique(points, axis=0)) == len(points)


def test_result_file_is_compact_and_exact(tmp_path, bih):
    spec, sol = solved(tmp_path, bih, "ellipse", grid={"nx": NX, "ny": NY})
    doc = result_document(spec, sol, residual_report(sol))
    out = tmp_path / "r.json"
    write_json(str(out), doc)
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert same_floats(json.loads(text), doc)


# Every key a result records, with its reader: ``verify`` (cli.run_verify),
# bench/oracle.py, or a user of the solution, for the reason given.  A key
# that result_document starts to write is added here with its reader.
RESULT_KEYS = {
    "format": "verify: the format it reads",
    "contour_hash": "verify: the problem's contour must match",
    "kind": "verify and bench/oracle.py: an unsolvable record passes when "
            "the problem is",
    "solvable": "verify and bench/oracle.py",
    "kappa": "bench/oracle.py",
    "moment_norms": "verify, reported next to the re-derived norms, and "
                    "bench/oracle.py",
    "sup_residual": "bench/oracle.py",
    "boundary_error_estimate": "bench/oracle.py",
    "boundary": "verify and bench/oracle.py",
    "grid": "bench/oracle.py",
    "raw_index": "user: how far the computed index is from the integer kappa",
    "polynomial": "user: which member of the solution family was built",
    "psi": "user: g exp(-E+), the density of the solution formula's integral",
    "moments": "user: the value of each moment condition, not only its norm",
    "tolerances": "user: the residual tolerance in force, which --tol-residual "
                  "can change",
}
BOUNDARY_KEYS = {
    "tau": "bench/oracle.py: the node each row belongs to",
    "phi_plus": "verify and bench/oracle.py",
    "phi_minus": "verify and bench/oracle.py",
}
GRID_KEYS = {
    "x": "bench/oracle.py",
    "y": "bench/oracle.py",
    "phi_plus": "bench/oracle.py",
    "phi_minus": "bench/oracle.py",
    "nx": "user: the grid's shape, ny rows of nx points each",
    "ny": "user: the grid's shape, ny rows of nx points each",
}


def test_a_result_records_exactly_the_keys_with_a_reader(tmp_path):
    """A solved grid problem and an unsolvable one write one top-level key
    set, and every key in the sections, each of which has a reader."""
    docs = []
    for name, G, g, output in (("grid", "tau*exp(tau)", "1+tau^2",
                                {"grid": {"nx": NX, "ny": NY}}),
                               ("unsolvable", "1/tau", "1/tau", {})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "contour": {"kind": "circle", "radius": 1.0, "nodes": 64},
            "G": G, "g": g, "output": output}))
        out = tmp_path / f"{name}.result.json"
        assert main(["solve", str(path), "--out", str(out)]) == (
            0 if name == "grid" else 2)
        docs.append(json.loads(out.read_text()))
    solved_doc, unsolvable_doc = docs
    assert solved_doc.keys() == unsolvable_doc.keys() == RESULT_KEYS.keys()
    assert solved_doc["boundary"].keys() == BOUNDARY_KEYS.keys()
    assert solved_doc["grid"].keys() == GRID_KEYS.keys()
    assert unsolvable_doc["boundary"] is None and unsolvable_doc["grid"] is None


@pytest.mark.parametrize("nodes", [1e9, 1e3, 64.0])
def test_float_node_count_is_refused_before_any_build(nodes):
    """A float is not a node count, however whole: 1e9 was taken as 10^9
    nodes.  The check is on the type, so no contour is built here."""
    with pytest.raises(ProblemFormatError, match="'nodes'"):
        _parse_contour({"kind": "circle", "nodes": nodes}, None)


def test_checked_contour_numbers_keep_their_values(bih):
    """Ints read as the floats the builders took them as before: the
    contour, and so its hash, is unchanged."""
    spec = {"kind": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
            "nodes": 64}
    checked = _parse_contour(spec, None)
    assert checked["vertices"][0] == [-1.0, -1.0] and checked["nodes"] == 64
    assert (build_contour(bih, checked).content_hash()
            == build_contour(bih, spec).content_hash())


# -- read_json: json.load's dict, without a flat grid -------------------------

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=6))
VALUES = st.recursive(
    SCALARS, lambda inner: (st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=4), inner,
                                              max_size=3)),
    max_leaves=12)
ROWS = st.lists(st.none() | st.lists(st.floats(allow_nan=False), max_size=4),
                max_size=4)
FLAT_GRIDS = st.dictionaries(st.sampled_from(["nx", "x", "phi_plus", "é"]),
                             st.integers() | ROWS, max_size=4)
GRIDS = (FLAT_GRIDS | VALUES
         | st.builds(lambda s: {"nx": 2, "phi_plus": [[s]]},
                     st.sampled_from(["}", "{", "a}b", 'a"b', "a\\b", "\n",
                                      "é", '"}"'])))
NO_GRID = object()
LAYOUTS = st.fixed_dictionaries({
    "sort_keys": st.booleans(),
    "indent": st.sampled_from([None, 0, 2, "\t"]),
    "separators": st.sampled_from([None, (",", ":"), (" ,\n", " :\t ")]),
    "ensure_ascii": st.booleans(),
})


def _plain(s: str, ensure_ascii: bool) -> bool:
    """A string written with no escape and no brace."""
    return ("{" not in s and "}" not in s
            and json.dumps(s, ensure_ascii=ensure_ascii) == f'"{s}"')


def _is_flat(grid, ensure_ascii: bool) -> bool:
    """An object with no object inside it and every string plain."""
    def flat(v):
        if isinstance(v, dict):
            return False
        if isinstance(v, list):
            return all(flat(x) for x in v)
        return not isinstance(v, str) or _plain(v, ensure_ascii)
    return isinstance(grid, dict) and all(
        _plain(k, ensure_ascii) and flat(v) for k, v in grid.items())


def _read(tmp_path_factory, text: str):
    path = tmp_path_factory.getbasetemp() / "read_json.json"
    path.write_text(text, encoding="utf-8")
    return read_json(str(path))


@given(members=st.dictionaries(st.text(max_size=6), VALUES, max_size=5),
       grid=st.just(NO_GRID) | GRIDS, at=st.integers(0, 5), layout=LAYOUTS)
@example(members={"a": 1}, grid={"x": [[1.0, None]]}, at=1, layout={})
@example(members={"a": 1}, grid={"x": [{"y": 1}]}, at=0, layout={})
@example(members={"a": 1}, grid=None, at=1, layout={})
@example(members={"a": 1}, grid=[1, 2], at=1, layout={})
@example(members={"a": 1}, grid={"x": 'q"}'}, at=0, layout={})
@example(members={"a": 1}, grid={"x": "}"}, at=0, layout={})
def test_read_json_is_json_load_without_a_flat_grid(tmp_path_factory, members,
                                                    grid, at, layout):
    items = list(members.items())
    if grid is not NO_GRID:
        items.insert(at, ("grid", grid))
    text = json.dumps(dict(items), **layout)
    want = json.loads(text)
    if _is_flat(want.get("grid"), layout.get("ensure_ascii", True)):
        del want["grid"]
    assert _read(tmp_path_factory, text) == want


def test_every_prefix_of_a_result_file_is_refused(tmp_path, bih):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "contour": {"kind": "circle", "radius": 1.0, "nodes": 16}, "G": "tau",
        "g": "1", "output": {"grid": {"nx": 3, "ny": 3}}}))
    spec = load_problem(str(path))
    sol = solve_auto(spec.problem)
    out = tmp_path / "r.json"
    write_json(str(out), result_document(spec, sol, residual_report(sol)))
    text = out.read_text(encoding="utf-8").rstrip("\n")
    assert "grid" not in read_json(str(out))
    for k in range(len(text)):
        out.write_text(text[:k], encoding="utf-8")
        with pytest.raises(ProblemFormatError):
            read_json(str(out))


@given(rows=st.lists(st.none() | st.lists(st.floats(), min_size=4, max_size=4),
                     max_size=6))
def test_a_flat_grid_is_skipped_whatever_numbers_it_holds(tmp_path_factory,
                                                          rows):
    """NaN and infinities included: the grid is neither decoded nor
    checked, since ``verify`` does not read it."""
    doc = {"format": "dualrbvp-result@1", "grid": {"nx": 1, "phi_plus": rows},
           "kind": "jump"}
    want = {"format": "dualrbvp-result@1", "kind": "jump"}
    assert _read(tmp_path_factory, json.dumps(doc, sort_keys=True)) == want


def test_a_flat_grid_is_not_checked(tmp_path):
    """The documented cost of the skip: text in a flat grid that is not
    JSON reads as a file without a grid, where ``json.load`` refuses it."""
    path = tmp_path / "r.json"
    path.write_text('{"grid": {"x": [1, oops, 1e999]}, "kind": "jump"}\n')
    assert read_json(str(path)) == {"kind": "jump"}
    path.write_text('{"grid": {"x": [1, {"oops"]}, "kind": "jump"}\n')
    with pytest.raises(ProblemFormatError, match="not valid JSON"):
        read_json(str(path))


@pytest.mark.parametrize("text", [
    '{"grid": {"x": {}}, "grid": {"x": 1}}',
    '{"grid": [1], "grid": {"x": 1}, "a": 2}',
    '{"grid": {"x": 1}, "grid": [1]}',
    '{"grid": {"x": 1}, "grid": null}',
])
def test_the_last_of_repeated_grid_members_wins(tmp_path, text):
    """As in ``json.load``; a flat last grid is left out."""
    path = tmp_path / "r.json"
    path.write_text(text)
    want = json.loads(text)
    if isinstance(want["grid"], dict):
        del want["grid"]
    assert read_json(str(path)) == want
