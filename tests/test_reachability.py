"""Every definition of the package is reached from the package or the bench.

An AST scan of ``src/dualrbvp``: each top-level function and class, each
method that is not a dunder, and each upper-case module constant must be
named somewhere else, outside its own definition.  The places that count
are the package's modules other than ``__init__.py`` (which only re-exports)
and every file under ``bench/``, where string constants count too, because
``bench/spans.py`` looks the functions it wraps up by name; that is what
keeps ``jump_check`` (and through it ``JumpReport``) here without an entry
below.  A method counts as named only through an attribute, ``obj.name``,
or a bench string, so a local variable of the same name does not reach it.
A dataclass field, and an attribute that a class's ``__init__`` stores
(``self.name = ...``), counts as read only through an attribute read,
``obj.name`` (not a keyword argument, not an assignment), in the package
or the bench.  Code that only tests reach is a library the pipeline does
not use, and a field or attribute that nothing reads records what nothing
needs; delete it, or list it in KEPT with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualrbvp"
BENCH = ROOT / "bench"

KEPT = {
    "expr.to_str": "the printer of the generator of parse's property test "
                   "(tests/test_expr.py), the only generated-input test of "
                   "parse",
    "algebra.BasisE.embed": "one-line test vocabulary for a point of E",
    "algebra.PointE.modulus": "one-line test vocabulary for |zeta|",
    "algebra.PointE.item": "one-line test vocabulary for one point of a set",
    "algebra.DualComplex.item": "one-line test vocabulary for one sample",
    "algebra.ZERO": "one-line test vocabulary for the algebra's zero",
    "algebra.RHO": "one-line test vocabulary for rho",
    **{f"integral.JumpReport.{name}": "bench/spans.py wraps jump_check, "
                                      "which builds the report, until the "
                                      "bench harness changes"
       for name in ("residuals", "max_residual", "skipped_corners",
                    "plus_error", "minus_error")},
    "diagnostics.RegularityReport.dini_half_depth":
        "the tests check the sum behind divergence_suspected; whether the "
        "Dini report gates verify or goes is still open",
}


def _definitions(modules):
    """(qualified name, name, definition node) of every definition the
    scan covers."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))):
                        yield f"{mod}.{node.name}.{m.name}", m.name, m
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        yield f"{mod}.{target.id}", target.id, node


def _fields(modules):
    """(qualified name, name) of every field of a dataclass and of every
    attribute that a class's ``__init__`` stores on ``self``."""
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and d.func.id == "dataclass"
                   for d in node.decorator_list):
                for f in node.body:
                    if (isinstance(f, ast.AnnAssign)
                            and isinstance(f.target, ast.Name)):
                        yield f"{mod}.{node.name}.{f.target.id}", f.target.id
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    for a in ast.walk(init):
                        if (isinstance(a, ast.Attribute)
                                and isinstance(a.ctx, ast.Store)
                                and isinstance(a.value, ast.Name)
                                and a.value.id == "self"):
                            yield f"{mod}.{node.name}.{a.attr}", a.attr


def _reads(tree) -> Counter:
    """How often a tree reads each attribute name."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def _mentions(tree, attributes_only=False, strings=False) -> Counter:
    """How often a tree mentions each name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out[node.value] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


@pytest.fixture(scope="module")
def scan():
    """The qualified names that nothing outside their definition names,
    and the dataclass fields and stored attributes that nothing reads."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    bench = [ast.parse(p.read_text()) for p in sorted(BENCH.rglob("*.py"))]
    # indexed by "is a method": (any name, attribute names only)
    named = [sum((_mentions(t, attributes_only=method) for t in modules.values()),
                 Counter())
             + sum((_mentions(t, attributes_only=method, strings=True)
                    for t in bench), Counter())
             for method in (False, True)]
    unreached = []
    for qual, name, node in _definitions(modules):
        method = qual.count(".") == 2
        if named[method][name] <= _mentions(node, attributes_only=method)[name]:
            unreached.append(qual)
    read = sum((_reads(t) for t in list(modules.values()) + bench), Counter())
    unreached += [qual for qual, name in _fields(modules) if not read[name]]
    return unreached


def test_every_definition_is_reached(scan):
    assert sorted(set(scan) - set(KEPT)) == []


def test_every_kept_name_is_still_unreached(scan):
    """A kept name that the pipeline reaches again needs no entry."""
    assert sorted(set(KEPT) - set(scan)) == []
