"""Structural invariants of the package source, checked on its syntax tree.

No `assert` carries a precondition (they vanish under `python -O`), no
unbounded `functools` cache holds per-algebra data, every sparse sum
accumulates through the one `scalar._acc` instead of a pasted
`d.get(k, zero) + v` loop, and production code reaches the operator only
through its integer kernel `laplacian.tau_form`: no module but
`laplacian.py` refers to the MixedExpr operator `tau`, which `__init__.py`
only re-exports.  Build, certification and recurrence checks run on a tension
tree's states, never on its multi-indices: `pharmonic.py` never reads a
tree's `.nodes` view or calls `.branches()`.  Nothing is exported that
nothing calls: every name `__init__.py` imports is referenced by another
module of the package, a script or the benchmark harness.  A cold command
pays for no machinery it does not use: importing `polyharm.cli` loads
neither `dataclasses` nor `inspect`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "polyharm"
MODULES = sorted(SOURCE.glob("*.py"))
ZERO_CLASSES = {"Polynomial", "MixedExpr"}


def tree_of(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def is_zero_default(node: ast.expr) -> bool:
    """Fraction(0), Polynomial.zero() or MixedExpr.zero()."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "Fraction":
        return [ast.dump(a) for a in node.args] == [ast.dump(ast.Constant(0))]
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "zero"
        and isinstance(func.value, ast.Name)
        and func.value.id in ZERO_CLASSES
        and not node.args
    )


def pasted_accumulates(module: ast.Module) -> list[int]:
    """Lines of `x.get(k, zero) + ...` outside the body of `_acc`."""
    inside_acc = {
        id(node)
        for fn in ast.walk(module)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_acc"
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and id(node) not in inside_acc
        and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Attribute)
        and node.left.func.attr == "get"
        and len(node.left.args) == 2
        and is_zero_default(node.left.args[1])
    ]


def functools_caches(module: ast.Module) -> list[int]:
    """Lines importing or naming functools.lru_cache / functools.cache."""
    names = {"lru_cache", "cache"}
    lines = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            lines.append(node.lineno)
    return lines


def operator_references(module: ast.Module, reexport: bool = False) -> list[int]:
    """Lines that import, name or look up `tau`; with `reexport`, the
    package's own `from .laplacian import tau` is allowed."""
    lines = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom):
            if reexport and node.level == 1 and node.module == "laplacian":
                continue
            lines += [node.lineno for alias in node.names if alias.name == "tau"]
        elif isinstance(node, ast.Name) and node.id == "tau":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "tau":
            lines.append(node.lineno)
    return lines


def multi_index_reads(module: ast.Module) -> list[int]:
    """Lines that read a `.nodes` or `.branches` attribute."""
    return [
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and node.attr in ("nodes", "branches")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_source_structure(path):
    module = tree_of(path)
    asserts = [node.lineno for node in ast.walk(module) if isinstance(node, ast.Assert)]
    assert asserts == [], f"assert statements at lines {asserts}"
    assert functools_caches(module) == []
    assert pasted_accumulates(module) == []
    if path.name != "laplacian.py":
        assert operator_references(module, reexport=path.name == "__init__.py") == []
    if path.name == "pharmonic.py":
        assert multi_index_reads(module) == []


def test_accumulate_check_sees_a_pasted_loop():
    module = ast.parse("out[k] = out.get(k, Fraction(0)) + v\ny = d.get(k, MixedExpr.zero()) + e\n")
    assert pasted_accumulates(module) == [1, 2]
    module = ast.parse("def _acc(out, k, v):\n    out[k] = out.get(k, Fraction(0)) + v\n")
    assert pasted_accumulates(module) == []


def test_operator_check_sees_a_reference_to_tau():
    injected = "from .laplacian import tau\nimage = tau(spec, e)\nother = laplacian.tau(spec, e)\n"
    assert operator_references(ast.parse(injected)) == [1, 2, 3]
    assert operator_references(ast.parse(injected), reexport=True) == [2, 3]
    assert operator_references(ast.parse("from .laplacian import tables_of, tau_form\n")) == []


def test_multi_index_check_sees_a_read_of_the_view():
    injected = "node = tree.nodes[alpha]\nfor alpha in tree.branches():\n    pass\n"
    assert multi_index_reads(ast.parse(injected)) == [1, 2]
    assert multi_index_reads(ast.parse("node = tree.states[s].node\nnodes = []\n")) == []


def references(module: ast.Module) -> set[str]:
    """Every name the module reads, looks up as an attribute or imports."""
    out = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in node.names)
    return out


def unused_exports(init: ast.Module, users: list[ast.Module]) -> list[str]:
    """The names `init` imports that no module of `users` refers to."""
    exported = [
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set().union(*map(references, users))
    return [name for name in exported if name not in used]


def test_every_export_is_used():
    users = [path for path in MODULES if path.name != "__init__.py"]
    users += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    init = tree_of(SOURCE / "__init__.py")
    assert unused_exports(init, [tree_of(path) for path in users]) == []


def test_export_check_sees_an_unused_export():
    init = ast.parse("from .a import used, unused\nfrom .b import (imported, looked_up)\n")
    users = [
        ast.parse("def unused():\n    pass\nused(1)\n"),
        ast.parse("from polyharm import imported\nx = ph.looked_up\n"),
    ]
    assert unused_exports(init, users) == ["unused"]
    assert unused_exports(init, users[:1]) == ["unused", "imported", "looked_up"]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter without site packages: only what the import pulls in
    code = (
        "import sys; before = set(sys.modules); import polyharm.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "polyharm.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"}), sorted(loaded)
