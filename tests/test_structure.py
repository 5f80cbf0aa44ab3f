"""Structural invariants of the package source, checked on its syntax tree.

No `assert` carries a precondition (they vanish under `python -O`), no
unbounded `functools` cache holds per-algebra data, every sparse sum
accumulates through the one `scalar._acc` instead of a pasted
`d.get(k, zero) + v` loop, and production code reaches the operator only
through its integer kernel `laplacian.tau_form`: no module but
`laplacian.py` refers to the MixedExpr operator `tau`, which `__init__.py`
only re-exports.  Build, certification and recurrence checks run on a tension
tree's states, never on its multi-indices: `pharmonic.py` never reads a
tree's `.nodes` view or calls `.branches()`, and it never asks what a node
is: the tree's node table serves both kinds, so `pharmonic.py` calls no
`isinstance` and names no node type.  No tree certificate goes back through
a public value: in `pharmonic.py` only `verify` converts a MixedExpr to a
form (`to_form`) and only `verify_formal` a node-symbol sum
(`_symbol_form`).  Nothing is exported that
nothing calls: every name `__init__.py` imports is referenced by another
module of the package, a script or the benchmark harness.  A cold command
pays for no machinery it does not use: importing `polyharm.cli` loads
neither `dataclasses` nor `inspect`.  LaTeX is spelled in one place: no
module but `poly.py`, which holds the writer's style table, has a LaTeX
token in a string constant.  Tension-tree nodes live on integers: the
expander `_grow`, the polynomial children `_expand` and the radial child
`_radial_child` of `tension.py` name no Fraction and no node-object type.
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


NODE_TYPES = {"Polynomial", "RadialSeed", "RadialFunction", "AffinePart"}


def node_type_tests(module: ast.Module) -> list[int]:
    """Lines that call `isinstance` or name, import or look up a node type."""
    lines = []
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and node.id in NODE_TYPES | {"isinstance"}:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in NODE_TYPES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name in NODE_TYPES]
    return sorted(lines)


# name -> the one function of `pharmonic.py` that may refer to it
CONFINED = {"to_form": "verify", "_symbol_form": "verify_formal"}


def confined_references(module: ast.Module) -> list[int]:
    """Lines that refer to a name of `CONFINED` outside its one function;
    importing or defining the name is not a reference."""
    inside: dict[str, set[int]] = {}
    for fn in ast.walk(module):
        if isinstance(fn, ast.FunctionDef):
            inside.setdefault(fn.name, set()).update(id(node) for node in ast.walk(fn))
    lines = []
    for node in ast.walk(module):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CONFINED:
            if id(node) not in inside.get(CONFINED[name], ()):
                lines.append(node.lineno)
    return sorted(lines)


# the functions of `tension.py` that run on integer nodes, and the names
# none of them may use
INTEGER_NODE_FUNCTIONS = {"_grow", "_expand", "_radial_child"}
NODE_OBJECTS = {"Fraction", "Polynomial", "RadialFunction", "RadialSeed", "AffinePart"}


def node_object_names(module: ast.Module) -> list[int]:
    """Lines inside a function of `INTEGER_NODE_FUNCTIONS` that name or look
    up a name of `NODE_OBJECTS`."""
    return sorted(
        node.lineno
        for fn in ast.walk(module)
        if isinstance(fn, ast.FunctionDef) and fn.name in INTEGER_NODE_FUNCTIONS
        for node in ast.walk(fn)
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        in NODE_OBJECTS
    )


LATEX_TOKENS = ("\\frac", "\\left", "\\right", "\\log", "\\rho", "\\,")


def latex_tokens(module: ast.Module) -> list[int]:
    """Lines of string constants, f-string parts included, that hold a
    LaTeX token."""
    return sorted({
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(token in node.value for token in LATEX_TOKENS)
    })


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
        assert node_type_tests(module) == []
        assert confined_references(module) == []
    if path.name != "poly.py":
        assert latex_tokens(module) == []
    if path.name == "tension.py":
        defined = {fn.name for fn in ast.walk(module) if isinstance(fn, ast.FunctionDef)}
        assert INTEGER_NODE_FUNCTIONS <= defined
        assert node_object_names(module) == []


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


def test_node_type_check_sees_a_test_of_a_node():
    injected = (
        "from .poly import Monomial, Polynomial\n"
        "if isinstance(node, tension.RadialSeed):\n"
        "    g = AffinePart(c)\n"
        "terms = tree.states[s].node.terms\n"
        "h = RadialFunction\n"
    )
    assert node_type_tests(ast.parse(injected)) == [1, 2, 2, 3, 5]
    assert node_type_tests(ast.parse("d, basis, nodes = tree.integer_nodes\n")) == []


def test_confined_check_sees_a_conversion_outside_its_function():
    injected = (
        "from .laplacian import to_form\n"
        "def verify(spec, e):\n"
        "    return _certify(to_form(tables, e))\n"
        "def certify_family(spec, tree, e):\n"
        "    return to_form(tables, e), _symbol_form(tables, tree, e)\n"
        "def verify_formal(spec, e, tree):\n"
        "    return _symbol_form(tables, tree, e), laplacian.to_form\n"
        "def _symbol_form(tables, tree, e):\n"
        "    pass\n"
    )
    assert confined_references(ast.parse(injected)) == [5, 5, 7]


def test_node_object_check_sees_a_name_in_an_integer_function():
    injected = (
        "def _expand(tables, node: Polynomial, layers):\n"
        "    return Fraction(v, d), poly.Polynomial._wrap(terms)\n"
        "def _radial_child(n1, node):\n"
        "    return RadialSeed(node.radial, tension.AffinePart(c))\n"
        "def nodes(self):\n"
        "    return Polynomial._wrap({f: Fraction(v, d)})\n"
    )
    assert node_object_names(ast.parse(injected)) == [1, 2, 2, 4, 4]
    assert node_object_names(ast.parse("def _grow(spec, kind, seed: Node, root):\n    pass\n")) == []


def test_latex_check_sees_a_token():
    injected = (
        'half = r"\\frac{1}{2}"\n'
        'pair = rf"\\left({a}\\right) \\, {b}"\n'
        'doc = "log(t), rho and h^{1}_{(1)} are plain text"\n'
        'tex = r"\\log(\\rho)"\n'
    )
    assert latex_tokens(ast.parse(injected)) == [1, 2, 4]


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
