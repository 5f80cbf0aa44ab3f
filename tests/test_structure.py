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
token in a string constant.  The inner loops run on integers: the functions of
`INTEGER_FUNCTIONS` name no Fraction (the operator kernel `tau_form`, the
monomial images `_image` and the basis images `_basis_image`, and the
packed log powers: their slot bound `_factor`, their packing, reading and
widening; the state rows, coefficients, realization and combinations of
`pharmonic.py`; the tree expander and its depth bound), and the expander `_grow`, the polynomial
children `_expand` and the radial child `_radial_child` of `tension.py` name
no node-object type either.  The kernel, the two images and `_expand` run on
packed monomials: they name no `Monomial` and call no `derivative` or
`partial`.  A Fraction's two slots, `_numerator` and `_denominator`, are
named only in `scalar.py`, which makes Fractions through them, and in the
functions of `SLOT_READERS`, where a MixedExpr or a node-symbol sum enters a
form: `_pack_form`, the one packing body both conversions (`to_form`,
`_symbol_form`) go through, so `pharmonic.py` reads none.  A packed int is
walked slot by slot, a loop shifting by `width` the value it carries, only
in the functions of `SLOT_WALKERS`: the slot codec of packed log powers,
its in-place packing `_pack_form` included, and the two walkers of packed
monomial fields.
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


# the functions that run on integers, by module, each with the names it may
# not use: none names a Fraction, those of `tension.py` that run on integer
# nodes name no node-object type either, and the operator kernel, the
# monomial and basis images and the polynomial expander name no Monomial and
# take no derivative of one: they run on packed monomials
NODE_OBJECTS = {"Fraction", "Polynomial", "RadialFunction", "RadialSeed", "AffinePart"}
PACKED = {"Monomial", "derivative", "partial"}
INTEGER_FUNCTIONS = {
    "laplacian.py": {
        **dict.fromkeys(("tau_form", "_image", "_basis_image", "_factor"), {"Fraction"} | PACKED),
        **dict.fromkeys(("_join", "_slots", "_pack_form", "_widened"), {"Fraction"}),
    },
    "pharmonic.py": dict.fromkeys(
        ("_rows", "_new_rows", "_coefficients", "_summed", "realize"),
        {"Fraction"},
    ),
    "tension.py": {
        **dict.fromkeys(("_grow", "_radial_child"), NODE_OBJECTS),
        "_expand": NODE_OBJECTS | PACKED,
        "tension_tree": {"Fraction"},
    },
}


def banned_names(module: ast.Module, functions: dict[str, set[str]]) -> list[int]:
    """Lines inside a function of `functions` that name or look up one of
    the names it bans."""
    return sorted(
        node.lineno
        for fn in ast.walk(module)
        if isinstance(fn, ast.FunctionDef) and fn.name in functions
        for node in ast.walk(fn)
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        in functions[fn.name]
    )


# the functions outside `scalar.py` that may read a Fraction's slots: the
# one packing body that both conversions from a public value to a form
# (`to_form`, `pharmonic._symbol_form`) hand their terms to
SLOT_READERS = {"laplacian.py": {"_pack_form"}}
FRACTION_SLOTS = {"_numerator", "_denominator"}


def slot_references(module: ast.Module, allowed: set[str]) -> list[int]:
    """Lines that name, look up or spell out a Fraction slot outside the
    functions of `allowed`."""
    inside = {
        id(node)
        for fn in ast.walk(module)
        if isinstance(fn, ast.FunctionDef) and fn.name in allowed
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(module)
        if id(node) not in inside
        and (
            node.id if isinstance(node, ast.Name)
            else node.value if isinstance(node, ast.Constant)
            else getattr(node, "attr", None)
        ) in FRACTION_SLOTS
    )


# the functions, by qualified name, that may walk a packed int slot by slot:
# the slot codec of packed log powers and the walkers of packed monomials;
# `_pack_form` places each log power of an id in place, quadratic in the
# id's slots, which the certificate its form goes into bounds
SLOT_WALKERS = {"laplacian.py": {"_join", "_slots", "_pack_form", "Tables.monomial", "_image"}}


def qualified_functions(module: ast.Module) -> dict[str, ast.FunctionDef]:
    """The module's functions and its classes' methods, by qualified name."""
    out = {}
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    out[f"{node.name}.{fn.name}"] = fn
        elif isinstance(node, ast.FunctionDef):
            out[node.name] = node
    return out


SHIFTS = (ast.LShift, ast.RShift)


def names_width(node: ast.AST) -> bool:
    return any(getattr(n, "id", getattr(n, "attr", None)) == "width" for n in ast.walk(node))


def width_shifts(node: ast.AST) -> list[ast.BinOp]:
    """The shifts under node whose amount names `width`."""
    return [
        shift
        for shift in ast.walk(node)
        if isinstance(shift, ast.BinOp) and isinstance(shift.op, SHIFTS) and names_width(shift.right)
    ]


def carried(statement: ast.stmt) -> bool:
    """A statement that shifts by `width` the value it assigns to (`x >>=
    width`, `x = (x << width) + w`) or adds a value shifted by `width` to
    it (`x += w << width * k`): one step of a slot-by-slot walk."""
    if isinstance(statement, ast.AugAssign):
        own = isinstance(statement.op, SHIFTS) and names_width(statement.value)
        return own or bool(width_shifts(statement.value))
    if isinstance(statement, ast.Assign):
        targets = {n.id for t in statement.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        return any(
            isinstance(n, ast.Name) and n.id in targets
            for shift in width_shifts(statement.value)
            for n in ast.walk(shift.left)
        )
    return False


def slot_walks(module: ast.Module, allowed: set[str]) -> list[int]:
    """Lines of loop statements that walk a packed int slot by slot
    (`carried`) outside the functions of `allowed`."""
    inside = {
        id(node)
        for name, fn in qualified_functions(module).items()
        if name in allowed
        for node in ast.walk(fn)
    }
    return sorted({
        statement.lineno
        for loop in ast.walk(module)
        if isinstance(loop, (ast.For, ast.While)) and id(loop) not in inside
        for statement in ast.walk(loop)
        if isinstance(statement, ast.stmt) and carried(statement)
    })


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
    functions = INTEGER_FUNCTIONS.get(path.name, {})
    defined = {fn.name for fn in ast.walk(module) if isinstance(fn, ast.FunctionDef)}
    assert set(functions) <= defined
    readers = SLOT_READERS.get(path.name, set())
    assert readers <= defined
    if path.name != "scalar.py":
        assert slot_references(module, readers) == []
    walkers = SLOT_WALKERS.get(path.name, set())
    assert walkers <= set(qualified_functions(module))
    assert slot_walks(module, walkers) == []
    assert banned_names(module, functions) == []


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
        "def tension_tree(spec, h: Polynomial):\n"
        "    return spec.lam(1) * fractions.Fraction(0)\n"
    )
    tension = INTEGER_FUNCTIONS["tension.py"]
    assert banned_names(ast.parse(injected), tension) == [1, 2, 2, 4, 4, 8]
    allowed = "def _grow(spec, kind, seed: Node, root):\n    pass\n"
    assert banned_names(ast.parse(allowed), tension) == []


def test_integer_function_check_sees_a_fraction():
    injected = (
        "def _image(tables, m):\n"
        "    acc: dict[tuple, Fraction] = {}\n"
        "def _new_rows(tables, tree, family):\n"
        "    return Fraction(2 * lam, scale)\n"
        "def to_expr(basis, form):\n"
        "    return Fraction(v, d)\n"
        "def _basis_image(basis, i):\n"
        "    return basis.exponents[i] * fractions.Fraction(e, basis.q)\n"
    )
    functions = {**INTEGER_FUNCTIONS["laplacian.py"], **INTEGER_FUNCTIONS["pharmonic.py"]}
    assert banned_names(ast.parse(injected), functions) == [2, 4, 8]


def test_packed_function_check_sees_a_monomial():
    injected = (
        "def _image(tables, m):\n"
        "    factor, lowered = tables.monomial(m).derivative(v)\n"
        "def _expand(tables, node):\n"
        "    return {poly.Monomial(exps): v for exps, v in node[1]}\n"
        "def tau_form(basis, form):\n"
        "    one = Monomial.one()\n"
        "def _basis_image(basis, i):\n"
        "    x: Monomial = basis.keys[i][0]\n"
        "def to_expr(basis, form):\n"
        "    return Monomial(exps)\n"
    )
    functions = {**INTEGER_FUNCTIONS["laplacian.py"], **INTEGER_FUNCTIONS["tension.py"]}
    assert banned_names(ast.parse(injected), functions) == [2, 4, 6, 8]
    allowed = "def _image(tables, m):\n    lowered = m - unit\n"
    assert banned_names(ast.parse(allowed), functions) == []


def test_slot_check_sees_a_read_outside_the_boundary():
    injected = (
        "def to_form(tables, e):\n"
        "    return c._numerator * (d // c._denominator)\n"
        "def to_expr(basis, form):\n"
        "    return f._numerator\n"
        "d = getattr(c, '_denominator')\n"
        "_numerator = 1\n"
    )
    assert slot_references(ast.parse(injected), {"to_form"}) == [4, 5, 6]
    assert slot_references(ast.parse(injected), set()) == [2, 2, 4, 5, 6]
    allowed = "def to_form(tables, e):\n    return c.numerator, c.denominator\n"
    assert slot_references(ast.parse(allowed), set()) == []


def test_slot_walk_check_sees_a_walk_outside_the_codec():
    injected = (
        "def _packed(row, width):\n"
        "    v = 0\n"
        "    for u in row:\n"
        "        v = (v << width) + u\n"
        "def _symbol_form(terms, higher, width):\n"
        "    for i, k, w in higher:\n"
        "        terms[i] += w << width * k\n"
        "class Form:\n"
        "    def slots(self, v):\n"
        "        while v:\n"
        "            v >>= self.width\n"
        "def tau_form(terms, half, width):\n"
        "    for i, v in terms.items():\n"
        "        lowered = (v + half) >> width\n"
        "        out[i] = ((lowered + half) >> width) * s\n"
        "def _join(slots, width):\n"
        "    for w in reversed(slots):\n"
        "        packed = (packed << width) + w\n"
        "def _image(tables, m):\n"
        "    while rest:\n"
        "        rest >>= width\n"
    )
    assert slot_walks(ast.parse(injected), {"_join"}) == [4, 7, 11, 21]
    assert slot_walks(ast.parse(injected), SLOT_WALKERS["laplacian.py"] | {"Form.slots"}) == [4, 7]


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
