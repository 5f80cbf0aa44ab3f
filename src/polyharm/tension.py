"""Tension trees: the recursive family h^i_alpha with

    tau(h^i_alpha) = sum_k h^{i+1}_{(alpha,k)} * t^(2 lambda_k).

A polynomial node is expanded by the one operator kernel `laplacian.tau_form`
on its integer form, and each child is read off the image by exponent id: the
id of 2 lambda_k names layer k, which is well defined because the eigenvalues
are distinct and nodes are t-independent.  The children of a node depend only
on its polynomial, so each distinct node is expanded once per tree (a dict
local to `tension_tree`) and its children are shared by every multi-index
that reaches it.  Polynomial seeds always terminate; the radial x^1-power
seeds of the rho-span (times an affine function of the x^2 variables) produce
single-branch trees via the closed-form radial Laplacian and never touch the
full operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Mapping, Union

from .algebra import AlgebraSpec, VarIndex
from .errors import (
    BadParams,
    BudgetExceeded,
    IndexOutOfRange,
    InternalClosureError,
    KindMismatch,
    ParseError,
    UnsupportedSpan,
)
from .expr import MixedExpr, latex_term, parse_polynomial
from .laplacian import Tables, tables_of, tau_form
from .poly import Monomial, Polynomial, format_term
from .scalar import _acc, format_rational, int_field, parse_rational

MultiIndex = tuple[int, ...]


# --- radial node functions ---

class RadialFunction:
    """Finite combination of rho^a and rho^a log(rho), rho = |x^1|.

    Admissible span (closed under the flat x^1 Laplacian):
      n1 == 2:  rho^(2k) and rho^(2k) log rho,  k >= 0
      n1 != 2:  rho^(2k) and rho^(2k + 2 - n1), k >= 0  (no logs)
    """

    __slots__ = ("n1", "terms")

    def __init__(self, n1: int, terms: Mapping[tuple[int, bool], Fraction] | None = None):
        if n1 < 1:
            raise UnsupportedSpan(f"layer-1 dimension must be >= 1, got {n1}")
        self.n1 = n1
        clean: dict[tuple[int, bool], Fraction] = {}
        if terms:
            for (a, has_log), c in terms.items():
                c = Fraction(c)
                if c:
                    self._check_span(int(a), bool(has_log))
                    clean[(int(a), bool(has_log))] = c
        self.terms = clean

    def _check_span(self, a: int, has_log: bool) -> None:
        if self.n1 == 2:
            if a < 0 or a % 2:
                raise UnsupportedSpan(f"rho^{a} is outside the even-power span (n1 = 2)")
            return
        if has_log:
            raise UnsupportedSpan(f"log(rho) terms require n1 = 2, not n1 = {self.n1}")
        plain = a >= 0 and a % 2 == 0
        shifted = a >= 2 - self.n1 and (a - (2 - self.n1)) % 2 == 0
        if not (plain or shifted):
            raise UnsupportedSpan(
                f"rho^{a} is outside the span rho^(2k), rho^(2k+2-{self.n1})"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadialFunction)
            and self.n1 == other.n1
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n1, frozenset(self.terms.items())))

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if self.n1 != other.n1:
            raise KindMismatch("radial functions over different layer-1 dimensions")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _acc(out, key, c)
        result = RadialFunction.__new__(RadialFunction)
        result.n1, result.terms = self.n1, out
        return result

    def laplacian(self) -> "RadialFunction":
        """Closed form: Lap(rho^a) = a(a+n1-2) rho^(a-2);
        Lap(rho^a log rho) = a(a+n1-2) rho^(a-2) log rho + (2a+n1-2) rho^(a-2)."""
        out: dict[tuple[int, bool], Fraction] = {}
        n1 = self.n1
        for (a, has_log), c in self.terms.items():
            main = a * (a + n1 - 2)
            if main:
                _acc(out, (a - 2, has_log), c * main)
            if has_log:
                extra = 2 * a + n1 - 2
                if extra:
                    _acc(out, (a - 2, False), c * extra)
        result = RadialFunction.__new__(RadialFunction)
        result.n1, result.terms = n1, out
        return result

    def is_polynomial(self) -> bool:
        return all(a >= 0 and a % 2 == 0 and not has_log for a, has_log in self.terms)

    def to_polynomial(self, spec: AlgebraSpec) -> Polynomial:
        """Expand rho^(2k) = (x^1_1^2 + ... )^k; only for log-free even powers."""
        if not self.is_polynomial():
            raise UnsupportedSpan("only even log-free powers expand to polynomials")
        rho2 = Polynomial.zero()
        for j in range(1, spec.dim(1) + 1):
            rho2 = rho2 + Polynomial.variable(VarIndex(1, j), 2)
        out = Polynomial.zero()
        for (a, _), c in self.terms.items():
            out = out + rho2 ** (a // 2) * c
        return out

    def sorted_terms(self) -> list[tuple[tuple[int, bool], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, has_log), c in self.sorted_terms():
            factors = []
            if a == 1:
                factors.append("rho")
            elif a:
                factors.append(f"rho^{a}" if a > 0 else f"rho^({a})")
            if has_log:
                factors.append("log(rho)")
            parts.append(format_term(c, factors, first=not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RadialFunction(n1={self.n1}, {self.render()})"


@dataclass(frozen=True)
class AffinePart:
    """G(x^2) = c0 + sum_j c_j x^2_j."""

    constant: Fraction
    linear: tuple[tuple[int, Fraction], ...] = ()  # (slot, coefficient), sparse

    def is_zero(self) -> bool:
        return self.constant == 0 and all(c == 0 for _, c in self.linear)

    def is_constant(self) -> bool:
        return all(c == 0 for _, c in self.linear)

    def to_polynomial(self) -> Polynomial:
        out = Polynomial.constant(self.constant)
        for slot, c in self.linear:
            out = out + Polynomial.variable(VarIndex(2, slot)) * c
        return out

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        return self.to_polynomial().render(namer)


@dataclass(frozen=True)
class RadialSeed:
    """H(|x^1|) * G(x^2) with H in the radial span and G affine."""

    radial: RadialFunction
    affine: AffinePart

    def is_zero(self) -> bool:
        return self.radial.is_zero() or self.affine.is_zero()

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        h = self.radial.render()
        if self.affine.is_constant() and self.affine.constant == 1:
            return h
        return f"({h}) * ({self.affine.render(namer)})"

    def latex(self, namer: Callable[[VarIndex], str] | None = None) -> str:
        parts = []
        for (a, has_log), c in self.radial.sorted_terms():
            factors = []
            if a == 1:
                factors.append(r"\rho")
            elif a:
                factors.append(rf"\rho^{{{a}}}")
            if has_log:
                factors.append(r"\log(\rho)")
            parts.append(latex_term(c, factors, first=not parts))
        h = "".join(parts) if parts else "0"
        if self.affine.is_constant() and self.affine.constant == 1:
            return h
        g = MixedExpr.from_polynomial(self.affine.to_polynomial()).latex(namer)
        return rf"\left({h}\right) \left({g}\right)"


Node = Union[Polynomial, RadialSeed]


@dataclass(frozen=True)
class TensionTree:
    """Sparse tree: only nonzero nodes are stored, keyed by multi-index;
    equal polynomial nodes may be one shared object."""

    spec: AlgebraSpec
    kind: str  # "polynomial" | "radial"
    seed: Node
    nodes: dict[MultiIndex, Node]
    degree: int

    def branches(self) -> list[MultiIndex]:
        return sorted(self.nodes)

    @cached_property
    def scaled_terms(self) -> tuple[int, list[list[tuple[Monomial | MultiIndex, int]]]]:
        """The seed and nodes, in `branches()` order, as (D, [[(x-part,
        numerator over D), ...], ...]): for a polynomial tree the monomials,
        D the common denominator of every coefficient; a radial tree's nodes
        are not polynomial, so each is its node symbol with coefficient 1."""
        if self.kind == "radial":
            return 1, [[(alpha, 1)] for alpha in [(), *self.branches()]]
        nodes = [self.seed.terms] + [self.nodes[alpha].terms for alpha in self.branches()]
        d = lcm(*(c.denominator for terms in nodes for c in terms.values()))
        return d, [
            [(mono, c.numerator * (d // c.denominator)) for mono, c in terms.items()]
            for terms in nodes
        ]

    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def _children(self) -> dict[MultiIndex, list[int]]:
        out: dict[MultiIndex, list[int]] = {}
        for alpha in self.nodes:
            out.setdefault(alpha[:-1], []).append(alpha[-1])
        return out

    def children(self, alpha: MultiIndex) -> list[int]:
        return sorted(self._children.get(alpha, []))


def _expand(tables: Tables, node: Polynomial, layers: dict[int, int]) -> dict[int, Polynomial]:
    """The children of a polynomial node: h_(alpha,k) is the coefficient of
    t^(2 lambda_k) in the kernel's image of the node's integer form, and
    `layers` maps the exponent id of each 2 lambda_k to k."""
    d = lcm(*(c.denominator for c in node.terms.values()))
    zero = tables.exponent_id(Fraction(0))
    d, image = tau_form(tables, (d, {
        (tables.monomial_id(mono), zero, 0): c.numerator * (d // c.denominator)
        for mono, c in node.terms.items()
    }))
    children: dict[int, dict[Monomial, Fraction]] = {}
    for (m, e, logpow), v in image.items():
        if logpow or e not in layers:
            raise InternalClosureError(
                f"operator image contains an unexpected t^({format_rational(tables.exponents[e])})"
                f"*log^{logpow} component; this is a bug, not a user error"
            )
        children.setdefault(layers[e], {})[tables.monomials[m]] = Fraction(v, d)
    return {k: Polynomial._wrap(terms) for k, terms in children.items()}


# The deepest tension tree a seed may ask for, by its depth bound: x^(10^11)
# on rh2 would otherwise be expanded one level at a time, 5 * 10^10 levels.
_DEPTH_BUDGET = 1024


def _check_budget(bound: int) -> None:
    if bound > _DEPTH_BUDGET:
        raise BudgetExceeded(
            f"the seed's tension tree may be {bound} levels deep; "
            f"the depth budget is {_DEPTH_BUDGET}"
        )


def _check_depth(depth: int, bound: int) -> None:
    if depth > bound:
        raise InternalClosureError(
            f"tension tree node at depth {depth} passes the seed's depth bound "
            f"{bound}; this is a bug, not a user error"
        )


def tension_tree(spec: AlgebraSpec, h: Polynomial) -> TensionTree:
    """Full tree of a polynomial seed.

    Terminates for every polynomial: validation enforces the grading rule, so
    the child at t^(2 lambda_k) has weighted degree (sum of lambda_layer *
    exponent over a monomial, maximized) at least 2 lambda_k below its
    parent's, and the depth is at most the seed's weighted degree over
    2 lambda_1.  A node past that bound means an operator bug; a bound past
    `_DEPTH_BUDGET` raises BudgetExceeded before any level is expanded.
    Each distinct node polynomial is expanded once (`_expand`), so nodes
    that repeat share their `Polynomial` objects.
    """
    for v_layer in h.layers_used():
        if not 1 <= v_layer <= spec.m:
            raise IndexOutOfRange(f"seed uses layer {v_layer}, algebra has m={spec.m}")
    weighted = max(
        (sum(spec.lam(v.layer) * e for v, e in mono.exps) for mono in h.terms),
        default=0,
    )
    bound = weighted // (2 * spec.lam(1))
    _check_budget(bound)
    tables = tables_of(spec)
    tables.bound_images()
    layers = {tables.exponent_id(shift): k for k, shift in enumerate(tables.shifts, 1)}
    expanded: dict[Polynomial, dict[int, Polynomial]] = {}
    nodes: dict[MultiIndex, Polynomial] = {}
    frontier: dict[MultiIndex, Polynomial] = {(): h}
    depth = 0
    while frontier:
        _check_depth(depth, bound)
        next_frontier: dict[MultiIndex, Polynomial] = {}
        for alpha, node in frontier.items():
            children = expanded.get(node)
            if children is None:
                children = expanded[node] = _expand(tables, node, layers)
            for k, child in children.items():
                child_alpha = alpha + (k,)
                nodes[child_alpha] = child
                next_frontier[child_alpha] = child
        frontier = next_frontier
        depth += 1
    degree = max((len(alpha) for alpha in nodes), default=0)
    return TensionTree(spec=spec, kind="polynomial", seed=h, nodes=nodes, degree=degree)


def tension_tree_radial(spec: AlgebraSpec, seed: RadialSeed) -> TensionTree:
    """Single-branch tree of H(|x^1|) G(x^2): node i is Lap^i(H) * G.

    Each Laplacian lowers every rho-power by 2 down to its harmonic floor, 0
    or 2 - n1, so the depth is at most (max a - min(0, 2 - n1)) // 2; a node
    past that bound means an operator bug, and a bound past `_DEPTH_BUDGET`
    raises BudgetExceeded.  The layer-1/2 cross terms of the operator annihilate on radial x affine
    functions because the first-layer bracket constants are antisymmetric in
    the two layer-1 slots; validation rejects a self-bracket [X, X], so the
    diagonal constants vanish on every algebra spec.
    """
    if seed.radial.n1 != spec.dim(1):
        raise BadParams(
            f"seed declares n1={seed.radial.n1} but layer 1 of {spec.name!r} "
            f"has dimension {spec.dim(1)}"
        )
    if not seed.affine.is_constant():
        if spec.m < 2:
            raise UnsupportedSpan(
                "affine part uses x^2 variables but the algebra has a single layer"
            )
        for slot, _ in seed.affine.linear:
            spec.check_index(VarIndex(2, slot))
    n1 = seed.radial.n1
    bound = (max((a for a, _ in seed.radial.terms), default=0) - min(0, 2 - n1)) // 2
    _check_budget(bound)
    nodes: dict[MultiIndex, RadialSeed] = {}
    current = seed.radial
    depth = 0
    while not seed.is_zero():
        current = current.laplacian()
        if current.is_zero():
            break
        depth += 1
        _check_depth(depth, bound)
        nodes[(1,) * depth] = RadialSeed(radial=current, affine=seed.affine)
    degree = max((len(alpha) for alpha in nodes), default=0)
    return TensionTree(spec=spec, kind="radial", seed=seed, nodes=nodes, degree=degree)


# --- rendering ---

def render_tree_text(tree: TensionTree) -> str:
    """Indented branch layout: each node under its parent, root first."""
    namer = tree.spec.var_name
    lines = [f"h = {tree.seed.render(namer)}"]

    def walk(alpha: MultiIndex, indent: int) -> None:
        for k in tree.children(alpha):
            child = alpha + (k,)
            label = ",".join(str(a) for a in child)
            lines.append(
                "  " * indent + f"h^{len(child)}_({label}) = "
                + tree.nodes[child].render(namer)
            )
            walk(child, indent + 1)

    walk((), 1)
    lines.append(f"degree = {tree.degree}")
    return "\n".join(lines)


def render_tree_latex(tree: TensionTree) -> str:
    """One aligned line per node, paper-style labels h^{i}_{(alpha)}."""
    namer = tree.spec.var_name

    def node_tex(node: Node) -> str:
        if isinstance(node, Polynomial):
            return MixedExpr.from_polynomial(node).latex(namer)
        return node.latex(namer)

    lines = [rf"h &= {node_tex(tree.seed)} \\"]
    for alpha in tree.branches():
        label = ",".join(str(a) for a in alpha)
        lines.append(rf"h^{{{len(alpha)}}}_{{({label})}} &= {node_tex(tree.nodes[alpha])} \\")
    return "\n".join(lines)


def _affine_to_json(g: AffinePart, n2: int) -> dict:
    dense = {slot: c for slot, c in g.linear}
    return {
        "c0": format_rational(g.constant),
        "c": [format_rational(dense.get(j, Fraction(0))) for j in range(1, n2 + 1)],
    }


def _affine_from_json(obj: Mapping) -> AffinePart:
    constant = parse_rational(obj.get("c0", "0"))
    linear = obj.get("c", [])
    if not isinstance(linear, list):
        raise ParseError(f"affine field 'c' must be a JSON list, got {linear!r}")
    linear = tuple(
        (j + 1, parse_rational(c)) for j, c in enumerate(linear) if parse_rational(c) != 0
    )
    return AffinePart(constant=constant, linear=linear)


def _radial_to_json(r: RadialFunction) -> list[dict]:
    return [
        {"a": a, "log": has_log, "c": format_rational(c)}
        for (a, has_log), c in r.sorted_terms()
    ]


def _node_to_json(tree: TensionTree, node: Node) -> object:
    if isinstance(node, Polynomial):
        return node.render(tree.spec.var_name)
    n2 = tree.spec.dim(2) if tree.spec.m >= 2 else 0
    return {
        "radial": _radial_to_json(node.radial),
        "affine": _affine_to_json(node.affine, n2),
    }


def tree_to_json(tree: TensionTree) -> dict:
    return {
        "algebra": tree.spec.name,
        "kind": tree.kind,
        "seed": _node_to_json(tree, tree.seed),
        "degree": tree.degree,
        "nodes": [
            {"alpha": list(alpha), "node": _node_to_json(tree, tree.nodes[alpha])}
            for alpha in tree.branches()
        ],
    }


def _field(obj: object, key: str, kind: type = object) -> object:
    """obj[key], refusing a non-object, a missing key or a value not of `kind`;
    an int field is read by `int_field`."""
    if not isinstance(obj, Mapping):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"missing field {key!r}")
    if kind is int:
        return int_field(obj, key)
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(
            f"field {key!r} must be a JSON {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _node_from_json(spec: AlgebraSpec, obj: object, kind: str) -> Node:
    if kind == "polynomial":
        if not isinstance(obj, str):
            raise ParseError(f"a polynomial node must be a string, got {type(obj).__name__}")
        return parse_polynomial(obj, spec)
    terms = {}
    for term in _field(obj, "radial", list):
        log = _field(term, "log", bool)
        terms[(_field(term, "a", int), log)] = parse_rational(_field(term, "c"))
    radial = RadialFunction(spec.dim(1), terms)
    return RadialSeed(radial=radial, affine=_affine_from_json(_field(obj, "affine", Mapping)))


def _alpha_from_json(entry: object) -> MultiIndex:
    alpha = _field(entry, "alpha", list)
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in alpha):
        raise ParseError(f"field 'alpha' must be a list of layer numbers, got {alpha!r}")
    return tuple(alpha)


def tree_from_json(spec: AlgebraSpec, obj: Mapping) -> TensionTree:
    """Read a tree written by `tree_to_json`.  The tree is rebuilt from the
    seed; declared nodes or a declared degree that differ from it are a
    ParseError."""
    kind = _field(obj, "kind")
    if kind not in ("polynomial", "radial"):
        raise ParseError(f"tree kind must be 'polynomial' or 'radial', got {kind!r}")
    seed = _node_from_json(spec, _field(obj, "seed"), kind)
    nodes = {
        _alpha_from_json(entry): _node_from_json(spec, _field(entry, "node"), kind)
        for entry in _field(obj, "nodes", list)
    }
    degree = _field(obj, "degree", int)
    if kind == "polynomial":
        tree = tension_tree(spec, seed)
    else:
        tree = tension_tree_radial(spec, seed)
    if nodes != tree.nodes:
        raise ParseError("the declared nodes differ from the tension tree of the seed")
    if degree != tree.degree:
        raise ParseError(
            f"declared degree {degree} differs from the tree degree {tree.degree}"
        )
    return tree
