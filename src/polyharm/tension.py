"""Tension trees: the recursive family h^i_alpha with

    tau(h^i_alpha) = sum_k h^{i+1}_{(alpha,k)} * t^(2 lambda_k).

A polynomial node is expanded by the one operator kernel `laplacian.tau_form`
on its integer form, and each child is read off the image by exponent id: the
id of 2 lambda_k names layer k, which is well defined because the eigenvalues
are distinct and nodes are t-independent.

The children of a node depend only on its polynomial, so a tree is stored as
its DAG of states (`State`): a state S = (node polynomial, Lambda) stands for
every multi-index alpha with that node and Lambda_alpha = sum of lambda_k
along alpha, and S has an edge to the state of (alpha, k) for each layer k.
`tension_tree` expands states breadth-first, never multi-indices, and each
distinct node polynomial once (a dict local to the call).  Each state keeps
its least alpha and its number of multi-indices, which give `Resonance` its
alpha and `node_count` its value; the alpha-keyed view `TensionTree.nodes`
is derived only for rendering and JSON, under a budget (ch2 z^24 has 196,416
multi-indices in 168 states).  Polynomial seeds always terminate; the radial
x^1-power seeds of the rho-span (times an affine function of the x^2
variables) produce single-branch trees via the closed-form radial Laplacian,
a chain whose states are its nodes, and never touch the full operator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Mapping, NamedTuple, Union

from .algebra import AlgebraSpec, Record, VarIndex
from .errors import (
    BadParams,
    BudgetExceeded,
    IndexOutOfRange,
    InternalClosureError,
    UnsupportedSpan,
)
from .expr import MixedExpr, latex_term
from .laplacian import Tables, tables_of, tau_form
from .poly import Monomial, Polynomial, format_term
from .scalar import _acc, format_rational

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


class AffinePart(NamedTuple):
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


class RadialSeed(NamedTuple):
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


class State(NamedTuple):
    """One state of a tension tree: the multi-indices alpha that share a node
    polynomial and Lambda_alpha = lambda_(alpha_1) + ... + lambda_(alpha_i).

    The children of a node depend only on its polynomial, so every alpha of a
    state has the same children, each in one state: `children` maps layer k
    to the state of (alpha, k).  `lam` is Lambda in units of 1/scale, the
    tree's `scale`; `parents` names the source of each edge into this state,
    one per (state, layer); `least` is the state's least alpha in
    lexicographic order (the order of `TensionTree.nodes`) and `paths` its
    number of multi-indices."""

    node: Node
    lam: int
    least: MultiIndex
    children: dict[int, int]
    parents: tuple[int, ...]
    paths: int


class TensionTree(Record):
    """A tension tree as its DAG of states (`State`).  State 0 is the seed's,
    and the states run in order of increasing Lambda, so parents come before
    their children; only nonzero nodes have states.

    `nodes`, the alpha-keyed view, is derived on first use and refused past
    `_VIEW_BUDGET` multi-indices; only rendering and JSON read it.  `rows` is
    the branch-row memo `pharmonic` keeps per family, extended in place as p
    grows; like every cached property it takes no part in equality."""

    _fields = ("spec", "kind", "seed", "states", "scale", "degree")

    def __init__(
        self,
        spec: AlgebraSpec,
        kind: str,  # "polynomial" | "radial"
        seed: Node,
        states: tuple[State, ...],
        scale: int,  # the lcm of the eigenvalue denominators
        degree: int,
    ) -> None:
        self.__dict__.update(
            spec=spec, kind=kind, seed=seed, states=states, scale=scale, degree=degree
        )

    @cached_property
    def rows(self) -> dict:
        return {}

    def node_count(self) -> int:
        """The number of nonzero nodes (multi-indices), from the path counts."""
        return sum(state.paths for state in self.states[1:])

    @cached_property
    def nodes(self) -> dict[MultiIndex, Node]:
        """Every nonzero node keyed by its multi-index, in lexicographic
        order; the nodes of one state are one object."""
        count = self.node_count()
        if count > _VIEW_BUDGET:
            raise BudgetExceeded(
                f"the tension tree has {count} nodes; listing them is refused past "
                f"{_VIEW_BUDGET} (its {len(self.states)} states still build and certify)"
            )
        states = self.states
        out: dict[MultiIndex, Node] = {}
        stack = [((k,), child) for k, child in reversed(states[0].children.items())]
        while stack:  # preorder with children in layer order: lexicographic
            alpha, s = stack.pop()
            out[alpha] = states[s].node
            stack += [(alpha + (k,), child) for k, child in reversed(states[s].children.items())]
        return out

    def state_of(self, alpha: MultiIndex) -> int | None:
        """The state of alpha, or None when its node is zero."""
        s: int | None = 0
        for k in alpha:
            s = self.states[s].children.get(k)
            if s is None:
                return None
        return s

    @cached_property
    def images(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """The tree rule tau(h_S) = sum_k h_(S,k) t^(2 lambda_k) as the
        images of the state symbols in the layout of `laplacian.tau_form`
        over denominator 1: (shift id k - 1, child state, 1) per child."""
        return {
            s: tuple((k - 1, child, 1) for k, child in state.children.items())
            for s, state in enumerate(self.states)
        }

    @cached_property
    def integer_nodes(self) -> tuple[int, list[list[tuple[Monomial, int]]]]:
        """A polynomial tree's state nodes as (D, [[(monomial, numerator
        over D), ...] per state]), D the common denominator of every
        coefficient."""
        nodes = [state.node.terms for state in self.states]
        d = lcm(*(c.denominator for terms in nodes for c in terms.values()))
        return d, [
            [(mono, c.numerator * (d // c.denominator)) for mono, c in terms.items()]
            for terms in nodes
        ]


def _tree(
    spec: AlgebraSpec,
    kind: str,
    found: list[tuple[Node, int]],
    edges: list[dict[int, int]],
    scale: int,
    bound: int,
) -> TensionTree:
    """The tree of the states an expansion found: `found[i]` is the node and
    Lambda, in units of 1/scale, of state i, the seed's first, and `edges[i]`
    its children by layer.  Every edge raises Lambda, so ordering by Lambda puts parents
    before children; least alpha, path counts and depths then follow in one
    pass.  A depth past `bound` means an operator bug."""
    order = sorted(range(len(found)), key=lambda i: found[i][1])
    renamed = {old: new for new, old in enumerate(order)}
    children = [{k: renamed[c] for k, c in sorted(edges[old].items())} for old in order]
    least: list[MultiIndex | None] = [()] + [None] * (len(order) - 1)
    paths = [1] + [0] * (len(order) - 1)
    depth = [0] * len(order)
    parents: list[list[int]] = [[] for _ in order]
    for s, kids in enumerate(children):
        for k, c in kids.items():
            alpha = least[s] + (k,)
            if least[c] is None or alpha < least[c]:
                least[c] = alpha
            paths[c] += paths[s]
            depth[c] = max(depth[c], depth[s] + 1)
            parents[c].append(s)
    degree = max(depth)
    _check_depth(degree, bound)
    states = tuple(
        State(found[old][0], found[old][1], least[s], children[s], tuple(parents[s]), paths[s])
        for s, old in enumerate(order)
    )
    return TensionTree(
        spec=spec, kind=kind, seed=found[0][0], states=states, scale=scale, degree=degree
    )


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

# The most multi-indices a tree's alpha-keyed view may list: their number
# grows exponentially with the seed's degree while the states stay few (ch2
# z^24: 196,416 alpha, 168 states), and only the view enumerates them.
_VIEW_BUDGET = 1_000_000


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
    """Full tree of a polynomial seed, expanded state by state.

    Terminates for every polynomial: validation enforces the grading rule, so
    the child at t^(2 lambda_k) has weighted degree (sum of lambda_layer *
    exponent over a monomial, maximized) at least 2 lambda_k below its
    parent's, and the depth is at most the seed's weighted degree over
    2 lambda_1.  A node past that bound means an operator bug; a bound past
    `_DEPTH_BUDGET` raises BudgetExceeded before any level is expanded.
    The expansion runs breadth-first over states (node, Lambda), never over
    multi-indices, and each distinct node polynomial is expanded once
    (`_expand`), so states that share a node share its `Polynomial`.
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
    # states are keyed by the id of a distinct node polynomial and by Lambda
    # in units of 1/scale, so no polynomial or Fraction is hashed per edge
    scale = lcm(*(lam.denominator for lam in spec.lambdas))
    steps = {
        k: lam.numerator * (scale // lam.denominator) for k, lam in enumerate(spec.lambdas, 1)
    }
    distinct: dict[Polynomial, Polynomial] = {h: h}
    expanded: dict[int, dict[int, Polynomial]] = {}
    found: list[tuple[Polynomial, int]] = [(h, 0)]
    index = {(id(h), 0): 0}
    edges: list[dict[int, int]] = [{}]
    frontier = [0]
    depth = 0
    while frontier:
        _check_depth(depth, bound)
        next_frontier = []
        for s in frontier:
            node, lam = found[s]
            children = expanded.get(id(node))
            if children is None:
                children = expanded[id(node)] = {
                    k: distinct.setdefault(child, child)
                    for k, child in _expand(tables, node, layers).items()
                }
            for k, child in children.items():
                key = (id(child), lam + steps[k])
                c = index.get(key)
                if c is None:
                    c = index[key] = len(found)
                    found.append((child, key[1]))
                    edges.append({})
                    next_frontier.append(c)
                edges[s][k] = c
        frontier = next_frontier
        depth += 1
    return _tree(spec, "polynomial", found, edges, scale, bound)


def tension_tree_radial(spec: AlgebraSpec, seed: RadialSeed) -> TensionTree:
    """Single-branch tree of H(|x^1|) G(x^2): node i is Lap^i(H) * G, so its
    states are its nodes, a chain along layer 1.

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
    n1, lam = seed.radial.n1, spec.lam(1)
    bound = (max((a for a, _ in seed.radial.terms), default=0) - min(0, 2 - n1)) // 2
    _check_budget(bound)
    found: list[tuple[Node, int]] = [(seed, 0)]
    current = seed.radial
    while not seed.is_zero():
        current = current.laplacian()
        if current.is_zero():
            break
        _check_depth(len(found), bound)
        found.append((RadialSeed(radial=current, affine=seed.affine), len(found) * lam.numerator))
    edges = [{1: s + 1} for s in range(len(found) - 1)] + [{}]
    return _tree(spec, "radial", found, edges, lam.denominator, bound)


# --- rendering ---

def _rendered(tree: TensionTree, render: Callable[[Node], object]):
    """(alpha, render(node)) for every node in lexicographic order (the
    order of `TensionTree.nodes`); the alphas of one state share its node
    object, which is rendered once."""
    memo: dict[int, object] = {}
    for alpha, node in tree.nodes.items():
        if id(node) not in memo:
            memo[id(node)] = render(node)
        yield alpha, memo[id(node)]


def render_tree_text(tree: TensionTree) -> str:
    """Indented branch layout: each node under its parent, root first."""
    namer = tree.spec.var_name
    lines = [f"h = {tree.seed.render(namer)}"]
    for alpha, text in _rendered(tree, lambda node: node.render(namer)):
        label = ",".join(str(a) for a in alpha)
        lines.append("  " * len(alpha) + f"h^{len(alpha)}_({label}) = {text}")
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
    for alpha, tex in _rendered(tree, node_tex):
        label = ",".join(str(a) for a in alpha)
        lines.append(rf"h^{{{len(alpha)}}}_{{({label})}} &= {tex} \\")
    return "\n".join(lines)


def _affine_to_json(g: AffinePart, n2: int) -> dict:
    dense = {slot: c for slot, c in g.linear}
    return {
        "c0": format_rational(g.constant),
        "c": [format_rational(dense.get(j, Fraction(0))) for j in range(1, n2 + 1)],
    }


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
            {"alpha": list(alpha), "node": node}
            for alpha, node in _rendered(tree, lambda node: _node_to_json(tree, node))
        ],
    }
