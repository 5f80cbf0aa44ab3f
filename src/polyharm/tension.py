"""Tension trees: the recursive family h^i_alpha with

    tau(h^i_alpha) = sum_k h^{i+1}_{(alpha,k)} * t^(2 lambda_k).

Both seed kinds grow through one expander (`_grow`), told only the children
of a node, and nodes live on integers: a node is (d, frozenset of (basis
function, numerator over d)) reduced by its gcd, so equal nodes are equal
values, on basis functions the tree owns (monomials, or (a, has_log,
monomial of G) for a radial node H(|x^1|) G(x^2), H in the rho-span and G
affine).  A polynomial node's children are read off the image of the one
kernel `laplacian.tau_form` by exponent id (`_expand`): the id of 2 lambda_k
names layer k, which is well defined because the eigenvalues are distinct
and nodes are t-independent.  A radial node has the one child Lap(H) G at
layer 1, by the closed-form radial Laplacian on its keys (`_radial_child`).

The children of a node depend only on the node, so a tree is stored as its
DAG of states (`State`): a state S = (node, Lambda) stands for every
multi-index alpha with that node and Lambda_alpha = sum of lambda_k along
alpha, and S has an edge to the state of (alpha, k) for each layer k.  The
expander runs breadth-first over states, never multi-indices, and expands
each distinct node once.  Each state keeps its least alpha and its number of
multi-indices, which give `Resonance` its alpha and `node_count` its value.
The state nodes are stored once, as the node table that builds and
certificates read (`TensionTree.integer_nodes`); node objects are made only
at the edges, one per state, by the alpha-keyed view `TensionTree.nodes`
for rendering and JSON, under a budget (ch2 z^24: 196,416 multi-indices in
168 states).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Mapping, NamedTuple, Union

from .algebra import AlgebraSpec, Record, VarIndex
from .errors import (
    BadParams,
    BudgetExceeded,
    IndexOutOfRange,
    InternalClosureError,
    UnsupportedSpan,
)
from .laplacian import Tables, tables_of, tau_form
from .poly import _LATEX, _TEXT, Monomial, Polynomial, _label, _power, _Style, _sum
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadialFunction)
            and self.n1 == other.n1
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n1, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, bool], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def _write(self, style: _Style) -> str:
        terms = []
        for (a, has_log), c in self.sorted_terms():
            factors = [_power(style, style.rho, a)] if a else []
            if has_log:
                factors.append(style.logrho)
            terms.append((c, factors))
        return _sum(style, terms)

    def render(self) -> str:
        return self._write(_TEXT)

    def __repr__(self) -> str:
        return f"RadialFunction(n1={self.n1}, {self.render()})"


class AffinePart(NamedTuple):
    """G(x^2) = c0 + sum_j c_j x^2_j."""

    constant: Fraction
    linear: tuple[tuple[int, Fraction], ...] = ()  # (slot, coefficient), sparse

    def is_constant(self) -> bool:
        return all(c == 0 for _, c in self.linear)

    def to_polynomial(self) -> Polynomial:
        out = Polynomial.constant(self.constant)
        for slot, c in self.linear:
            out = out + Polynomial.variable(VarIndex(2, slot)) * c
        return out


class RadialSeed(NamedTuple):
    """H(|x^1|) * G(x^2) with H in the radial span and G affine."""

    radial: RadialFunction
    affine: AffinePart

    @property
    def terms(self) -> dict[tuple[int, bool, Monomial], Fraction]:
        """The node on independent x-basis functions, rho^a log(rho)^b *
        (monomial of G), as `Polynomial.terms` is on monomials."""
        g = self.affine.to_polynomial().terms
        return {
            (a, has_log, mono): c * c_g
            for (a, has_log), c in self.radial.terms.items()
            for mono, c_g in g.items()
        }

    def _write(self, style: _Style, namer: Callable[[VarIndex], str]) -> str:
        h = self.radial._write(style)
        if self.affine.is_constant() and self.affine.constant == 1:
            return h
        return style.product.format(h, self.affine.to_polynomial()._write(style, namer))

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        return self._write(_TEXT, namer)

    def latex(self, namer: Callable[[VarIndex], str] | None = None) -> str:
        return self._write(_LATEX, namer or _LATEX.var)


Node = Union[Polynomial, RadialSeed]

# A node on integers (d, frozenset of (basis function, numerator over d)).
_IntNode = tuple[int, frozenset]


def _int_node(d: int, terms: Mapping) -> _IntNode:
    """The node sum_f terms[f] / d * f, zero terms dropped and reduced."""
    g = gcd(d, *terms.values())
    return d // g, frozenset((f, v // g) for f, v in terms.items() if v)


class State(NamedTuple):
    """One state of a tension tree: the multi-indices alpha that share a node
    (its row of `TensionTree.integer_nodes`) and Lambda_alpha =
    lambda_(alpha_1) + ... + lambda_(alpha_i).  The children of a node
    depend only on the node, so every alpha of a state has the same
    children, each in one state: `children` maps layer k to the state of
    (alpha, k).  `lam` is Lambda in units of 1/scale, the tree's `scale`;
    `parents` names the source of each edge into this state, one per
    (state, layer); `least` is the state's least alpha in lexicographic order
    (the order of `TensionTree.nodes`) and `paths` its number of
    multi-indices."""

    lam: int
    least: MultiIndex
    children: dict[int, int]
    parents: tuple[int, ...]
    paths: int


class TensionTree(Record):
    """A tension tree as its DAG of states (`State`) and their node table.
    State 0 is the seed's, and the states run in order of increasing Lambda,
    so parents come before their children; only nonzero nodes have states.
    `integer_nodes`, the one node storage of both kinds, is (D, basis,
    [[(basis index, numerator over D), ...] per state]), D the common
    denominator and `basis` the tree's basis functions in order of first
    use; `seed` is the public seed.

    `nodes`, the alpha-keyed view, is derived on first use and refused past
    `_VIEW_BUDGET` multi-indices; only rendering and JSON read it.  `rows` is
    the branch-row memo `pharmonic` keeps per family, extended in place as p
    grows; like every cached property it takes no part in equality."""

    _fields = ("spec", "kind", "seed", "states", "scale", "degree", "integer_nodes")

    def __init__(
        self,
        spec: AlgebraSpec,
        kind: str,  # "polynomial" | "radial"
        seed: Node,
        states: tuple[State, ...],
        scale: int,  # the lcm of the eigenvalue denominators
        degree: int,
        integer_nodes: tuple[int, list, list[list[tuple[int, int]]]],
    ) -> None:
        self.__dict__.update(
            spec=spec, kind=kind, seed=seed, states=states, scale=scale, degree=degree,
            integer_nodes=integer_nodes,
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
        order, as one object per state made from its row of the node table:
        a Polynomial, or a RadialSeed whose H is the row's terms on the
        first monomial of the seed's G over G's coefficient there (a radial
        node is Lap^i(H) times the seed's G)."""
        count = self.node_count()
        if count > _VIEW_BUDGET:
            raise BudgetExceeded(
                f"the tension tree has {count} nodes; listing them is refused past "
                f"{_VIEW_BUDGET} (its {len(self.states)} states still build and certify)"
            )
        d, basis, rows = self.integer_nodes
        if self.kind == "polynomial":
            made = [
                Polynomial._wrap({basis[f]: Fraction(v, d) for f, v in row}) for row in rows[1:]
            ]
        else:
            affine, n1 = self.seed.affine, self.seed.radial.n1
            first, c_g = next(iter(affine.to_polynomial().terms.items()), (None, 1))
            made = [
                RadialSeed(RadialFunction(n1, {
                    basis[f][:2]: Fraction(v, d) / c_g for f, v in row if basis[f][2] == first
                }), affine)
                for row in rows[1:]
            ]
        states = self.states
        out: dict[MultiIndex, Node] = {}
        stack = [((k,), child) for k, child in reversed(states[0].children.items())]
        while stack:  # preorder with children in layer order: lexicographic
            alpha, s = stack.pop()
            out[alpha] = made[s - 1]
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


def _seed_node(terms: Mapping) -> _IntNode:
    """A seed's `terms`, basis function to Fraction, as a node on integers."""
    d = lcm(*(c.denominator for c in terms.values()))
    return _int_node(d, {f: c.numerator * (d // c.denominator) for f, c in terms.items()})


def _expand(tables: Tables, node: _IntNode, zero: int, layers: dict) -> dict[int, _IntNode]:
    """The children of a polynomial node: h_(alpha,k) is the part at
    t^(2 lambda_k) of the kernel's image of the node at t-exponent id
    `zero`, and `layers` maps the exponent id of each 2 lambda_k to k."""
    d, terms = node
    monomial_id, monomials = tables.monomial_id, tables.monomials
    d, image = tau_form(tables, (d, {(monomial_id(mono), zero, 0): v for mono, v in terms}))
    children: dict[int, dict] = {}
    for (m, e, logpow), v in image.items():
        if logpow or e not in layers:
            raise InternalClosureError(
                f"operator image contains an unexpected t^({format_rational(tables.exponents[e])})"
                f"*log^{logpow} component; this is a bug, not a user error"
            )
        children.setdefault(layers[e], {})[monomials[m]] = v
    return {k: _int_node(d, terms) for k, terms in children.items()}


def _radial_child(n1: int, node: _IntNode) -> dict[int, _IntNode]:
    """The child of a radial node H G at layer 1, Lap(H) G, none when it is
    zero, by the closed form on the node's keys (a, has_log, monomial of G):
    Lap(rho^a) = a(a+n1-2) rho^(a-2) and Lap(rho^a log rho) = a(a+n1-2)
    rho^(a-2) log rho + (2a+n1-2) rho^(a-2)."""
    d, terms = node
    out: dict = {}
    for (a, has_log, mono), v in terms:
        _acc(out, (a - 2, has_log, mono), v * a * (a + n1 - 2))
        if has_log:
            _acc(out, (a - 2, False, mono), v * (2 * a + n1 - 2))
    return {1: _int_node(d, out)} if out else {}


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


def _grow(
    spec: AlgebraSpec,
    kind: str,
    seed: Node,
    children_of: Callable[[_IntNode], dict[int, _IntNode]],
    bound: int,
) -> TensionTree:
    """The tree of `seed`, breadth-first over states from its node on
    integers (`_seed_node`): `children_of` gives a node's nonzero children
    by layer, once per distinct node, and a state is keyed by its node and
    its Lambda in units of 1/scale (the lcm of the eigenvalue
    denominators).  Every edge raises Lambda, so ordering the states by
    Lambda puts parents before children; least alpha, path counts, depths
    and the node table then follow in one pass.  A level or a depth past
    `bound` means an operator bug."""
    scale = lcm(*(lam.denominator for lam in spec.lambdas))
    steps = {
        k: lam.numerator * (scale // lam.denominator) for k, lam in enumerate(spec.lambdas, 1)
    }
    expanded: dict[_IntNode, dict[int, _IntNode]] = {}
    found: list[tuple[_IntNode, int]] = [(_seed_node(seed.terms), 0)]
    index = {found[0]: 0}
    edges: list[dict[int, int]] = [{}]
    frontier = [0]
    depth = 0
    while frontier:
        _check_depth(depth, bound)
        next_frontier = []
        for s in frontier:
            node, lam = found[s]
            children = expanded.get(node)
            if children is None:
                children = expanded[node] = children_of(node)
            for k, child in children.items():
                key = (child, lam + steps[k])
                c = index.get(key)
                if c is None:
                    c = index[key] = len(found)
                    found.append(key)
                    edges.append({})
                    next_frontier.append(c)
                edges[s][k] = c
        frontier = next_frontier
        depth += 1
    order = sorted(range(len(found)), key=lambda i: found[i][1])
    renamed = {old: new for new, old in enumerate(order)}
    children = [{k: renamed[c] for k, c in sorted(edges[old].items())} for old in order]
    least: list[MultiIndex | None] = [()] + [None] * (len(order) - 1)
    paths = [1] + [0] * (len(order) - 1)
    depths = [0] * len(order)
    parents: list[list[int]] = [[] for _ in order]
    for s, kids in enumerate(children):
        for k, c in kids.items():
            alpha = least[s] + (k,)
            if least[c] is None or alpha < least[c]:
                least[c] = alpha
            paths[c] += paths[s]
            depths[c] = max(depths[c], depths[s] + 1)
            parents[c].append(s)
    degree = max(depths)
    _check_depth(degree, bound)
    states = tuple(
        State(found[old][1], least[s], children[s], tuple(parents[s]), paths[s])
        for s, old in enumerate(order)
    )
    nodes = [found[old][0] for old in order]
    d = lcm(*(node_d for node_d, _ in nodes))
    basis: dict = {}
    rows = [
        [(basis.setdefault(f, len(basis)), v * (d // node_d)) for f, v in terms]
        for node_d, terms in nodes
    ]
    return TensionTree(spec, kind, seed, states, scale, degree, (d, list(basis), rows))


def tension_tree(spec: AlgebraSpec, h: Polynomial) -> TensionTree:
    """Full tree of a polynomial seed, each node expanded by `_expand`.

    Terminates for every polynomial: validation enforces the grading rule, so
    the child at t^(2 lambda_k) has weighted degree (sum of lambda_layer *
    exponent over a monomial, maximized) at least 2 lambda_k below its
    parent's, and the depth is at most the seed's weighted degree over
    2 lambda_1.  A node past that bound means an operator bug; a bound past
    `_DEPTH_BUDGET` raises BudgetExceeded before any level is expanded.
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
    zero = tables.exponent_id(Fraction(0))
    layers = {tables.exponent_id(shift): k for k, shift in enumerate(tables.shifts, 1)}
    return _grow(spec, "polynomial", h, lambda node: _expand(tables, node, zero, layers), bound)


def tension_tree_radial(spec: AlgebraSpec, seed: RadialSeed) -> TensionTree:
    """Single-branch tree of H(|x^1|) G(x^2): the child of H * G is
    Lap(H) * G at layer 1 (`_radial_child`), none once Lap(H) or G is zero,
    so node i is Lap^i(H) * G and the states are the nodes, a chain along
    layer 1.

    Each Laplacian lowers every rho-power by 2 down to its harmonic floor, 0
    or 2 - n1, so the depth is at most (max a - min(0, 2 - n1)) // 2; a node
    past that bound means an operator bug, and a bound past `_DEPTH_BUDGET`
    raises BudgetExceeded.  The layer-1/2 cross terms of the operator
    annihilate on radial x affine functions because the first-layer bracket
    constants are antisymmetric in the two layer-1 slots; validation rejects
    a self-bracket [X, X], so the diagonal constants vanish on every spec.
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
    return _grow(spec, "radial", seed, lambda node: _radial_child(n1, node), bound)


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


def _written(tree: TensionTree, style: _Style):
    """(alpha, written node) for the seed, alpha = (), then every node."""
    namer = tree.spec.var_name
    yield (), tree.seed._write(style, namer)
    yield from _rendered(tree, lambda node: node._write(style, namer))


def render_tree_text(tree: TensionTree) -> str:
    """Indented branch layout: each node under its parent, root first."""
    lines = [
        "  " * len(alpha) + f"{_label(_TEXT, alpha)} = {text}"
        for alpha, text in _written(tree, _TEXT)
    ]
    lines.append(f"degree = {tree.degree}")
    return "\n".join(lines)


def render_tree_latex(tree: TensionTree) -> str:
    """One aligned line per node, paper-style labels h^{i}_{(alpha)}."""
    return "\n".join(
        rf"{_label(_LATEX, alpha)} &= {tex} \\" for alpha, tex in _written(tree, _LATEX)
    )


def _node_to_json(tree: TensionTree, node: Node) -> object:
    if tree.kind == "polynomial":
        return node.render(tree.spec.var_name)
    linear = dict(node.affine.linear)
    n2 = tree.spec.dim(2) if tree.spec.m >= 2 else 0
    return {
        "radial": [
            {"a": a, "log": has_log, "c": format_rational(c)}
            for (a, has_log), c in node.radial.sorted_terms()
        ],
        "affine": {
            "c0": format_rational(node.affine.constant),
            "c": [format_rational(linear.get(j, Fraction(0))) for j in range(1, n2 + 1)],
        },
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
