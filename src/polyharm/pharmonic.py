"""Construction of the two explicit p-harmonic families and exact certification.

Given a seed with finite tension tree {h^i_alpha} of degree r, the two families

    phi_p = h log(t)^(p-1)     + sum_{i<=r, alpha} h^i_alpha f^i_alpha(t, p)
    psi_p = h t^n log(t)^(p-1) + sum_{i<=r, alpha} h^i_alpha g^i_alpha(t, p)

are assembled from the branch coefficient functions f/g (rational combinations
of t-powers and log-powers weighted by complete homogeneous symmetric
polynomials in 1/(2 Lambda^k - n) for phi, 1/(2 Lambda^k + n) for psi).  The
phi family requires 2 Lambda^k_alpha != n along every branch with a nonzero
node; a violation raises Resonance and callers fall back to psi, which is
always defined.

Assembly runs on the tree's states (`tension.State`), never on its
multi-indices.  A branch row depends on alpha only through the sequence of
Lambda along it, and its recurrence is linear with factors that depend only
on Lambda, so the rows summed over the multi-indices of one state obey the
same recurrence over the state's in-edges (`_Rows`).  These state rows are
exact integer pairs, made once per tree and family and extended in place as
p grows (`_rows`, kept in `TensionTree.rows`); one row serves every p up to
its length.  Their weighted sums over one denominator give each state's
coefficient (`_coefficients`), and the family member, an integer form on the
tree's basis of (state, t-exponent) at its scale (`_states_basis`, kept in
`TensionTree.bases`), is sum_S node_S times the coefficient of S.  A form
holds its log powers as the divided powers log(t)^k / k! packed into one
int per id (`laplacian`), so the weight of log(t)^(p-1-j), (-2)^j
(p-1)...(p-j), becomes (-2)^j (p-1)! on log(t)^(p-1-j) / (p-1-j)!, one
factor for every slot (`_weights`).  A state's weighted row is kept per
order, and one assembly (`_summed`) sums c times such members on integers,
joining each state's row into one int once, at the least width that holds
the sum's bound times the most the next step multiplies it by: the node
table (`realize`) after a member, phi, psi or a combination a*phi + b*psi
(`_member`, where builds and certificates start), or one operator step on
the first member of a recurrence check.  One substitution puts the nodes in,
for both tree kinds: `realize` runs on integers over the tree's node table
(`TensionTree.integer_nodes`), keyed by (node basis function, t-exponent)
with every log power in one product, and never asks what a node is.  A
polynomial tree's build is its realization on the algebra's basis
(`_concrete`) as a MixedExpr; a radial tree's stays on states and converts
to the formal sum `NodeSymbolExpr`, each state named by its multi-index.
Phi raises Resonance at the least alpha, in lexicographic order (the order
of `TensionTree.nodes`), of any state with 2 Lambda = n.

Certification never trusts the construction, and both tree kinds run on the
one kernel `laplacian.tau_form`.  `verify` iterates it exactly on the
concrete function, testing each iterate for zero by its empty term map and
converting only the two residuals the certificate keeps, and reports the
least vanishing order; it is the independent check on the state
construction.  `verify_formal` iterates it on the tree's basis, whose images
are the tree rule tau(h_S) = sum_k h_(S,k) t^(2 lambda_k), and decides each
iterate by whether its realization (`realize`) has a term.
`recurrence_check` tests the two-step iteration identities the families
satisfy on states: one integer sum of tau(f_p), f_(p-1) and f_(p-2) on the
tree's basis.  The tree rule holds by construction, so a sum that vanishes
state by state proves the identity; only a sum that does not is realized.
`certify_family` certifies a tree's member with no public value between
assembly and certificate: a polynomial tree's realization, re-keyed once
into the algebra's basis, runs the loop of `verify`, a radial tree's form
the loop of `verify_formal`, and only the two residuals are converted.
Every order p is checked against the budget `_P_BUDGET` before a row is made
or the operator applied.  Basis ids are cleared only at the entry of a
public call (`_tables`), so a form never outlives the call that made it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm
from typing import Callable, NamedTuple, Union

from .algebra import AlgebraSpec, VarIndex
from .errors import BudgetExceeded, Resonance, ZeroCombination
from .expr import MixedExpr
from .laplacian import (
    Basis, Form, Tables, _expr_terms, _factor, _join, _pack_form, _widened, _width,
    bound_bases, tables_of, tau_form, to_expr, to_form,
)
from .poly import _LATEX, Monomial, Sparse, _label, _Style
from .scalar import _acc
from .tension import MultiIndex, TensionTree


# --- branch rows, per state ---

class _Rows:
    """The p-independent parts of the branch coefficients of one tree and
    family, summed per state, extended in place as p grows.

    Along alpha = (parent, k), with Lambda = Lambda_parent + lambda_k,
    d = 2 Lambda -+ n, a = 1/d and m = -a / (2 Lambda), the row of alpha is

        u_alpha[0] = m u_parent[0],   u_alpha[j] = m u_parent[j] + a u_alpha[j-1],

    from u_() = (1, 0, 0, ...), so u_alpha[j] is (prod_k -1/(2 Lambda^k d_k))
    times h_j(1/d_1, ..., 1/d_i), h_j the complete homogeneous symmetric
    polynomial, and the coefficient of order p is

        sum_{j<p} (-2)^j (p-1)...(p-j) u_alpha[j] t^exponent log(t)^(p-1-j)
          = sum_{j<p} (-2)^j (p-1)! u_alpha[j] t^exponent log(t)^(p-1-j) / (p-1-j)!.

    The recurrence is linear and a, m depend only on Lambda, so the sum U_S
    of the rows of a state's multi-indices obeys it over the state's in-edges:

        U_S[0] = m sum U_S'[0],   U_S[j] = m sum U_S'[j] + a U_S[j-1],

    each sum over the edges (S', k) -> S.  Every entry is a reduced pair of
    integers (numerator, positive denominator), and each state's t-exponent
    is an integer over the tree's scale, so the rows hold no id and stay
    valid for the life of the tree.
    """

    __slots__ = ("resonant", "exponents", "steps", "u", "weighted")

    def __init__(
        self,
        resonant: MultiIndex | None,  # phi only: the least alpha with 2 Lambda = n
        # of t per state over the tree's scale: 2 Lambda (phi) or 2 Lambda + n (psi)
        exponents: list[int],
        steps: list[tuple[int, int, int, int] | None],  # per state (a, m) as two pairs
        u: list[list[tuple[int, int]]],
    ) -> None:
        self.resonant, self.exponents, self.steps, self.u = resonant, exponents, steps, u
        self.weighted: dict[int, _Coefficients] = {}  # see `_coefficients`


def _rows(basis: Basis, tree: TensionTree, p: int, family: str) -> _Rows:
    """The rows of `tree` for `family` to length at least p, kept in
    `tree.rows`; Resonance, naming the least resonant alpha in lexicographic
    order (the order of `TensionTree.nodes`), where phi is resonant at some
    state (2 Lambda = n)."""
    rows = tree.rows.get(family)
    if rows is None:
        rows = tree.rows[family] = _new_rows(basis, tree, family)
    if rows.resonant is not None:
        raise Resonance(rows.resonant, len(rows.resonant))
    u, states = rows.u, tree.states
    if len(u[-1]) >= p:  # every row past the seed's has one length
        return rows
    u[0].extend([(0, 1)] * (p - len(u[0])))
    for s in range(1, len(states)):
        an, ad, mn, md = rows.steps[s]
        parents = [u[q] for q in states[s].parents]
        row = u[s]
        for j in range(len(row), p):
            sn, sd = 0, 1  # the sum over the in-edges
            for parent in parents:
                n, d = parent[j]
                if n:
                    g = gcd(sd, d)
                    sn, sd = sn * (d // g) + n * (sd // g), sd // g * d
            num, den = mn * sn, md * sd
            if j and row[j - 1][0]:
                pn, pd = row[j - 1]
                num, den = num * ad * pd + an * pn * den, den * ad * pd
            g = gcd(num, den)
            row.append((num // g, den // g))
    return rows


def _new_rows(basis: Basis, tree: TensionTree, family: str) -> _Rows:
    """Empty rows past the seed's, with each state's exponent and steps,
    worked out on integers over the unit q of the tree's basis, its scale:
    with l = 2 Lambda q and n q the algebra's (`Basis.nq`), the exponent is
    l for phi and l + n q for psi, d = 2 Lambda -+ n = (l -+ n q) / q, a =
    1/d and m = -a / (2 Lambda) = -q^2 / (l (l -+ n q)).  No id is
    interned and no image made: a build needs neither."""
    sign = -1 if family == "phi" else 1
    exponents: list[int] = []
    steps: list[tuple[int, int, int, int] | None] = []
    resonant = []
    q, nq = basis.q, basis.nq
    for state in tree.states:
        lam2 = 2 * state.lam
        dn = lam2 + sign * nq
        exponents.append(lam2 if family == "phi" else dn)
        if not lam2 or not dn:
            steps.append(None)
            if lam2:
                resonant.append(state.least)
            continue
        steps.append(_pair(q, dn) + _pair(-q * q, lam2 * dn))
    u = [[(1, 1)]] + [[] for _ in tree.states[1:]]
    return _Rows(min(resonant, default=None), exponents, steps, u)


def _pair(num: int, den: int) -> tuple[int, int]:
    """num / den as a reduced pair with a positive denominator."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _weights(p: int) -> list[int]:
    """(-2)^j (p-1)! for j < p: the weight (-2)^j (p-1)...(p-j) of
    log(t)^(p-1-j) times (p-1-j)!, its weight on log(t)^(p-1-j) / (p-1-j)!."""
    out = [factorial(p - 1)]
    for _ in range(1, p):
        out.append(out[-1] * -2)
    return out


# --- node-symbol expressions (formal mode for radial trees) ---

class NodeSymbolExpr(Sparse):
    """Linear combination of abstract node symbols with t-only coefficients:
    a sum keyed by multi-index, with MixedExpr coefficients.

    The empty multi-index denotes the seed itself.  It is the public value
    of a radial tree's build and of its certificate residuals, whose nodes
    are not polynomials; the work runs on the integer form keyed by tree
    state (`_symbol_form`, `_symbols`).
    """

    __slots__ = ()
    _order = staticmethod(lambda alpha: (len(alpha), alpha))  # by depth, then lexicographic

    def _write(self, style: _Style, namer: Callable[[VarIndex], str]) -> str:
        return " + ".join(
            style.symbol.format(_label(style, alpha), coeff._write(style, namer))
            for alpha, coeff in self.sorted_terms()
        ) or "0"

    def latex(self, namer: Callable[[VarIndex], str] | None = None) -> str:
        return self._write(_LATEX, namer or _LATEX.var)


def _symbol_form(
    tables: Tables, tree: TensionTree, e: NodeSymbolExpr, ahead: int
) -> tuple[Basis, Form]:
    """e's form on the tree's basis (`_states_basis`, `laplacian._pack_form`),
    packed once with room for `ahead` iterates and the node table each is
    realized on (`realize`): each multi-index goes to its state, those the
    tree lacks (zero nodes) are dropped, and the t-only coefficients of one
    state are summed."""
    acc: dict[tuple, Fraction] = {}
    for alpha, coeff in e.terms.items():
        s = tree.state_of(alpha)
        if s is None:
            continue
        for (mono, mu, k), c in coeff.terms.items():
            if mono.exps:
                raise ValueError("node-symbol coefficients must be t-only")
            _acc(acc, (s, mu, k), c)
    # each key is its state; a zero node's table has norm 0 (see `_member`)
    return _pack_form(
        acc, tree.scale, lambda q: _states_basis(tables, tree, q),
        range(len(tree.states)).__getitem__, ahead, max(tree._node_norm, 1),
    )


def _symbols(tree: TensionTree, basis: Basis, form: Form) -> NodeSymbolExpr:
    """The node-symbol sum of a form on the tree's basis, each state named
    by its least multi-index."""
    one, keys, states = Monomial.one(), basis.keys, tree.states
    least = {i: states[keys[i][0]].least for i in form[3]}
    out: dict[MultiIndex, dict] = {}
    for (alpha, exponent, k), c in _expr_terms(form, least, basis.exponents).items():
        out.setdefault(alpha, {})[(one, exponent, k)] = c
    return NodeSymbolExpr._wrap({alpha: MixedExpr._wrap(c) for alpha, c in out.items()})


def _states_basis(tables: Tables, tree: TensionTree, q: int) -> Basis:
    """The basis of unit q over the tree's states, under the tree rule
    (`TensionTree.images`), kept on the tree."""
    found = tree.bases.get(q)
    if found is None:
        found = tree.bases[q] = Basis(tables, q, tree.images)
    return found


def _tables(spec: AlgebraSpec, tree: TensionTree | None = None) -> Tables:
    """The tables of `spec` at the entry of a public call, their fields wide
    enough for the monomials of `tree`, their memos and the bases of `tree`
    bounded."""
    tables = tables_of(spec)
    if tree is not None:
        tables.admit(tree.weight)
        bound_bases(tree.bases)
    tables.bound_images()
    return tables


# --- assembly ---

Built = Union[MixedExpr, NodeSymbolExpr]

# The highest order a build, a certificate or a recurrence check may ask for:
# rows grow with p and an iterate need never vanish (t^(1/2)), so p = 10^10
# would run for ever.
_P_BUDGET = 1024


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > _P_BUDGET:
        raise BudgetExceeded(f"p = {p} passes the order budget {_P_BUDGET}")


def build_phi(spec: AlgebraSpec, tree: TensionTree, p: int) -> Built:
    """Assemble the log-family function of order p from a finite tree
    (`build`)."""
    return build(spec, tree, p, "phi")


def build_psi(spec: AlgebraSpec, tree: TensionTree, p: int) -> Built:
    """Assemble the t^n-family function of order p; no side condition."""
    return build(spec, tree, p, "psi")


def build(
    spec: AlgebraSpec, tree: TensionTree, p: int, kind: str = "phi",
    a: Fraction = 1, b: Fraction = 1,
) -> Built:
    """Assemble the family member `kind` of order p from a finite tree:
    phi, psi, or the combination a*phi + b*psi ("combo").

    Polynomial trees give a concrete MixedExpr, with the nodes substituted
    (`realize`); radial trees give the formal node-symbol sum (their nodes
    are not polynomial).  Raises Resonance if phi is asked for, alone or in
    a combination, and a branch with a nonzero node violates the side
    condition, and ZeroCombination for a = b = 0.
    """
    basis = _states_basis(_tables(spec, tree), tree, tree.scale)
    form = _member(basis, tree, p, kind, a, b)
    if tree.kind == "radial":
        return _symbols(tree, basis, form)
    return to_expr(*_concrete(basis.tables, tree, realize(tree, basis, form)))


def _member(
    basis: Basis, tree: TensionTree, p: int, kind: str, a: Fraction = 1, b: Fraction = 1
) -> Form:
    """The member `kind` of order p on the tree's basis at its scale
    (`_states_basis`), where every build and certificate starts: phi, psi
    or a*phi + b*psi, the state rows times their weights (`_coefficients`)
    summed on integers (`_summed`) with room for the node table
    (`realize`).  Phi's rows come first, so Resonance comes before
    ZeroCombination."""
    _check_p(p)
    if kind in ("phi", "psi"):
        parts = [(*_coefficients(basis, tree, p, kind), 1, 1)]
    elif kind == "combo":
        a, b = Fraction(a), Fraction(b)
        parts = [(*_coefficients(basis, tree, p, "phi"), a.numerator, a.denominator)]
        if not (a or b):
            raise ZeroCombination("the zero combination is not a p-harmonic candidate")
        parts.append((*_coefficients(basis, tree, p, "psi"), b.numerator, b.denominator))
    else:
        raise ValueError(f"unknown family {kind!r}: phi, psi or combo")
    # a zero node's table is empty, of norm 0, which would leave the slots a
    # width of 1 bit; the codec splits only widths of 2 or more
    return _summed(basis, parts, max(tree._node_norm, 1))


# The coefficients of a family member of order p: (W, bound, numerators),
# numerators[S] the slots of state S over W, w_j U_S[j] for log(t)^(p-1-j) /
# (p-1-j)! in slot p - 1 - j, from log power 0 up, w_j = `_weights(p)[j]`,
# and bound the largest of their absolute values.
_Coefficients = tuple[int, int, list[list[int]]]

# How many orders' weighted rows a tree keeps per family: a recurrence check
# at p reads p, p - 1 and p - 2, the builds before it p.
_WEIGHTED_ORDERS = 3


def _coefficients(
    basis: Basis, tree: TensionTree, p: int, family: str
) -> tuple[_Rows, _Coefficients]:
    """The rows of the family (`_rows`) and the coefficients of order p of
    every state, their rows and weights over their common denominator W,
    kept for the last `_WEIGHTED_ORDERS` orders asked for."""
    rows = _rows(basis, tree, p, family)
    weighted = rows.weighted.get(p)
    if weighted is None:
        w = lcm(*(d for row in rows.u for _, d in row[:p]))
        weights = _weights(p)
        numerators = [
            [n * (w // d) * weights[j] for j, (n, d) in enumerate(row[:p])][::-1] for row in rows.u
        ]
        bound = max(map(abs, chain.from_iterable(numerators)))
        weighted = rows.weighted[p] = w, bound, numerators
        if len(rows.weighted) > _WEIGHTED_ORDERS:
            del rows.weighted[next(iter(rows.weighted))]
    return rows, weighted


# A part of a sum: the rows of a family and the coefficients of one order
# (`_coefficients`), then the numerator and denominator of its factor c.
_Part = tuple[_Rows, _Coefficients, int, int]


def _summed(basis: Basis, parts: list[_Part], headroom: int, kernel: bool = False) -> Form:
    """The sum of c f over the parts on the tree's basis, f the member of a
    part's coefficients keyed by the id of (state, its exponent), or, with
    `kernel`, tau(f) for the first part (`tau_form`).  The sum is over the
    lcm of each f's denominator times its c's, w s for tau(f); each part's
    slots are multiplied by that lcm over its own, so the sum of |that
    multiple| times the part's bound bounds the sum's slots, tau(f)'s bound
    taken as f's times `headroom`, the most `tau_form` multiplies it by.
    Each state's row is joined once, at the least width that holds that
    bound (times `headroom` for the step after a sum with no kernel), and
    the ints are added per id, zero sums dropped: nothing is repacked."""
    sizes, common = [], 1
    for _, (w, part_bound, _), c_num, c_den in parts:
        if kernel and not sizes:
            w, part_bound = w * basis.s, part_bound * headroom
        sizes.append((w * c_den, part_bound, c_num))
        common = lcm(common, w * c_den)
    scales, bound = [], 0
    for d, part_bound, c_num in sizes:
        scales.append(c_num * (common // d))
        bound += abs(scales[-1]) * part_bound
    width = _width(bound if kernel else bound * headroom)
    intern = basis.intern
    total: dict[int, int] = {}
    for (rows, (w, part_bound, numerators), _, _), scale in zip(parts, scales):
        exponents = rows.exponents
        terms = {}
        for s, row in enumerate(numerators):
            v = _join(row, width)
            if v:
                terms[intern(s, exponents[s])] = v
        if kernel:  # the first part only
            terms = tau_form(basis, (w, width, part_bound, terms))[3]
            kernel = False
        if not total and scale == 1:  # a lone member: its ints are the sum's
            total = terms
            continue
        get = total.get
        for i, v in terms.items():
            total[i] = get(i, 0) + v * scale
    if 0 in total.values():
        total = {i: v for i, v in total.items() if v}
    return common, width, bound, total


# --- certification ---

class HarmonicCertificate(NamedTuple):
    """Outcome of exact operator iteration on a candidate function.

    verified_order is the least q with tau^q = 0, or None when no q <= p
    vanishes ("exceeds p").  proper means exactly order p: tau^p = 0 and
    tau^(p-1) != 0.
    """

    kind: str
    p: int
    seed: str
    verified_order: int | None
    proper: bool
    residual_pminus1: Built
    residual_p: Built

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "seed": self.seed,
            "verified_order": (
                self.verified_order if self.verified_order is not None else "exceeds p"
            ),
            "proper": self.proper,
            "residual_pminus1_nonzero": not self.residual_pminus1.is_zero(),
        }


def _certify(
    basis: Basis, tree: TensionTree | None, kind: str, p: int, seed: str, form: Form
) -> HarmonicCertificate:
    """Iterate the kernel `laplacian.tau_form` up to p times from a form on
    `basis`, stopping at the first zero iterate; only the last two iterates
    are held, and only the two residuals become public values.

    A concrete form (`tree` None) is on a basis over packed monomials.  A
    formal form is on the basis over the states of `tree` (`_states_basis`),
    and is zero when its realization (`realize`) is.  Every formal iterate
    is the exact image of the realized function, because the tree satisfies
    tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k) by construction; so the
    realized test decides both tau^p = 0 and tau^(p-1) != 0 without any
    independence assumption on the nodes.
    """
    _check_p(p)

    def realized(form: Form) -> Form:
        return form if tree is None or realize(tree, basis, form)[3] else (1, 1, 0, {})

    def public(form: Form) -> Built:
        return to_expr(basis, form) if tree is None else _symbols(tree, basis, form)

    previous = current = realized(form)
    order = 0
    while order < p and current[3]:
        previous, current = current, realized(tau_form(basis, current, p - order))
        order += 1
    # only the last iterate can be zero, and every power past it is zero too
    verified_order = None if current[3] else order
    return HarmonicCertificate(
        kind=kind,
        p=p,
        seed=seed,
        verified_order=verified_order,
        proper=verified_order == p,
        residual_pminus1=public(previous if order == p else current),
        residual_p=public(current),
    )


def verify(
    spec: AlgebraSpec, e: MixedExpr, p: int, kind: str = "expression", seed: str = ""
) -> HarmonicCertificate:
    """Apply the operator up to p times with exact zero tests, iterating on
    e's integer form (`laplacian.tau_form`)."""
    _check_p(p)  # before the form is sized for p iterates
    basis, form = to_form(_tables(spec), e, p)
    return _certify(basis, None, kind, p, seed, form)


def realize(tree: TensionTree, basis: Basis, form: Form) -> Form:
    """Substitute the tree's nodes for the states of a form on the tree's
    basis: sum_S c_S(t) * node_S on integers over the node table, keyed by
    (node basis index, t-exponent), every log power in one product, after
    the slot bound times the table's (`TensionTree._node_norm`) is checked
    (`laplacian._widened`).  The node basis functions are linearly independent,
    so the form has no terms exactly when the function is zero."""
    norm = tree._node_norm
    w, width, bound, terms = form
    if (bound * norm).bit_length() >= width:
        w, width, bound, terms = _widened(form, norm)
    d, _, nodes = tree.integer_nodes
    keys = basis.keys
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for i, u in terms.items():
        s, e = keys[i]
        for f, c in nodes[s]:
            key = (f, e)
            out[key] = get(key, 0) + c * u
    if 0 in out.values():
        out = {key: v for key, v in out.items() if v}
    return d * w, width, bound * norm, out


def _concrete(tables: Tables, tree: TensionTree, realized: Form) -> tuple[Basis, Form]:
    """A polynomial tree's realization on the tables' basis at its scale,
    through the tree's node monomials packed at the tables' width
    (`TensionTree.node_keys`): one lookup per term."""
    basis = tables.basis(tree.scale)
    find = basis.ids.get
    keys = tree.node_keys.get(tables.width)
    if keys is None:
        keys = tree.node_keys[tables.width] = list(map(tables.pack, tree.integer_nodes[1]))
    d, width, bound, terms = realized
    out: dict[int, int] = {}
    for (f, e), v in terms.items():
        key = (keys[f], e)
        i = find(key)
        out[basis.intern(*key) if i is None else i] = v
    return basis, (d, width, bound, out)


def verify_formal(
    spec: AlgebraSpec,
    e: NodeSymbolExpr,
    tree: TensionTree,
    p: int,
    kind: str = "expression",
    seed: str = "",
) -> HarmonicCertificate:
    """Certify in node-symbol mode: iterate the kernel on states under the
    tree's images and test each iterate for zero on its realization
    (`_certify`), from e's form packed once wide enough for the p iterates
    and their realizations (`_symbol_form`).  Symbols of e that the tree
    lacks (zero nodes) are dropped, those of one state are summed, and the
    residuals name each state by its least multi-index."""
    _check_p(p)  # before the form is sized for p iterates
    basis, form = _symbol_form(_tables(spec, tree), tree, e, p)
    return _certify(basis, tree, kind, p, seed, form)


def certify_family(
    spec: AlgebraSpec, tree: TensionTree, p: int, family: str, seed: str = "",
    a: Fraction = 1, b: Fraction = 1,
) -> HarmonicCertificate:
    """Certify the member `build` makes from its integer form (`_member`),
    with no public value in between: a radial tree's form is iterated as
    `verify_formal` iterates, a polynomial tree's realization, re-keyed once
    into the tables' basis (`_concrete`), as `verify` iterates."""
    basis = _states_basis(_tables(spec, tree), tree, tree.scale)
    form = _member(basis, tree, p, family, a, b)
    if tree.kind == "radial":
        return _certify(basis, tree, family, p, seed, form)
    concrete, form = _concrete(basis.tables, tree, realize(tree, basis, form))
    return _certify(concrete, None, family, p, seed, form)


def recurrence_check(spec: AlgebraSpec, tree: TensionTree, p: int) -> bool:
    """Exact two-step iteration identities for both families:

        tau(phi_p) = -n (p-1) phi_{p-1} + (p-1)(p-2) phi_{p-2}
        tau(psi_p) = +n (p-1) psi_{p-1} + (p-1)(p-2) psi_{p-2}

    For p = 2 the two-step term carries coefficient zero and is dropped; for
    p = 1 the identities reduce to tau = 0.  A resonant tree skips the phi
    side (psi is always checked).  Both tree kinds are checked on states, the
    members keyed by state and tau applied under the state images
    (`TensionTree.images`), as `_recurrence_holds` describes.
    """
    _check_p(p)
    basis = _states_basis(_tables(spec, tree), tree, tree.scale)
    ok = True
    for family, sign in (("phi", -1), ("psi", 1)):
        try:
            holds = _recurrence_holds(basis, tree, p, family, sign)
        except Resonance:
            if family == "phi":
                continue
            raise
        ok = ok and holds
    return ok


def _recurrence_holds(
    basis: Basis, tree: TensionTree, p: int, family: str, sign: int
) -> bool:
    """The identity of one family: tau(f_p) minus the scaled lower members,
    summed on integers on the tree's basis (`_summed`, the first member
    through the kernel), with room for `laplacian._factor` over every state
    at its exponent, so neither `tau_form` nor the sum repacks a member.
    The tree rule holds by construction, so a sum that vanishes state by
    state is a proof; one that does not is decided on its realization
    (`realize`), since distinct states may carry dependent nodes."""
    tables = basis.tables
    scaled = [(p, 1, 1)]
    if p >= 2:  # n = tables.n / scale
        scaled.append((p - 1, -sign * (p - 1) * tables.n, tables.scale))
    if p >= 3:
        scaled.append((p - 2, -(p - 1) * (p - 2), 1))
    parts = [(*_coefficients(basis, tree, order, family), *c) for order, *c in scaled]
    exponents = parts[0][0].exponents
    factor = _factor(basis, [basis.intern(s, e) for s, e in enumerate(exponents)])
    residual = _summed(basis, parts, factor, kernel=True)
    return not residual[3] or not realize(tree, basis, residual)[3]

