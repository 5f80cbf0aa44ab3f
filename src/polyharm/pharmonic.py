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
coefficient (`_coefficients`), and the family member is sum_S node_S times
the coefficient of S.  For a polynomial tree the products with the node
monomials run on integers straight into the operator's integer form
(`laplacian.Form`, `_concrete_form`) and `build_phi`/`build_psi` convert it
to a MixedExpr once.  A radial tree's nodes are not polynomial, so its build
stays keyed by state (`_state_form`) and converts to the formal sum
`NodeSymbolExpr`, a `poly.Sparse` like MixedExpr, each state named by its
multi-index.  Phi raises Resonance at the least alpha, in lexicographic
order (the order of `TensionTree.nodes`), of any state with 2 Lambda = n.

Certification never trusts the construction, and both tree kinds run on the
one kernel `laplacian.tau_form`.  `verify` iterates it exactly on the
concrete function, testing each iterate for zero by its empty term map and
converting only the two residuals the certificate keeps, and reports the
least vanishing order; it is the independent check on the state
construction.  `verify_formal` iterates it on a form keyed by state under
the tree's state images (the tree rule tau(h_S) = sum_k h_(S,k)
t^(2 lambda_k)) and decides each iterate by substituting the actual nodes
and testing the realized function for zero in canonical form (`realize`).
`recurrence_check` tests the two-step iteration identities the families
satisfy on states: one integer sum over the state-keyed forms of tau(f_p),
f_(p-1) and f_(p-2), with tau under the state images.  The tree rule holds
by construction, so a sum that vanishes state by state proves the
identity; only a sum that does not is realized.  `certify` routes by
`tree.kind`.  Every order p is checked against the budget `_P_BUDGET`
before a row is made or the operator applied.  A form's ids are valid only
inside the public call that made it, since `Tables.bound_images` runs at
the entry of each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Union

from .algebra import AlgebraSpec, VarIndex
from .errors import BudgetExceeded, KindMismatch, Resonance, ZeroCombination
from .expr import MixedExpr
from .laplacian import Form, Tables, reduced, tables_of, tau_form, to_expr, to_form
from .poly import Monomial, Polynomial, Sparse
from .scalar import _acc
from .tension import MultiIndex, Node, TensionTree


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

        sum_{j<p} (-2)^j (p-1)...(p-j) u_alpha[j] t^exponent log(t)^(p-1-j).

    The recurrence is linear and a, m depend only on Lambda, so the sum U_S
    of the rows of a state's multi-indices obeys it over the state's in-edges:

        U_S[0] = m sum U_S'[0],   U_S[j] = m sum U_S'[j] + a U_S[j-1],

    each sum over the edges (S', k) -> S.  Every entry is a reduced pair of
    integers (numerator, positive denominator).
    """

    __slots__ = ("resonant", "exponents", "steps", "u", "stamp", "exponent_ids", "weighted")

    def __init__(
        self,
        resonant: MultiIndex | None,  # phi only: the least alpha with 2 Lambda = n
        exponents: list[Fraction],  # of t per state: 2 Lambda (phi) or 2 Lambda + n (psi)
        steps: list[tuple[int, int, int, int] | None],  # per state (a, m) as two pairs
        u: list[list[tuple[int, int]]],
    ) -> None:
        self.resonant, self.exponents, self.steps, self.u = resonant, exponents, steps, u
        # the tables and clear count `exponent_ids` are valid for
        self.stamp: tuple | None = None
        self.exponent_ids: list[int] = []
        self.weighted: dict[int, tuple[int, list]] = {}  # see `_coefficients`


def _rows(spec: AlgebraSpec, tree: TensionTree, p: int, family: str) -> _Rows:
    """The rows of `tree` for `family` to length at least p, kept in
    `tree.rows`; Resonance, naming the least resonant alpha in lexicographic
    order (the order of `TensionTree.nodes`), where phi is resonant at some
    state (2 Lambda = n)."""
    rows = tree.rows.get(family)
    if rows is None:
        rows = tree.rows[family] = _new_rows(spec, tree, family)
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


def _new_rows(spec: AlgebraSpec, tree: TensionTree, family: str) -> _Rows:
    """Empty rows past the seed's, with each state's exponent and steps,
    worked out on integers: d = 2 Lambda -+ n, a = 1/d, m = -a / (2 Lambda)."""
    n = spec.homogeneous_dim
    sign = -1 if family == "phi" else 1
    exponents: list[Fraction] = []
    steps: list[tuple[int, int, int, int] | None] = []
    resonant = []
    ld = tree.scale
    for state in tree.states:
        ln = state.lam
        dn, dd = 2 * ln * n.denominator + sign * n.numerator * ld, ld * n.denominator
        exponents.append(Fraction(2 * ln, ld) if family == "phi" else Fraction(dn, dd))
        if not ln or not dn:
            steps.append(None)
            if ln:
                resonant.append(state.least)
            continue
        steps.append(_pair(dd, dn) + _pair(-dd * ld, 2 * ln * dn))
    u = [[(1, 1)]] + [[] for _ in tree.states[1:]]
    return _Rows(min(resonant, default=None), exponents, steps, u)


def _pair(num: int, den: int) -> tuple[int, int]:
    """num / den as a reduced pair with a positive denominator."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _exponent_ids(tables: Tables, rows: _Rows) -> list[int]:
    """The exponent id of each state's t-power, kept with the rows until
    the tables clear their ids (`Tables.clears`)."""
    stamp = (tables, tables.clears)
    if rows.stamp != stamp:
        rows.exponent_ids = [tables.exponent_id(mu) for mu in rows.exponents]
        rows.stamp = stamp
    return rows.exponent_ids


def _weights(p: int) -> list[int]:
    """(-2)^j (p-1)(p-2)...(p-j) for j < p."""
    out = [1]
    for j in range(1, p):
        out.append(out[-1] * -2 * (p - j))
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

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (len(a), a)):
            label = "h" if not alpha else "h^%d_(%s)" % (
                len(alpha),
                ",".join(map(str, alpha)),
            )
            parts.append(f"[{label}]*({self.terms[alpha].render(namer)})")
        return " + ".join(parts)

    def latex(self, namer=None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (len(a), a)):
            if alpha:
                label = ",".join(map(str, alpha))
                symbol = rf"h^{{{len(alpha)}}}_{{({label})}}"
            else:
                symbol = "h"
            parts.append(rf"{symbol} \left({self.terms[alpha].latex(namer)}\right)")
        return " + ".join(parts)


def _symbol_form(tables: Tables, tree: TensionTree, e: NodeSymbolExpr) -> Form:
    """The integer form of e keyed by (state, exponent id, log power): each
    multi-index goes to its state, and those the tree lacks (zero nodes) are
    dropped; the coefficients must be t-only."""
    acc: dict[tuple, Fraction] = {}
    for alpha, coeff in e.terms.items():
        s = tree.state_of(alpha)
        if s is None:
            continue
        for (mono, mu, k), c in coeff.terms.items():
            if mono.exps:
                raise ValueError("node-symbol coefficients must be t-only")
            _acc(acc, (s, mu, k), c)
    d = lcm(*(c.denominator for c in acc.values()))
    exponent_id = tables.exponent_id
    return d, {
        (s, exponent_id(mu), k): c.numerator * (d // c.denominator)
        for (s, mu, k), c in acc.items()
    }


def _symbols(tables: Tables, tree: TensionTree, form: Form) -> NodeSymbolExpr:
    """The node-symbol sum of a form keyed by state, each state named by its
    least multi-index (a radial tree's states are its nodes)."""
    d, terms = form
    one, exponents, states = Monomial.one(), tables.exponents, tree.states
    out: dict[MultiIndex, dict] = {}
    for (s, e, k), v in terms.items():
        out.setdefault(states[s].least, {})[(one, exponents[e], k)] = Fraction(v, d)
    return NodeSymbolExpr._wrap({alpha: MixedExpr._wrap(c) for alpha, c in out.items()})


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
    """Assemble the log-family function of order p from a finite tree.

    Polynomial trees give a concrete MixedExpr; radial trees give the formal
    node-symbol form (their nodes are not polynomial).  Raises Resonance if a
    branch with a nonzero node violates the side condition.
    """
    return _build(spec, tree, p, "phi")


def build_psi(spec: AlgebraSpec, tree: TensionTree, p: int) -> Built:
    """Assemble the t^n-family function of order p; no side condition."""
    return _build(spec, tree, p, "psi")


def _build(spec: AlgebraSpec, tree: TensionTree, p: int, family: str) -> Built:
    """The state rows times their weights (`_coefficients`), times the nodes:
    a MixedExpr for a polynomial tree (`_concrete_form`), the formal
    node-symbol sum for a radial one."""
    _check_p(p)
    tables = tables_of(spec)
    tables.bound_images()
    coefficients = _coefficients(spec, tables, tree, p, family)
    if tree.kind == "radial":
        return _symbols(tables, tree, _state_form(coefficients))
    return to_expr(tables, _concrete_form(tables, tree, coefficients))


# A family member's coefficients: (W, exponent id per state, per state
# [(log power, numerator over W), ...]); the coefficient of state S is
# sum_j w_j U_S[j] t^exponent log(t)^(p-1-j), w_j = `_weights(p)[j]`.
_Coefficients = tuple[int, list[int], list[list[tuple[int, int]]]]

# How many orders' weighted rows a tree keeps per family: a recurrence check
# at p reads p, p - 1 and p - 2, the builds before it p.
_WEIGHTED_ORDERS = 3


def _coefficients(
    spec: AlgebraSpec, tables: Tables, tree: TensionTree, p: int, family: str
) -> _Coefficients:
    """The coefficient of order p of every state: its rows (`_rows`) and
    weights over their common denominator W, kept for the last
    `_WEIGHTED_ORDERS` orders asked for."""
    rows = _rows(spec, tree, p, family)
    weighted = rows.weighted.get(p)
    if weighted is None:
        w = lcm(*(d for row in rows.u for _, d in row[:p]))
        weights = _weights(p)
        weighted = rows.weighted[p] = w, [
            [(p - 1 - j, n * (w // d) * weights[j]) for j, (n, d) in enumerate(row[:p]) if n]
            for row in rows.u
        ]
        if len(rows.weighted) > _WEIGHTED_ORDERS:
            del rows.weighted[next(iter(rows.weighted))]
    return weighted[0], _exponent_ids(tables, rows), weighted[1]


def _state_form(coefficients: _Coefficients) -> Form:
    """The family member in integer form keyed by (state, exponent id, log
    power)."""
    w, ids, states = coefficients
    return w, {
        (s, e, k): u for s, (e, scaled) in enumerate(zip(ids, states)) for k, u in scaled
    }


def _concrete_form(tables: Tables, tree: TensionTree, coefficients: _Coefficients) -> Form:
    """The family member of a polynomial tree in integer form: node
    coefficients over their common denominator D (`TensionTree.integer_nodes`)
    times the state coefficients over W, summed on integers keyed by
    (monomial id, exponent id, log power) and reduced once over D * W."""
    w, exponent_ids, states = coefficients
    d, nodes = tree.integer_nodes
    ids = tables.monomial_ids
    out: dict[tuple, int] = {}
    get = out.get
    for terms, e, scaled in zip(nodes, exponent_ids, states):
        for mono, c in terms:
            m = ids.get(mono)
            if m is None:
                m = tables.monomial_id(mono)
            for k, u in scaled:
                key = (m, e, k)
                out[key] = get(key, 0) + c * u
    return reduced(d * w, out)


def combine(a: Fraction, b: Fraction, phi: Built, psi: Built) -> Built:
    """a*phi + b*psi; (a, b) = (0, 0) is rejected."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ZeroCombination("the zero combination is not a p-harmonic candidate")
    if type(phi) is not type(psi):
        raise KindMismatch("cannot combine a concrete and a formal expression")
    return phi * a + psi * b


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
    kind: str,
    p: int,
    seed: str,
    form: Form,
    step: Callable[[Form], Form],
    built: Callable[[Form], Built],
) -> HarmonicCertificate:
    """Iterate `step` from a form up to p times, stopping at the first zero
    iterate; only the last two iterates are held, and `built` turns the two
    residuals into the certificate's functions."""
    _check_p(p)
    previous = current = form
    q = 0
    while q < p and current[1]:
        previous, current, q = current, step(current), q + 1
    # only the last iterate can be zero, and every power past it is zero too
    verified_order = None if current[1] else q
    return HarmonicCertificate(
        kind=kind,
        p=p,
        seed=seed,
        verified_order=verified_order,
        proper=verified_order == p,
        residual_pminus1=built(previous if q == p else current),
        residual_p=built(current),
    )


def verify(
    spec: AlgebraSpec,
    e: MixedExpr,
    p: int,
    kind: str = "expression",
    seed: str = "",
) -> HarmonicCertificate:
    """Apply the operator up to p times with exact zero tests, iterating on
    e's integer form (`laplacian.tau_form`)."""
    tables = tables_of(spec)
    tables.bound_images()
    return _certify(
        kind, p, seed, to_form(tables, e),
        lambda form: tau_form(tables, form),
        lambda form: to_expr(tables, form),
    )


def _node_terms(node: Node) -> dict:
    """A node as a sparse map from independent x-basis functions to their
    coefficients: monomials for a polynomial node; for a radial node
    H(rho) * G(x^2), the products rho^a log(rho)^b * (monomial of G)."""
    if isinstance(node, Polynomial):
        return node.terms
    g = node.affine.to_polynomial()
    return {
        (a, has_log, mono): c * c_g
        for (a, has_log), c in node.radial.terms.items()
        for mono, c_g in g.terms.items()
    }


def realize(tree: TensionTree, form: Form) -> dict:
    """Substitute the tree's nodes for the symbols of a form keyed by state:
    sum_S c_S(t) * node_S, in canonical sparse form keyed by (x-basis
    function, exponent id, log power) over the form's denominator.  The basis
    functions are linearly independent, so the map is empty exactly when the
    function is zero."""
    out: dict = {}
    states = tree.states
    for (s, e, k), v in form[1].items():
        for basis, c_x in _node_terms(states[s].node).items():
            _acc(out, (basis, e, k), c_x * v)
    return out


def verify_formal(
    spec: AlgebraSpec,
    e: NodeSymbolExpr,
    tree: TensionTree,
    p: int,
    kind: str = "expression",
    seed: str = "",
) -> HarmonicCertificate:
    """Certify in node-symbol mode: iterate the kernel `laplacian.tau_form`
    on states under the tree's images (`TensionTree.images`) and test each iterate
    for zero on its realization (`realize`).  Symbols of e that the tree
    lacks (zero nodes) are dropped, those of one state are summed, and the
    residuals name each state by its least multi-index.

    Every formal iterate is the exact image of the realized function, because
    the tree satisfies tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k) by
    construction; so the realized test decides both tau^p = 0 and
    tau^(p-1) != 0 without any independence assumption on the nodes.
    """
    tables = tables_of(spec)
    tables.bound_images()
    images = tree.images

    def realized(form: Form) -> Form:
        return form if realize(tree, form) else (1, {})

    return _certify(
        kind, p, seed, realized(_symbol_form(tables, tree, e)),
        lambda form: realized(tau_form(tables, form, images)),
        lambda form: _symbols(tables, tree, form),
    )


def certify(
    spec: AlgebraSpec, tree: TensionTree, built: Built, p: int, kind: str, seed: str
) -> HarmonicCertificate:
    """Certify a function built from `tree`: `verify` for a polynomial tree,
    `verify_formal` for a radial one."""
    if tree.kind == "polynomial":
        return verify(spec, built, p, kind=kind, seed=seed)
    return verify_formal(spec, built, tree, p, kind=kind, seed=seed)


def certify_family(
    spec: AlgebraSpec, tree: TensionTree, p: int, family: str, seed: str = ""
) -> HarmonicCertificate:
    """Build one family member and certify it."""
    builder = build_phi if family == "phi" else build_psi
    return certify(spec, tree, builder(spec, tree, p), p, family, seed)


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
    tables = tables_of(spec)
    tables.bound_images()
    images = tree.images
    ok = True
    for family, sign in (("phi", -1), ("psi", 1)):
        try:
            holds = _recurrence_holds(spec, tables, tree, p, family, sign, images)
        except Resonance:
            if family == "phi":
                continue
            raise
        ok = ok and holds
    return ok


def _recurrence_holds(
    spec: AlgebraSpec,
    tables: Tables,
    tree: TensionTree,
    p: int,
    family: str,
    sign: int,
    images: dict,
) -> bool:
    """The identity of one family: tau(f_p) minus the scaled lower members,
    as (form, coefficient numerator, coefficient denominator) parts keyed by
    state and summed on integers (`_combination`).  The tree rule holds by
    construction, so a sum that vanishes state by state is a proof; one that
    does not is decided on its realization (`realize`), since distinct
    states may carry dependent nodes."""
    n = spec.homogeneous_dim

    def member(order: int) -> Form:
        return _state_form(_coefficients(spec, tables, tree, order, family))

    parts = [(tau_form(tables, member(p), images), 1, 1)]
    if p >= 2:
        parts.append((member(p - 1), -sign * (p - 1) * n.numerator, n.denominator))
    if p >= 3:
        parts.append((member(p - 2), -(p - 1) * (p - 2), 1))
    residual = _combination(parts)
    return not residual[1] or not realize(tree, residual)


def _combination(parts: list[tuple[Form, int, int]]) -> Form:
    """The sum of c * f over the parts (f, numerator of c, denominator of c),
    cross-multiplied over the lcm of each form's denominator times its
    coefficient's, with its zero terms dropped."""
    common = lcm(*(form[0] * c_den for form, _, c_den in parts))
    total: dict[tuple, int] = {}
    get = total.get
    for (d, terms), c_num, c_den in parts:
        scale = c_num * (common // (d * c_den))
        for key, v in terms.items():
            total[key] = get(key, 0) + v * scale
    return common, {key: v for key, v in total.items() if v}
