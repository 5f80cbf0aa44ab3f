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

Assembly has two parts.  The p-independent part of each coefficient is a row
u_alpha, computed in one step from its parent's row (`_Row`) and kept in the
algebra's tables (`laplacian.Tables`), one memo per family, bounded by the
same `_MEMO_LIMIT` as the operator's memo; one row serves every p up to its
length and every branch that extends alpha.  The sum over the tree then
runs on integers straight into the operator's integer form
(`laplacian.Form`): node coefficients and rows are scaled to common
denominators and their products accumulated by (x-part, exponent id, log
power).  A polynomial tree's x-parts are monomial ids and
`build_phi`/`build_psi` convert the form to a MixedExpr once.  A radial
tree's nodes are not polynomial, so its x-parts are node symbols (the
multi-indices, each node with coefficient 1) and the build converts to the
formal sum `NodeSymbolExpr`, a `poly.Sparse` like MixedExpr.

Certification never trusts the construction, and both tree kinds run on the
one kernel `laplacian.tau_form`.  `verify` iterates it exactly, testing each
iterate for zero by its empty term map and converting only the two
residuals the certificate keeps, and reports the least vanishing order.
`verify_formal` iterates it on a node-symbol form under the tree's own
images (the tree rule tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k)) and
decides each iterate by substituting the actual nodes and testing the
realized function for zero in canonical form (`realize`).
`recurrence_check` tests the two-step iteration identities the families
satisfy as one integer sum over the forms of tau(f_p), f_(p-1) and
f_(p-2), passing the images of a radial tree to the kernel.  The tree's
kind, not the type of the built function, picks the images: `certify` and
`recurrence_check` read `tree.kind`.  Every order p is checked against the
budget `_P_BUDGET` before a row is made or the operator applied.  A form's
ids are valid only inside the public call that made it, since
`Tables.bound_images` runs at the entry of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Union

from .algebra import AlgebraSpec, VarIndex
from .errors import BudgetExceeded, KindMismatch, Resonance, ZeroCombination
from .expr import MixedExpr
from .laplacian import Form, Tables, reduced, tables_of, tau_form, to_expr, to_form
from .poly import Monomial, Polynomial, Sparse
from .scalar import _acc
from .tension import MultiIndex, Node, TensionTree


# --- branch rows ---

@dataclass(slots=True)
class _Row:
    """The p-independent part of one branch coefficient.

    Along alpha = (parent, k), with Lambda = Lambda_parent + lambda_k,
    d = 2 Lambda -+ n, a = 1/d and m = -a / (2 Lambda):

        u_alpha[0] = m u_parent[0],   u_alpha[j] = m u_parent[j] + a u_alpha[j-1],

    from u_() = (1, 0, 0, ...).  u_alpha[j] is (prod_k -1/(2 Lambda^k d_k)) times
    h_j(1/d_1, ..., 1/d_i), h_j the complete homogeneous symmetric polynomial,
    and the coefficient of order p is

        sum_{j<p} (-2)^j (p-1)...(p-j) u_alpha[j] t^exponent log(t)^(p-1-j).

    A row of length L serves every p <= L; `_row` extends it in place.
    """

    lam: Fraction  # Lambda_alpha
    exponent: Fraction  # of t: 2 Lambda (phi) or 2 Lambda + n (psi)
    a: Fraction
    m: Fraction
    u: list[Fraction]
    # the exponent's id in the algebra's tables, set by `_build_form`; valid
    # because `Tables.bound_images` clears the rows with the ids
    exponent_id: int | None = None


def _row(
    spec: AlgebraSpec, memo: dict[MultiIndex, _Row], alpha: MultiIndex, p: int, family: str
) -> _Row | None:
    """The row of alpha to length at least p, from its parent's row, which
    must already be in the memo to that length; None where phi is resonant
    at alpha itself (2 Lambda_alpha = n)."""
    row = memo.get(alpha)
    if row is None:
        n = spec.homogeneous_dim
        if not alpha:
            exponent = Fraction(0) if family == "phi" else n
            row = _Row(Fraction(0), exponent, Fraction(0), Fraction(0), [Fraction(1)])
        else:
            lam = memo[alpha[:-1]].lam + spec.lam(alpha[-1])
            d = 2 * lam - n if family == "phi" else 2 * lam + n
            if not d:
                return None
            a = 1 / d
            row = _Row(lam, 2 * lam if family == "phi" else d, a, -a / (2 * lam), [])
        memo[alpha] = row
    u = row.u
    if not alpha:
        u.extend([Fraction(0)] * (p - len(u)))
    elif len(u) < p:
        a, m, parent = row.a, row.m, memo[alpha[:-1]].u
        for j in range(len(u), p):
            u.append(m * parent[j] + (a * u[j - 1] if j else 0))
    return row


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
    are not polynomials; the work runs on the integer form keyed by node
    symbol (`_symbol_form`, `_symbols`).
    """

    __slots__ = ()

    @classmethod
    def build(cls, terms: Mapping[MultiIndex, MixedExpr]) -> "NodeSymbolExpr":
        """The sum of `terms`; zero coefficients are dropped."""
        return cls(terms)

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


def _symbol_images(tree: TensionTree) -> dict:
    """The operator's images of the node symbols, in the layout of
    `laplacian.tau_form` over denominator 1: the tree rule
    tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k), with shift id k - 1,
    over the children present (a zero node is absent from the tree)."""
    return {
        alpha: tuple((k - 1, alpha + (k,), 1) for k in tree.children(alpha))
        for alpha in [(), *tree.nodes]
    }


def _symbol_form(tables: Tables, e: NodeSymbolExpr, symbols) -> Form:
    """The integer form of e's terms on `symbols`, keyed by (node symbol,
    exponent id, log power); the coefficients must be t-only."""
    terms = [
        (alpha, key, c)
        for alpha, coeff in e.terms.items()
        if alpha in symbols
        for key, c in coeff.terms.items()
    ]
    if any(mono.exps for _, (mono, _, _), _ in terms):
        raise ValueError("node-symbol coefficients must be t-only")
    d = lcm(*(c.denominator for _, _, c in terms))
    exponent_id = tables.exponent_id
    return d, {
        (alpha, exponent_id(mu), k): c.numerator * (d // c.denominator)
        for alpha, (_, mu, k), c in terms
    }


def _symbols(tables: Tables, form: Form) -> NodeSymbolExpr:
    """The node-symbol sum of a form keyed by node symbol."""
    d, terms = form
    one, exponents = Monomial.one(), tables.exponents
    out: dict[MultiIndex, dict] = {}
    for (alpha, e, k), v in terms.items():
        out.setdefault(alpha, {})[(one, exponents[e], k)] = Fraction(v, d)
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
    """Seed and nodes times their branch coefficients, summed in integer form
    (`_build_form`): a MixedExpr for a polynomial tree, the formal node-symbol
    sum for a radial one."""
    _check_p(p)
    tables = tables_of(spec)
    tables.bound_images()
    form = _build_form(spec, tables, tree, p, family)
    return to_expr(tables, form) if tree.kind == "polynomial" else _symbols(tables, form)


def _rows(
    spec: AlgebraSpec, tables: Tables, branches: list[MultiIndex], p: int, family: str
) -> list[_Row]:
    """The rows of the root and of `branches`, walked in `tree.branches()`
    order, parents before children, so the first resonant phi branch raises."""
    memo = tables.branch_rows(family)
    rows = [_row(spec, memo, (), p, family)]
    for alpha in branches:
        row = _row(spec, memo, alpha, p, family)
        if row is None:
            raise Resonance(alpha, len(alpha))
        rows.append(row)
    return rows


def _build_form(
    spec: AlgebraSpec, tables: Tables, tree: TensionTree, p: int, family: str
) -> Form:
    """The family member of order p in integer form: node coefficients over
    their common denominator D, rows with their weights folded in over theirs
    W, summed on integers keyed by (x-part, exponent id, p - 1 - j) and
    reduced once over D * W.  The x-part is a monomial id for a polynomial
    tree; a radial tree's nodes are its symbols, each with coefficient 1."""
    rows = _rows(spec, tables, tree.branches(), p, family)
    d, nodes = tree.scaled_terms
    w = lcm(*(u.denominator for row in rows for u in row.u[:p]))
    weights = _weights(p)
    ids = tables.monomial_ids
    symbols = tree.kind == "radial"
    out: dict[tuple, int] = {}
    get = out.get
    for terms, row in zip(nodes, rows):
        e = row.exponent_id
        if e is None:
            e = row.exponent_id = tables.exponent_id(row.exponent)
        scaled = [
            (p - 1 - j, u.numerator * (w // u.denominator) * weights[j])
            for j, u in enumerate(row.u[:p])
            if u
        ]
        for mono, c in terms:
            m = mono if symbols else ids.get(mono)
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

@dataclass(frozen=True)
class HarmonicCertificate:
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
    """Substitute the tree's nodes for the symbols of a form keyed by node
    symbol: sum_alpha c_alpha(t) * node_alpha, in canonical sparse form keyed
    by (x-basis function, exponent id, log power) over the form's
    denominator.  The basis functions are linearly independent, so the map
    is empty exactly when the function is zero."""
    out: dict = {}
    for (alpha, e, k), v in form[1].items():
        node = tree.nodes[alpha] if alpha else tree.seed
        for basis, c_x in _node_terms(node).items():
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
    under the tree's images (`_symbol_images`) and test each iterate for zero
    on its realization (`realize`).  Symbols of e that the tree lacks (zero
    nodes) are dropped.

    Every formal iterate is the exact image of the realized function, because
    the tree satisfies tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k) by
    construction; so the realized test decides both tau^p = 0 and
    tau^(p-1) != 0 without any independence assumption on the nodes.
    """
    tables = tables_of(spec)
    tables.bound_images()
    images = _symbol_images(tree)

    def realized(form: Form) -> Form:
        return form if realize(tree, form) else (1, {})

    return _certify(
        kind, p, seed, realized(_symbol_form(tables, e, images)),
        lambda form: realized(tau_form(tables, form, images)),
        lambda form: _symbols(tables, form),
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
    p = 1 the identities reduce to tau = 0.  Branches blocked by Resonance
    skip the phi side (psi is always checked).  Both tree kinds are checked
    on integer forms, a radial tree under its images (`_symbol_images`).
    """
    _check_p(p)
    tables = tables_of(spec)
    tables.bound_images()
    images = None if tree.kind == "polynomial" else _symbol_images(tree)
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
    images: dict | None,
) -> bool:
    """The identity of one family: tau(f_p) minus the scaled lower members,
    as (form, coefficient numerator, coefficient denominator) parts summed
    on integers (`_vanishes`)."""
    n = spec.homogeneous_dim
    parts = [(tau_form(tables, _build_form(spec, tables, tree, p, family), images), 1, 1)]
    if p >= 2:
        lower = _build_form(spec, tables, tree, p - 1, family)
        parts.append((lower, -sign * (p - 1) * n.numerator, n.denominator))
    if p >= 3:
        lower = _build_form(spec, tables, tree, p - 2, family)
        parts.append((lower, -(p - 1) * (p - 2), 1))
    return _vanishes(parts)


def _vanishes(parts: list[tuple[Form, int, int]]) -> bool:
    """Whether the sum of c * f over the parts (f, numerator of c,
    denominator of c) is zero, cross-multiplied over the lcm of each form's
    denominator times its coefficient's."""
    common = lcm(*(form[0] * c_den for form, _, c_den in parts))
    total: dict[tuple, int] = {}
    get = total.get
    for (d, terms), c_num, c_den in parts:
        scale = c_num * (common // (d * c_den))
        for key, v in terms.items():
            total[key] = get(key, 0) + v * scale
    return not any(total.values())
