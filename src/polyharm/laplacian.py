"""The grading vector fields and the Laplace-Beltrami operator.

The operator acts on MixedExpr as

    tau(e) = t^2 e_tt + (1 - n) t e_t
             + sum over frame layers i of t^(2 lambda_i) * (coordinate part),

where the coordinate part is assembled from the structure polynomials
P^{i alpha}_{j beta}: Kronecker deltas for i >= alpha, Bernoulli-weighted sums
of the ad-power polynomials p^{i alpha}_{j beta}(x, r) for i < alpha.

Everything derived from one algebra lives in one `Tables` object, built on
first use and stored on the spec itself (`tables_of`), so it lives as long as
the spec and no lookup hashes the spec: the ad-power rows, the structure
polynomials, the operator compiled once to integer numerators over one image
denominator (`_operator`), the eigenvalues as integers over their scale, the
monomials interned to integer ids, the memo of their images, and one `Basis`
per exponent unit, all bounded together by `_MEMO_LIMIT` per live spec.
Branch rows and the bases over a tree's states belong to one tree, and
`pharmonic` keeps them on the tree.

A function is a sum of terms c x^m t^mu log(t)^k, and

    tau(x^m t^mu log^k t) = log^k t L(x^m t^mu) + k (2 mu - n) x^m t^mu
                            log^(k-1) t + k (k - 1) x^m t^mu log^(k-2) t,

where L(x^m t^mu) = mu (mu - n) x^m t^mu + sum_k t^(mu + 2 lambda_k) (x-part
at layer k) depends only on (m, mu).  The operator moves an exponent only by
2 lambda_k, so a computation has one unit q, each exponent an integer e over
q: a tree's scale for tree forms, and for a MixedExpr the lcm of the scale
and its exponent denominators (`to_form`).  A `Basis` holds one unit and
interns each (x-part, e) to an int id, the x-part a monomial id or a tree
state; per id it keeps L as ((id, numerator), ...) over s = lcm(image
denominator, q^2) (`_basis_image`), the log factor (2 e - n q) s / q and
e / q as a Fraction.  A `Form` is one denominator and, per log power, basis
id to integer numerator, so the one kernel `tau_form` is a sparse integer
matrix-vector product per log power plus the two log-lowering terms, with
one gcd reduction.  A tree's basis takes its state images, the tree rule
tau(h_S) = sum_k h_(S,k) t^(2 lambda_k), in place of the monomial images.
`tau` is the operator on MixedExpr, for the public API only; `tension` and
`pharmonic` work on forms, so Fractions appear only where a polynomial, a
MixedExpr or a node-symbol sum crosses the public API.

The test suite cross-asserts `tau` against an independent frame-sum
realization A(A(e)) + sum X^i_j(X^i_j(e)) - n t e_t built from the
left-invariant fields, and against the same coordinate formula applied to
the whole expression through its partial derivatives: the redundancy is the
only practical defense against index transcription mistakes in six-index
structure constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Mapping, NamedTuple
from .algebra import AlgebraSpec, VarIndex
from .expr import MixedExpr
from .poly import Monomial, Polynomial
from .scalar import _acc


def bernoulli(r: int) -> Fraction:
    """Exact Bernoulli number B_r with the B_1 = +1/2 sign convention."""
    if r < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if r == 1:
        return Fraction(1, 2)
    # B_n = -1/(n+1) sum_{k<n} C(n+1, k) B_k, from B_0 = 1 (B_1 = -1/2 here)
    b = [Fraction(1)]
    for n in range(1, r + 1):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return b[r]


# --- per-algebra tables ---

# Most monomials and basis ids an algebra's tables hold, with their images,
# before the memo is cleared wholesale at the start of a public call, so a
# long-lived process keeps at most this many plus those of one call per live
# algebra; a tree's bases are bounded alike (`bound_bases`).
_MEMO_LIMIT = 4096

# (denominator, {log power: {basis id: numerator}}), with no zero numerator
# and no empty group.  Ids stay valid until their basis is cleared, only at
# the entry of a public call, so a form never outlives the call that made it.
Form = tuple[int, dict[int, dict[int, int]]]

# The x-part of the operator on one monomial: sum over s of t^(2 lambda_(s+1))
# times a polynomial, as ((shift id s, monomial id, numerator), ...) over the
# algebra's one image denominator.
_Image = tuple[tuple[int, int, int], ...]

_AdRows = dict[VarIndex, dict[VarIndex, Polynomial]]


class StructPolyTable(NamedTuple):
    """All P^{i alpha}_{j beta}."""

    spec: AlgebraSpec
    entries: dict[tuple[int, int, int, int], Polynomial]

    def P(self, i: int, j: int, alpha: int, beta: int) -> Polynomial:
        return self.entries.get((i, j, alpha, beta), Polynomial.zero())


class Tables:
    """Everything derived from one algebra; see the module docstring."""

    def __init__(self, spec: AlgebraSpec) -> None:
        self.ad_rows = _ad_rows(spec)
        self.struct = _struct_table(spec, self.ad_rows)
        # shifts[k - 1] is 2 lambda_k and n the homogeneous dimension, both in
        # units of 1 / scale
        self.scale, lams, self.n = spec.integer_eigenvalues
        self.shifts = tuple(2 * lam for lam in lams)
        self.image_denominator, self.operator = _operator(spec, self.struct)
        # monomials interned to ids (id -> monomial, monomial -> id), the
        # image of each id (`_image`) and the basis of each exponent unit;
        # `bound_images` empties all four
        self.monomials: list[Monomial] = []
        self.monomial_ids: dict[Monomial, int] = {}
        self.images: dict[int, _Image] = {}
        self.bases: dict[int, Basis] = {}

    def bound_images(self) -> None:
        """Clear the monomials, images and bases once they hold `_MEMO_LIMIT`
        monomials and ids; called only at the entry of a public call."""
        if _held(self.bases, len(self.monomials)) >= _MEMO_LIMIT:
            for memo in (self.monomials, self.monomial_ids, self.images, self.bases):
                memo.clear()

    def monomial_id(self, mono: Monomial) -> int:
        i = self.monomial_ids.get(mono)
        if i is None:
            i = self.monomial_ids[mono] = len(self.monomials)
            self.monomials.append(mono)
        return i

    def basis(self, q: int) -> Basis:
        """The basis over monomial ids of exponent unit q."""
        found = self.bases.get(q)
        if found is None:
            found = self.bases[q] = Basis(self, q)
        return found


class Basis:
    """The t-monomials (x-part, e) of unit q as ids (see the module
    docstring): x-parts are monomial ids of `tables` unless `images` maps
    each, a tree state, to its image over denominator 1."""

    __slots__ = (
        "tables", "q", "xparts", "nq", "shifts", "s", "lift",
        "keys", "ids", "images", "logs", "exponents", "fractions",
    )

    def __init__(self, tables: Tables, q: int, images: Mapping | None = None) -> None:
        self.tables, self.q, self.xparts = tables, q, images
        unit = q // tables.scale
        self.nq = tables.n * unit
        self.shifts = [shift * unit for shift in tables.shifts]
        image_denominator = tables.image_denominator if images is None else 1
        self.s = lcm(image_denominator, q * q)
        self.lift = self.s // image_denominator
        self.keys: list[tuple[int, int]] = []  # id -> (x-part, e)
        self.ids: dict[tuple[int, int], int] = {}
        self.images: list[tuple | None] = []  # id -> L (`_basis_image`)
        self.logs: list[int] = []  # id -> (2 e - n q) s / q
        self.exponents: list[Fraction] = []  # id -> e / q
        self.fractions: dict[int, Fraction] = {}  # e -> e / q

    def intern(self, x: int, e: int) -> int:
        key = (x, e)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.images.append(None)
            self.logs.append((2 * e - self.nq) * self.s // self.q)
            exponent = self.fractions.get(e)
            if exponent is None:
                exponent = self.fractions[e] = Fraction(e, self.q)
            self.exponents.append(exponent)
        return i


def _held(bases: Mapping[int, Basis], held: int = 0) -> int:
    for basis in bases.values():
        held += len(basis.keys)
    return held


def bound_bases(bases: dict[int, Basis]) -> None:
    """`Tables.bound_images` for bases kept on a tree."""
    if _held(bases) >= _MEMO_LIMIT:
        bases.clear()


def tables_of(spec: AlgebraSpec) -> Tables:
    """The tables of `spec`, built on first use and kept on the spec."""
    found = spec.__dict__.get("_tables")
    if found is None:
        found = spec.__dict__["_tables"] = Tables(spec)
    return found


def _ad_rows(spec: AlgebraSpec) -> list[_AdRows]:
    """Row r - 1 maps source to target to the coefficient of X_target in
    ad(X)^r X_source, X = sum x^k_l X^k_l the generic element, for r = 1..m-1;
    each bracket raises the layer, so ad(X)^m = 0."""
    basis = spec.variables()
    step: _AdRows = {}  # ad(X) X_source
    for source in basis:
        row: dict[VarIndex, Polynomial] = {}
        for u in basis:
            xu = Polynomial.variable(u)
            for target, c in spec.bracket(u, source).items():
                _acc(row, target, xu * c)
        step[source] = row
    powers: list[_AdRows] = [{v: {v: Polynomial.one()} for v in basis}]  # ad(X)^0
    while len(powers) < spec.m:
        rows: _AdRows = {}
        for source in basis:
            row = {}
            for mid, p_mid in powers[-1][source].items():
                for target, p_step in step[mid].items():
                    _acc(row, target, p_mid * p_step)
            rows[source] = row
        powers.append(rows)
    return powers[1:]


# --- structure polynomials ---

def _struct_table(spec: AlgebraSpec, ad_rows: list[_AdRows]) -> StructPolyTable:
    entries: dict[tuple[int, int, int, int], Polynomial] = {}
    for v in spec.variables():
        # i >= alpha: the identity block, no polynomial content
        entries[(v.layer, v.slot, v.layer, v.slot)] = Polynomial.one()
    for r, rows in enumerate(ad_rows, start=1):
        weight = bernoulli(r) / factorial(r)
        for source, row in rows.items():
            for target, p in row.items():
                if target.layer > source.layer:
                    key = (source.layer, source.slot, target.layer, target.slot)
                    _acc(entries, key, p * weight)
    return StructPolyTable(spec=spec, entries=entries)


def struct_polys(spec: AlgebraSpec) -> StructPolyTable:
    return tables_of(spec).struct


# --- the operator ---

def _operator(spec: AlgebraSpec, table: StructPolyTable) -> tuple[int, tuple]:
    """The operator's coefficient polynomials on integers: their common
    denominator, and by the variables of their derivative, first order (one
    variable) before second order (an unordered pair), (variables, ((shift
    id, target monomial, numerator), ...)).  Every image coefficient is a sum
    of integer multiples of these numerators, so the one denominator serves
    every image."""
    first: dict[tuple[VarIndex], dict[int, Polynomial]] = {}
    second: dict[tuple[VarIndex, VarIndex], dict[int, Polynomial]] = {}
    for i in range(1, spec.m + 1):
        shift = i - 1
        for j in range(1, spec.dim(i) + 1):
            row = {
                v: table.P(i, j, v.layer, v.slot)
                for v in spec.variables()
                if not table.P(i, j, v.layer, v.slot).is_zero()
            }
            for v1, p1 in row.items():
                for v2, p2 in row.items():
                    pair = (v1, v2) if v1 <= v2 else (v2, v1)
                    _acc(second.setdefault(pair, {}), shift, p1 * p2)
                for v2, p2 in row.items():
                    dp = p2.partial(v1)
                    if dp.is_zero():
                        continue
                    _acc(first.setdefault((v2,), {}), shift, p1 * dp)
    coefficients = [
        (variables, [
            (s, target, c) for s, poly in shifts.items() for target, c in poly.terms.items()
        ])
        for variables, shifts in {**first, **second}.items()
        if shifts
    ]
    denominator = lcm(*(c.denominator for _, row in coefficients for _, _, c in row))
    return denominator, tuple(
        (variables, tuple((s, target, c.numerator * (denominator // c.denominator))
                          for s, target, c in row))
        for variables, row in coefficients
    )


def _image(tables: Tables, m: int) -> _Image:
    """The x-part of the operator on monomial id m, computed once per memo."""
    mono = tables.monomials[m]
    acc: dict[tuple[int, Monomial], int] = {}
    for variables, terms in tables.operator:
        factor, lowered = mono.derivative(*variables)
        if not factor:
            continue
        for shift, target, a in terms:
            _acc(acc, (shift, target * lowered), a * factor)
    monomial_id = tables.monomial_id
    image = tables.images[m] = tuple(
        (shift, monomial_id(target), a) for (shift, target), a in acc.items()
    )
    return image


def _basis_image(basis: Basis, i: int) -> tuple[tuple[int, int], ...]:
    """L on id i = (x, e) over s, memoized: each entry a at shift k of x's
    image as a s / (image denominator) on (target, e + 2 lambda_k q), then
    e (e - n q) s / q^2 on i unless zero; no two entries share an id."""
    x, e = basis.keys[i]
    xparts = basis.xparts
    if xparts is None:
        xpart = basis.tables.images.get(x)
        if xpart is None:
            xpart = _image(basis.tables, x)
    else:
        xpart = xparts[x]
    intern, shifts, lift = basis.intern, basis.shifts, basis.lift
    image = [(intern(target, e + shifts[shift]), a * lift) for shift, target, a in xpart]
    t2 = e * (e - basis.nq) * basis.s // (basis.q * basis.q)
    if t2:
        image.append((i, t2))
    found = basis.images[i] = tuple(image)
    return found


def reduced(denominator: int, groups: dict) -> Form:
    """Numerators grouped by log power over denominator as a form: zeros and
    empty groups dropped, the common factor divided out."""
    g = gcd(denominator, *[v for terms in groups.values() for v in terms.values()])
    out = {}
    for k, terms in groups.items():
        if g > 1:
            terms = {key: v // g for key, v in terms.items() if v}
        elif 0 in terms.values():
            terms = {key: v for key, v in terms.items() if v}
        if terms:
            out[k] = terms
    return denominator // g, out


def to_form(tables: Tables, e: MixedExpr) -> tuple[Basis, Form]:
    """e's form over the lcm of its coefficient denominators, on the basis
    of unit lcm(scale, its exponent denominators)."""
    d = lcm(*(c.denominator for c in e.terms.values()))
    q = lcm(tables.scale, *(mu.denominator for _, mu, _ in e.terms))
    basis = tables.basis(q)
    monomial_id, intern = tables.monomial_id, basis.intern
    groups: dict[int, dict[int, int]] = {}
    for (mono, mu, k), c in e.terms.items():
        term = intern(monomial_id(mono), mu.numerator * (q // mu.denominator))
        groups.setdefault(k, {})[term] = c.numerator * (d // c.denominator)
    return basis, (d, groups)


def to_expr(basis: Basis, form: Form) -> MixedExpr:
    """The MixedExpr of a form on a basis over monomial ids."""
    d, groups = form
    keys, exponents, monomials = basis.keys, basis.exponents, basis.tables.monomials
    return MixedExpr._wrap({
        (monomials[keys[i][0]], exponents[i], k): Fraction(v, d)
        for k, terms in groups.items()
        for i, v in terms.items()
    })


def tau_form(basis: Basis, form: Form) -> Form:
    """The operator on a form: per log power k, each term through L of its
    id, and k (2 e - n q) / q and k (k - 1) times it to log powers k - 1 and
    k - 2, on integers over d s, reduced once."""
    d, groups = form
    if not groups:
        return form
    images, logs, s = basis.images, basis.logs, basis.s
    out: dict[int, dict[int, int]] = {}
    for k, terms in groups.items():
        acc = out.setdefault(k, {})
        get = acc.get
        for i, num in terms.items():
            image = images[i]
            if image is None:
                image = _basis_image(basis, i)
            for j, a in image:
                acc[j] = get(j, 0) + num * a
        if k:
            acc = out.setdefault(k - 1, {})
            get = acc.get
            for i, num in terms.items():
                acc[i] = get(i, 0) + num * k * logs[i]
            if k >= 2:
                acc = out.setdefault(k - 2, {})
                get = acc.get
                c = k * (k - 1) * s
                for i, num in terms.items():
                    acc[i] = get(i, 0) + num * c
    return reduced(d * s, out)


def tau(spec: AlgebraSpec, e: MixedExpr) -> MixedExpr:
    """Image of e under the Laplace-Beltrami operator (coordinate formula),
    computed on e's integer form (`tau_form`)."""
    tables = tables_of(spec)
    tables.bound_images()
    if not e.terms:
        return MixedExpr()
    basis, form = to_form(tables, e)
    return to_expr(basis, tau_form(basis, form))
