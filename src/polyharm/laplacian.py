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
polynomials, the operator's first and second order coefficient polynomials,
and the memos of the operator's monomial images and of each family's branch
rows (filled by `pharmonic`), all bounded by `_MEMO_LIMIT`.

`tau` is the expanded coordinate formula.  The operator is linear and its
x-part does not depend on t, so `tau` is the linear extension of monomial
images: each monomial's image (a sum of t-shifts times integer polynomials
over one denominator) is computed once and memoized, and an expression's
terms are pushed through those images with the t-part folded in,
accumulated on integers over one common denominator.

The test suite cross-asserts `tau` against an independent frame-sum
realization A(A(e)) + sum X^i_j(X^i_j(e)) - n t e_t built from the
left-invariant fields, and against the same coordinate formula applied to
the whole expression through its partial derivatives: the redundancy is the
only practical defense against index transcription mistakes in six-index
structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from .algebra import AlgebraSpec, VarIndex
from .expr import Key, MixedExpr
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

# Most entries each memo of an algebra's tables keeps: the operator's monomial
# images, and each family's branch rows.  A memo is cleared wholesale at the
# start of a call once it holds this many, so a long-lived process keeps at
# most this many plus those of one call, per memo of a live algebra.
_MEMO_LIMIT = 4096

# The x-part of the operator on one monomial m: sum over s of t^(shifts[s])
# times a polynomial, with monomials as memo ids and integer numerators over
# one denominator, as (denominator, id of m, ((shift id, id, numerator), ...)).
_Image = tuple[int, int, tuple[tuple[int, int, int], ...]]

_AdRows = dict[VarIndex, dict[VarIndex, Polynomial]]


@dataclass(frozen=True, eq=False)
class StructPolyTable:
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
        # 2 lambda_i, with shift id i - 1
        self.shifts = tuple(2 * spec.lam(i) for i in range(1, spec.m + 1))
        self.coefficients = _coefficients(spec, self.struct)
        # the image memo (`_image`): monomial images, and the monomials they
        # use interned to ids (id -> monomial, monomial -> id)
        self.images: dict[Monomial, _Image] = {}
        self.monomials: list[Monomial] = []
        self.monomial_ids: dict[Monomial, int] = {}
        # family -> multi-index -> branch row (`pharmonic._row`)
        self.rows: dict[str, dict] = {"phi": {}, "psi": {}}

    def bound_images(self) -> None:
        """Clear the image memo once it holds `_MEMO_LIMIT` monomials."""
        if len(self.monomials) >= _MEMO_LIMIT:
            self.images.clear()
            self.monomials.clear()
            self.monomial_ids.clear()

    def branch_rows(self, family: str) -> dict:
        """The branch-row memo of `family`, cleared first once it holds
        `_MEMO_LIMIT` rows."""
        memo = self.rows[family]
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        return memo


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


def ad_power(spec: AlgebraSpec, i: int, j: int, r: int) -> dict[VarIndex, Polynomial]:
    """Coefficient polynomials p^{i alpha}_{j beta}(x, r) of ad(X)^r X^i_j."""
    if r < 1:
        raise ValueError("ad power must be >= 1")
    spec.check_index(VarIndex(i, j))
    rows = tables_of(spec).ad_rows
    return dict(rows[r - 1][VarIndex(i, j)]) if r < spec.m else {}


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

def tau_t(e: MixedExpr, n: Fraction) -> MixedExpr:
    """The pure t-part t^2 e_tt + (1 - n) t e_t, exact and termwise."""
    out: dict[Key, Fraction] = {}
    for (mono, mu, k), c in e.terms.items():
        if mu:
            _acc(out, (mono, mu, k), c * mu * (mu - n))
        if k:
            _acc(out, (mono, mu, k - 1), c * k * (2 * mu - n))
            if k >= 2:
                _acc(out, (mono, mu, k - 2), c * k * (k - 1))
    return MixedExpr._wrap(out)


def _coefficients(spec: AlgebraSpec, table: StructPolyTable) -> dict:
    """The operator's coefficient polynomials by the variables of their
    derivative, first order (one variable) before second order (an
    unordered pair), then by shift id."""
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
    return {variables: shifts for variables, shifts in {**first, **second}.items() if shifts}


def _intern(tables: Tables, mono: Monomial) -> int:
    i = tables.monomial_ids.get(mono)
    if i is None:
        i = tables.monomial_ids[mono] = len(tables.monomials)
        tables.monomials.append(mono)
    return i


def _image(tables: Tables, mono: Monomial) -> _Image:
    """The x-part of the operator on one monomial, computed once per memo."""
    image = tables.images.get(mono)
    if image is not None:
        return image
    acc: dict[tuple[int, Monomial], Fraction] = {}
    for variables, shifts in tables.coefficients.items():
        factor, lowered = mono.derivative(*variables)
        if not factor:
            continue
        for shift, poly in shifts.items():
            for m, c in poly.terms.items():
                _acc(acc, (shift, m * lowered), c * factor)
    denominator = lcm(*(c.denominator for c in acc.values()))
    image = (
        denominator,
        _intern(tables, mono),
        tuple(
            (shift, _intern(tables, m), c.numerator * (denominator // c.denominator))
            for (shift, m), c in acc.items()
        ),
    )
    tables.images[mono] = image
    return image


def tau(spec: AlgebraSpec, e: MixedExpr) -> MixedExpr:
    """Image of e under the Laplace-Beltrami operator (coordinate formula).

    The operator is linear and its x-part does not depend on t, so e's terms
    are grouped by monomial and pushed through that monomial's image
    (`_image`).  The sum runs on integers over one common denominator: D for
    e's coefficients times S for the images and the t-part factors; each
    output coefficient is normalized once, as a Fraction over D * S.
    """
    tables = tables_of(spec)
    if not e.terms:
        return MixedExpr()
    tables.bound_images()
    n = spec.homogeneous_dim
    d = lcm(*(c.denominator for c in e.terms.values()))
    # e's terms by monomial as (t-exponent id, log power, numerator over d).
    # Terms mostly share their exponent objects, so ids are looked up by object
    # first: hashing a Fraction costs more than the rest of the grouping.
    mu_ids: dict[Fraction, int] = {}
    by_object: dict[int, int] = {}
    groups: dict[Monomial, list[tuple[int, int, int]]] = {}
    for (mono, mu, k), c in e.terms.items():
        i = by_object.get(id(mu))
        if i is None:
            i = by_object[id(mu)] = mu_ids.setdefault(mu, len(mu_ids))
        groups.setdefault(mono, []).append((i, k, c.numerator * (d // c.denominator)))
    images = [(group, _image(tables, mono)) for mono, group in groups.items()]
    # t-part factors mu (mu - n) and 2 mu - n, per input t-exponent
    t2 = [mu * (mu - n) for mu in mu_ids]
    t1 = [2 * mu - n for mu in mu_ids]
    s = lcm(
        *(image[0] for _, image in images),
        *(f.denominator for f in t2),
        *(f.denominator for f in t1),
    )
    t2 = [f.numerator * (s // f.denominator) for f in t2]
    t1 = [f.numerator * (s // f.denominator) for f in t1]
    # ids of the output t-exponents: mu itself (t-part) and mu + each shift
    out_ids: dict[Fraction, int] = {}
    same = [out_ids.setdefault(mu, len(out_ids)) for mu in mu_ids]
    rows = [
        tuple(out_ids.setdefault(mu + shift, len(out_ids)) for shift in tables.shifts)
        for mu in mu_ids
    ]
    # (monomial id, output t-exponent id, log power) -> numerator over d * s
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for group, (image_den, own, image) in images:
        scale = s // image_den
        for i, k, num in group:
            row = rows[i]
            scaled = num * scale
            for shift, m, a in image:
                key = (m, row[shift], k)
                out[key] = get(key, 0) + scaled * a
            o = same[i]
            if t2[i]:
                key = (own, o, k)
                out[key] = get(key, 0) + num * t2[i]
            if k:
                key = (own, o, k - 1)
                out[key] = get(key, 0) + num * k * t1[i]
                if k >= 2:
                    key = (own, o, k - 2)
                    out[key] = get(key, 0) + num * k * (k - 1) * s
    denominator = d * s
    monomials = tables.monomials
    mus = list(out_ids)
    return MixedExpr._wrap(
        {
            (monomials[m], mus[o], k): Fraction(v, denominator)
            for (m, o, k), v in out.items()
            if v
        }
    )
