"""The grading vector fields and the Laplace-Beltrami operator.

The operator acts on MixedExpr as

    tau(e) = t^2 e_tt + (1 - n) t e_t
             + sum over frame layers i of t^(2 lambda_i) * (coordinate part),

where the coordinate part is assembled from the structure polynomials
P^{i alpha}_{j beta}: Kronecker deltas for i >= alpha, Bernoulli-weighted sums
of the ad-power polynomials p^{i alpha}_{j beta}(x, r) for i < alpha.

`tau` is the expanded coordinate formula; its first and second order
coefficient polynomials are precomputed once per algebra.  The operator is
linear and its x-part does not depend on t, so `tau` is the linear extension
of monomial images: each monomial's image (a sum of t-shifts times integer
polynomials over one denominator) is computed once and memoized on the
algebra's tables, in a memo of bounded size, and an expression's terms are
pushed through those images with the t-part folded in, accumulated on
integers over one common denominator.

The test suite cross-asserts `tau` against an independent frame-sum
realization A(A(e)) + sum X^i_j(X^i_j(e)) - n t e_t built from the
left-invariant fields, and against the same coordinate formula applied to
the whole expression through its partial derivatives: the redundancy is the
only practical defense against index transcription mistakes in six-index
structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from .algebra import AlgebraSpec, VarIndex
from .expr import Key, MixedExpr, _acc, _wrap
from .poly import Monomial, Polynomial


# --- Bernoulli numbers, B_1 = +1/2 convention ---

@lru_cache(maxsize=None)
def _bernoulli_minus(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * _bernoulli_minus(k)
    return -acc / (n + 1)


def bernoulli(r: int) -> Fraction:
    """Exact Bernoulli number B_r with the B_1 = +1/2 sign convention."""
    if r < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if r == 1:
        return Fraction(1, 2)
    return _bernoulli_minus(r)


# --- ad-power coefficient polynomials ---

@lru_cache(maxsize=None)
def _ad_rows(spec: AlgebraSpec, r: int) -> dict[VarIndex, dict[VarIndex, Polynomial]]:
    """Row (i,j) maps target (alpha,beta) to the coefficient of X^alpha_beta in
    ad(X)^r X^i_j, where X = sum x^k_l X^k_l is the generic element."""
    assert r >= 1
    rows: dict[VarIndex, dict[VarIndex, Polynomial]] = {}
    basis = spec.variables()
    if r == 1:
        for source in basis:
            row: dict[VarIndex, Polynomial] = {}
            for u in basis:
                xu = Polynomial.variable(u)
                for target, c in spec.bracket(u, source).items():
                    row[target] = row.get(target, Polynomial.zero()) + xu * c
            rows[source] = {v: p for v, p in row.items() if not p.is_zero()}
        return rows
    prev = _ad_rows(spec, r - 1)
    step = _ad_rows(spec, 1)
    for source in basis:
        row = {}
        for mid, p_mid in prev[source].items():
            for target, p_step in step.get(mid, {}).items():
                row[target] = row.get(target, Polynomial.zero()) + p_mid * p_step
        rows[source] = {v: p for v, p in row.items() if not p.is_zero()}
    return rows


def ad_power(spec: AlgebraSpec, i: int, j: int, r: int) -> dict[VarIndex, Polynomial]:
    """Coefficient polynomials p^{i alpha}_{j beta}(x, r) of ad(X)^r X^i_j."""
    if r < 1:
        raise ValueError("ad power must be >= 1")
    spec.check_index(VarIndex(i, j))
    return dict(_ad_rows(spec, r).get(VarIndex(i, j), {}))


# --- structure polynomials ---

@dataclass(frozen=True, eq=False)
class StructPolyTable:
    """All P^{i alpha}_{j beta}."""

    spec: AlgebraSpec
    entries: dict[tuple[int, int, int, int], Polynomial]

    def P(self, i: int, j: int, alpha: int, beta: int) -> Polynomial:
        return self.entries.get((i, j, alpha, beta), Polynomial.zero())


@lru_cache(maxsize=None)
def struct_polys(spec: AlgebraSpec) -> StructPolyTable:
    entries: dict[tuple[int, int, int, int], Polynomial] = {}
    for v in spec.variables():
        # i >= alpha: the identity block, no polynomial content
        entries[(v.layer, v.slot, v.layer, v.slot)] = Polynomial.one()
    for r in range(1, spec.m):
        weight = bernoulli(r)
        for k in range(2, r + 1):
            weight /= k
        rows = _ad_rows(spec, r)
        for source, row in rows.items():
            for target, p in row.items():
                if target.layer > source.layer:
                    key = (source.layer, source.slot, target.layer, target.slot)
                    entries[key] = entries.get(key, Polynomial.zero()) + p * weight
    entries = {k: p for k, p in entries.items() if not p.is_zero()}
    return StructPolyTable(spec=spec, entries=entries)


# --- the operator ---

# Most monomials the operator memo keeps per algebra.  The memo is cleared
# wholesale at the start of a call once it holds this many, so a long-lived
# process keeps at most this many plus those of one call.
_MEMO_LIMIT = 4096


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
    return _wrap(out)


# The x-part of the operator on one monomial m: sum over s of t^(shifts[s])
# times a polynomial, with monomials as memo ids and integer numerators over
# one denominator, as (denominator, id of m, ((shift id, id, numerator), ...)).
_Image = tuple[int, int, tuple[tuple[int, int, int], ...]]


@dataclass(frozen=True, eq=False)
class _TauTables:
    n: Fraction
    shifts: tuple[Fraction, ...]  # 2 lambda_i, with shift id i - 1
    # unordered derivative pair -> shift id -> coefficient polynomial
    second: dict[tuple[VarIndex, VarIndex], dict[int, Polynomial]]
    first: dict[VarIndex, dict[int, Polynomial]]
    # the memo, filled on first use by `_image`: monomial images, and the
    # monomials they use interned to ids (id -> monomial, monomial -> id)
    images: dict[Monomial, _Image] = field(default_factory=dict)
    monomials: list[Monomial] = field(default_factory=list)
    monomial_ids: dict[Monomial, int] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _tau_tables(spec: AlgebraSpec) -> _TauTables:
    table = struct_polys(spec)
    second: dict[tuple[VarIndex, VarIndex], dict[int, Polynomial]] = {}
    first: dict[VarIndex, dict[int, Polynomial]] = {}
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
                    bucket = second.setdefault(pair, {})
                    bucket[shift] = bucket.get(shift, Polynomial.zero()) + p1 * p2
                for v2, p2 in row.items():
                    dp = p2.partial(v1)
                    if dp.is_zero():
                        continue
                    bucket = first.setdefault(v2, {})
                    bucket[shift] = bucket.get(shift, Polynomial.zero()) + p1 * dp
    second = {
        pair: {s: p for s, p in shifts.items() if not p.is_zero()}
        for pair, shifts in second.items()
    }
    second = {pair: shifts for pair, shifts in second.items() if shifts}
    first = {
        v: {s: p for s, p in shifts.items() if not p.is_zero()}
        for v, shifts in first.items()
    }
    first = {v: shifts for v, shifts in first.items() if shifts}
    return _TauTables(
        n=spec.homogeneous_dim,
        shifts=tuple(2 * spec.lam(i) for i in range(1, spec.m + 1)),
        second=second,
        first=first,
    )


def _derivative(exps: dict[VarIndex, int], *variables: VarIndex) -> tuple[int, Monomial]:
    """The derivative of the monomial with exponents `exps` by `variables`,
    as (integer factor, monomial); the factor is 0 when it vanishes."""
    exps = dict(exps)
    factor = 1
    for v in variables:
        e = exps.get(v, 0)
        if not e:
            return 0, Monomial.one()
        factor *= e
        exps[v] = e - 1
    return factor, Monomial(exps.items())


def _intern(tables: _TauTables, mono: Monomial) -> int:
    i = tables.monomial_ids.get(mono)
    if i is None:
        i = tables.monomial_ids[mono] = len(tables.monomials)
        tables.monomials.append(mono)
    return i


def _image(tables: _TauTables, mono: Monomial) -> _Image:
    """The x-part of the operator on one monomial, computed once per memo."""
    image = tables.images.get(mono)
    if image is not None:
        return image
    exps = dict(mono.exps)
    acc: dict[tuple[int, Monomial], Fraction] = {}
    derivatives = [(shifts, _derivative(exps, v)) for v, shifts in tables.first.items()]
    derivatives += [(shifts, _derivative(exps, *pair)) for pair, shifts in tables.second.items()]
    for shifts, (factor, lowered) in derivatives:
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
    tables = _tau_tables(spec)
    if not e.terms:
        return _wrap({})
    if len(tables.monomials) >= _MEMO_LIMIT:
        tables.images.clear()
        tables.monomials.clear()
        tables.monomial_ids.clear()
    n = tables.n
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
    return _wrap(
        {
            (monomials[m], mus[o], k): Fraction(v, denominator)
            for (m, o, k), v in out.items()
            if v
        }
    )
