"""The grading vector fields and the Laplace-Beltrami operator.

The operator acts on MixedExpr as

    tau(e) = t^2 e_tt + (1 - n) t e_t
             + sum over frame layers i of t^(2 lambda_i) * (coordinate part),

where the coordinate part is assembled from the structure polynomials
P^{i alpha}_{j beta}: Kronecker deltas for i >= alpha, Bernoulli-weighted sums
of the ad-power polynomials p^{i alpha}_{j beta}(x, r) for i < alpha.

`tau` is the expanded coordinate formula; its first and second order
coefficient polynomials are precomputed once per algebra.  The test suite
cross-asserts it against an independent frame-sum realization
A(A(e)) + sum X^i_j(X^i_j(e)) - n t e_t built from the left-invariant fields:
the redundancy is the only practical defense against index transcription
mistakes in six-index structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from .algebra import AlgebraSpec, VarIndex
from .expr import Key, MixedExpr, _acc, _wrap
from .poly import Polynomial


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

def _accumulate_t_part(out: dict[Key, Fraction], e: MixedExpr, n: Fraction) -> None:
    """out += t^2 e_tt + (1 - n) t e_t, termwise."""
    for (mono, mu, k), c in e.terms.items():
        if mu:
            _acc(out, (mono, mu, k), c * mu * (mu - n))
        if k:
            _acc(out, (mono, mu, k - 1), c * k * (2 * mu - n))
            if k >= 2:
                _acc(out, (mono, mu, k - 2), c * k * (k - 1))


def tau_t(e: MixedExpr, n: Fraction) -> MixedExpr:
    """The pure t-part t^2 e_tt + (1 - n) t e_t, exact and termwise."""
    out: dict[Key, Fraction] = {}
    _accumulate_t_part(out, e, n)
    return _wrap(out)


@dataclass(frozen=True, eq=False)
class _TauTables:
    n: Fraction
    # unordered derivative pair -> t-exponent shift -> coefficient polynomial
    second: dict[tuple[VarIndex, VarIndex], dict[Fraction, Polynomial]]
    first: dict[VarIndex, dict[Fraction, Polynomial]]


@lru_cache(maxsize=None)
def _tau_tables(spec: AlgebraSpec) -> _TauTables:
    table = struct_polys(spec)
    second: dict[tuple[VarIndex, VarIndex], dict[Fraction, Polynomial]] = {}
    first: dict[VarIndex, dict[Fraction, Polynomial]] = {}
    for i in range(1, spec.m + 1):
        shift = 2 * spec.lam(i)
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
    return _TauTables(n=spec.homogeneous_dim, second=second, first=first)


def _accumulate_product(
    out: dict[Key, Fraction], poly: Polynomial, e: MixedExpr, shift: Fraction
) -> None:
    """out += poly * e * t^shift, termwise."""
    for mono_p, c_p in poly.terms.items():
        for (mono_e, mu, k), c_e in e.terms.items():
            _acc(out, (mono_p * mono_e, mu + shift, k), c_p * c_e)


def tau(spec: AlgebraSpec, e: MixedExpr) -> MixedExpr:
    """Image of e under the Laplace-Beltrami operator (coordinate formula)."""
    tables = _tau_tables(spec)
    out: dict[Key, Fraction] = {}
    _accumulate_t_part(out, e, tables.n)
    partials: dict[VarIndex, MixedExpr] = {}

    def d1(v: VarIndex) -> MixedExpr:
        if v not in partials:
            partials[v] = e.partial(v)
        return partials[v]

    for (v1, v2), shifts in tables.second.items():
        d2 = d1(v1).partial(v2)
        if d2.is_zero():
            continue
        for shift, poly in shifts.items():
            _accumulate_product(out, poly, d2, shift)
    for v, shifts in tables.first.items():
        d = d1(v)
        if d.is_zero():
            continue
        for shift, poly in shifts.items():
            _accumulate_product(out, poly, d, shift)
    return _wrap(out)
