"""Independent oracles used by the unit and acceptance tests.

Everything here is deliberately written against the raw data (bracket maps,
hand-typed display formulas) and never calls the production code paths it is
used to check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from polyharm import MixedExpr, Polynomial, Resonance, VarIndex
from polyharm.poly import Monomial


def brute_ad_power(spec, i: int, j: int, r: int) -> dict[VarIndex, Polynomial]:
    """Iterated bracketing of the generic element against X^i_j, using only the
    sparse bracket map: ad(X)^r X^i_j with X = sum x^k_l X^k_l."""
    current: dict[VarIndex, Polynomial] = {VarIndex(i, j): Polynomial.one()}
    for _ in range(r):
        nxt: dict[VarIndex, Polynomial] = {}
        for w, coeff_poly in current.items():
            for u in spec.variables():
                br = spec.bracket(u, w)
                if not br:
                    continue
                xu = Polynomial.variable(u)
                for target, c in br.items():
                    contrib = xu * coeff_poly * c
                    nxt[target] = nxt.get(target, Polynomial.zero()) + contrib
        current = {w: p for w, p in nxt.items() if not p.is_zero()}
    return current


X1, Y1, Z1 = VarIndex(1, 1), VarIndex(1, 2), VarIndex(2, 1)


def _second(e: MixedExpr, u: VarIndex, v: VarIndex) -> MixedExpr:
    return e.partial(u).partial(v)


def ch2_display_tau(e: MixedExpr) -> MixedExpr:
    """The five-term closed form of the operator on the complex hyperbolic
    plane, typed out independently with the t-powers t^(2*1/2) = t and
    t^(2*1) = t^2 that the eigenvalues (1/2, 1) dictate:

        t^2 e_tt - t e_t + t (e_xx + e_yy)
        + (t (x^2+y^2) + 4 t^2)/4 * e_zz + t (x e_yz - y e_xz)
    """
    x = MixedExpr.from_polynomial(Polynomial.variable(X1))
    y = MixedExpr.from_polynomial(Polynomial.variable(Y1))
    out = e.d_dt().d_dt().mul_t_power(2) - e.d_dt().mul_t_power(1)
    out = out + (_second(e, X1, X1) + _second(e, Y1, Y1)).mul_t_power(1)
    zz = _second(e, Z1, Z1)
    out = out + (
        (x * x + y * y) * zz * Fraction(1, 4)
    ).mul_t_power(1) + zz.mul_t_power(2)
    out = out + (x * _second(e, Y1, Z1) - y * _second(e, X1, Z1)).mul_t_power(1)
    return out


def ch2_display_tau_as_printed(e: MixedExpr) -> MixedExpr:
    """The same display with every x-sector t-power doubled (t^2, t^4), i.e.
    exactly as it appears in print.  Kept for the discrepancy probe; it is NOT
    the operator of the (1/2, 1) eigenvalue data."""
    x = MixedExpr.from_polynomial(Polynomial.variable(X1))
    y = MixedExpr.from_polynomial(Polynomial.variable(Y1))
    out = e.d_dt().d_dt().mul_t_power(2) - e.d_dt().mul_t_power(1)
    out = out + (_second(e, X1, X1) + _second(e, Y1, Y1)).mul_t_power(2)
    zz = _second(e, Z1, Z1)
    out = out + (
        (x * x + y * y) * zz * Fraction(1, 4)
    ).mul_t_power(2) + zz.mul_t_power(4)
    out = out + (x * _second(e, Y1, Z1) - y * _second(e, X1, Z1)).mul_t_power(2)
    return out


def compositions(j: int, i: int) -> list[tuple[int, ...]]:
    """All i-tuples of non-negative integers summing to j, lexicographic.

    The empty tuple is the unique composition of 0 into 0 parts; there is no
    composition of j > 0 into 0 parts.
    """
    if j < 0:
        return []
    if i == 0:
        return [()] if j == 0 else []
    if i == 1:
        return [(j,)]
    out = []
    for head in range(j + 1):
        for rest in compositions(j - head, i - 1):
            out.append((head,) + rest)
    return out


def composition_sum(a: list[Fraction], j: int, parts: int, last_drop: bool) -> Fraction:
    """sum over l_1+...+l_parts = j of prod a_k^(l_k+1), with the final factor
    exponent dropped to l_i when last_drop is set (the identity's first sum)."""
    total = Fraction(0)
    for parts_tuple in compositions(j, parts):
        prod = Fraction(1)
        for idx, l in enumerate(parts_tuple):
            exponent = l if (last_drop and idx == parts - 1) else l + 1
            prod *= a[idx] ** exponent
        total += prod
    return total


def composition_identity_holds(a: list[Fraction], j: int) -> bool:
    """The telescoping identity behind the coefficient recurrences:
    S1 - S2 = S3 with S1 the dropped-exponent sum over i parts, S2 the full sum
    at weight j-1, S3 the full sum over the first i-1 parts at weight j."""
    i = len(a)
    s1 = composition_sum(a, j, i, last_drop=True)
    s2 = composition_sum(a, j - 1, i, last_drop=False) if j >= 1 else Fraction(0)
    s3 = composition_sum(a[:-1], j, i - 1, last_drop=False)
    return s1 - s2 == s3


def branch_coeff_by_compositions(
    lambdas: tuple[Fraction, ...], n: Fraction, alpha: tuple[int, ...], p: int, family: str
) -> MixedExpr:
    """The branch coefficient f (family "phi") or g ("psi") of order p along
    alpha, summed term by term over compositions of j into i = len(alpha) parts:

        sum_{j<p} (-1)^(i+j) 2^(j-i) (p-1)!/(p-1-j)! / prod_k Lambda^k
            * sum_{l_1+...+l_i=j} prod_k 1/d_k^(l_k+1) * t^(2 Lambda^i [+ n]) log(t)^(p-1-j)

    with Lambda^k = lambda_(alpha_1) + ... + lambda_(alpha_k) and
    d_k = 2 Lambda^k - n (phi) or 2 Lambda^k + n (psi).  Raises Resonance at the
    first k with d_k = 0.  The empty branch gives log(t)^(p-1) (times t^n).
    """
    i = len(alpha)
    big_lambdas = [sum(lambdas[layer - 1] for layer in alpha[:k]) for k in range(1, i + 1)]
    sign_n = -1 if family == "phi" else 1
    denoms = [2 * lam + sign_n * n for lam in big_lambdas]
    for k, d in enumerate(denoms, start=1):
        if d == 0:
            raise Resonance(alpha, k)
    exponent = 2 * (big_lambdas[-1] if big_lambdas else 0) + (n if family == "psi" else 0)
    lambda_product = prod(big_lambdas)
    terms = {}
    for j in range(p):
        # over the common denominator prod_k a_k^(j+1), with d_k = a_k / b_k,
        # the part 1/d_k^(l+1) contributes b_k^(l+1) a_k^(j-l)
        weights = [
            [d.denominator ** (l + 1) * d.numerator ** (j - l) for l in range(j + 1)]
            for d in denoms
        ]
        numerator = 0
        for parts in compositions(j, i):
            product = 1
            for row, l in zip(weights, parts):
                product *= row[l]
            numerator += product
        total = Fraction(numerator, prod(d.numerator ** (j + 1) for d in denoms))
        coeff = (
            (-1) ** (i + j) * Fraction(2) ** (j - i)
            * Fraction(factorial(p - 1), factorial(p - 1 - j)) * total / lambda_product
        )
        if coeff:
            terms[(Monomial.one(), exponent, p - 1 - j)] = coeff
    return MixedExpr(terms)
