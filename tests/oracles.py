"""Independent oracles used by the unit and acceptance tests.

Everything here is deliberately written against the raw data (bracket maps,
structure polynomials, hand-typed display formulas) and never calls the
production code paths it is used to check: the frame-sum operator, the
expression-level partial-derivative operator and the layer closed forms are
second realizations of `polyharm.tau`; `image_by_monomials` is the monomial
image of the operator kernel on Monomial objects, beside its packed
`laplacian._image`; the formal operator `formal_tau`
(with its t-part `tau_t`) pushes the operator through node symbols in
MixedExpr arithmetic, beside the kernel `laplacian.tau_form` under a radial
tree's images; the recurrence and certificate loops redo
`recurrence_check`, `verify` and `verify_formal` with these operators; and
the high-precision evaluator is a numeric signal beside the canonical zero
test.  The module also holds small helpers only the tests use: the calculus
on MixedExpr (d/dt, partial derivatives, t-shifts), the expressions t^mu
log(t)^k, powers of sums by repeated products, exact polynomial evaluation,
the total and homogeneous degrees, radial functions expanded as polynomials,
structure constants and tree sums.  Two validation and budget checks are
redone here the long way: the tree depth bound on Fractions (`depth_bound`)
and the Jacobi scan over every basis triple (`jacobi_violation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Mapping

import mpmath

from polyharm import (
    MixedExpr,
    NodeSymbolExpr,
    PolyharmError,
    Polynomial,
    RadialFunction,
    Resonance,
    TensionTree,
    VarIndex,
    build_phi,
    build_psi,
    struct_polys,
)
from polyharm.laplacian import _basis_image, _factor, _widened
from polyharm.poly import Monomial
from polyharm.scalar import _acc


# --- calculus on MixedExpr ---

def d_dt(e: MixedExpr) -> MixedExpr:
    """Exact d/dt: c*m*t^mu*log^k -> c*m*(mu t^(mu-1) log^k + k t^(mu-1) log^(k-1))."""
    out: dict = {}
    for (mono, mu, k), c in e.terms.items():
        if mu:
            _acc(out, (mono, mu - 1, k), c * mu)
        if k:
            _acc(out, (mono, mu - 1, k - 1), c * k)
    return MixedExpr._wrap(out)


def partial(e: MixedExpr, v: VarIndex) -> MixedExpr:
    """Exact partial derivative by the coordinate v."""
    out: dict = {}
    for (mono, mu, k), c in e.terms.items():
        factor, lowered = mono.derivative(v)
        if factor:
            _acc(out, (lowered, mu, k), c * factor)
    return MixedExpr._wrap(out)


def mul_t_power(e: MixedExpr, shift: Fraction | int) -> MixedExpr:
    """e * t^shift."""
    shift = Fraction(shift)
    if not shift:
        return e
    return MixedExpr._wrap({(m, mu + shift, k): c for (m, mu, k), c in e.terms.items()})


def t_power(mu: Fraction | int, logpow: int = 0) -> MixedExpr:
    """t^mu * log(t)^logpow."""
    return MixedExpr({(Monomial.one(), Fraction(mu), logpow): Fraction(1)})


def log_t(power: int = 1) -> MixedExpr:
    """log(t)^power."""
    return t_power(0, power)


def power(e: Polynomial | MixedExpr, n: int) -> Polynomial | MixedExpr:
    """e^n as n products starting from one."""
    out = type(e).one()
    for _ in range(n):
        out = out * e
    return out


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
    return partial(partial(e, u), v)


def ch2_display_tau(e: MixedExpr) -> MixedExpr:
    """The five-term closed form of the operator on the complex hyperbolic
    plane, typed out independently with the t-powers t^(2*1/2) = t and
    t^(2*1) = t^2 that the eigenvalues (1/2, 1) dictate:

        t^2 e_tt - t e_t + t (e_xx + e_yy)
        + (t (x^2+y^2) + 4 t^2)/4 * e_zz + t (x e_yz - y e_xz)
    """
    x = MixedExpr.from_polynomial(Polynomial.variable(X1))
    y = MixedExpr.from_polynomial(Polynomial.variable(Y1))
    out = mul_t_power(d_dt(d_dt(e)), 2) - mul_t_power(d_dt(e), 1)
    out = out + mul_t_power(_second(e, X1, X1) + _second(e, Y1, Y1), 1)
    zz = _second(e, Z1, Z1)
    out = out + mul_t_power((x * x + y * y) * zz * Fraction(1, 4), 1) + mul_t_power(zz, 2)
    out = out + mul_t_power(x * _second(e, Y1, Z1) - y * _second(e, X1, Z1), 1)
    return out


def ch2_display_tau_as_printed(e: MixedExpr) -> MixedExpr:
    """The same display with every x-sector t-power doubled (t^2, t^4), i.e.
    exactly as it appears in print.  Kept for the discrepancy probe; it is NOT
    the operator of the (1/2, 1) eigenvalue data."""
    x = MixedExpr.from_polynomial(Polynomial.variable(X1))
    y = MixedExpr.from_polynomial(Polynomial.variable(Y1))
    out = mul_t_power(d_dt(d_dt(e)), 2) - mul_t_power(d_dt(e), 1)
    out = out + mul_t_power(_second(e, X1, X1) + _second(e, Y1, Y1), 2)
    zz = _second(e, Z1, Z1)
    out = out + mul_t_power((x * x + y * y) * zz * Fraction(1, 4), 2) + mul_t_power(zz, 4)
    out = out + mul_t_power(x * _second(e, Y1, Z1) - y * _second(e, X1, Z1), 2)
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


def _branch_coeff(spec, alpha: tuple[int, ...], p: int, family: str) -> MixedExpr:
    """The branch coefficient of order p along alpha from the row of alpha
    alone, made one step at a time from the root in Fractions: with
    Lambda = Lambda_parent + lambda_k, d = 2 Lambda -+ n, a = 1/d and
    m = -a / (2 Lambda),

        u_alpha[0] = m u_parent[0],   u_alpha[j] = m u_parent[j] + a u_alpha[j-1]

    from u_() = (1, 0, 0, ...), and the coefficient is
    sum_{j<p} (-2)^j (p-1)...(p-j) u_alpha[j] t^exponent log(t)^(p-1-j).  This
    is the per-multi-index recurrence the production rows sum over each tree
    state.  Raises Resonance at the first resonant prefix."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n = spec.homogeneous_dim
    u = [Fraction(1)] + [Fraction(0)] * (p - 1)
    lam = Fraction(0)
    for i, layer in enumerate(alpha, start=1):
        lam += spec.lam(layer)
        d = 2 * lam - n if family == "phi" else 2 * lam + n
        if not d:
            raise Resonance(alpha, i)
        a = 1 / d
        m = -a / (2 * lam)
        row: list[Fraction] = []
        for j in range(p):
            row.append(m * u[j] + (a * row[j - 1] if j else 0))
        u = row
    exponent = 2 * lam if family == "phi" else 2 * lam + n
    one, weight, terms = Monomial.one(), 1, {}
    for j in range(p):
        if j:
            weight *= -2 * (p - j)
        if u[j]:
            terms[(one, exponent, p - 1 - j)] = weight * u[j]
    return MixedExpr._wrap(terms)


def f_coeff(spec, alpha, p: int) -> MixedExpr:
    """Branch coefficient of the log family; raises Resonance if 2 Lambda^k = n."""
    return _branch_coeff(spec, tuple(alpha), p, "phi")


def g_coeff(spec, alpha, p: int) -> MixedExpr:
    """Branch coefficient of the t^n family; always defined."""
    return _branch_coeff(spec, tuple(alpha), p, "psi")


def build_by_branches(spec, tree, p: int, family: str):
    """phi_p (family "phi") or psi_p ("psi") assembled branch by branch: the
    seed times the root coefficient plus every node times its coefficient from
    `branch_coeff_by_compositions`, summed in plain Fractions.  Branches are
    taken in lexicographic order, so the first resonant one raises.  A
    radial tree gives the node-symbol form."""
    alphas = [(), *tree.nodes]
    coeffs = [
        branch_coeff_by_compositions(spec.lambdas, spec.homogeneous_dim, alpha, p, family)
        for alpha in alphas
    ]
    if tree.kind == "radial":
        return NodeSymbolExpr(dict(zip(alphas, coeffs)))
    out: dict = {}
    for alpha, coeff in zip(alphas, coeffs):
        node = tree.nodes[alpha] if alpha else tree.seed
        for mono, c in node.terms.items():
            for (_, mu, k), c_t in coeff.terms.items():
                _add(out, (mono, mu, k), c * c_t)
    return MixedExpr(out)


# --- left-invariant frame and the frame-sum operator ---

@dataclass(frozen=True, eq=False)
class VectorField:
    """First-order operator c_t(t) d/dt + sum_v c_v(t,x) d/dx_v."""

    label: str
    t_coefficient: MixedExpr
    x_coefficients: dict[VarIndex, MixedExpr]

    def apply(self, e: MixedExpr) -> MixedExpr:
        out = MixedExpr.zero()
        if not self.t_coefficient.is_zero():
            out = out + self.t_coefficient * d_dt(e)
        for v, coeff in self.x_coefficients.items():
            d = partial(e, v)
            if not d.is_zero():
                out = out + coeff * d
        return out


@lru_cache(maxsize=None)
def left_invariant_fields(spec) -> tuple[VectorField, ...]:
    """The orthonormal frame: the grading field t d/dt, then one field per x^i_j."""
    fields = [
        VectorField("A", t_power(1), {})
    ]
    table = struct_polys(spec)
    for v in spec.variables():
        lam = spec.lam(v.layer)
        coeffs: dict[VarIndex, MixedExpr] = {}
        for target in spec.variables():
            p = table.P(v.layer, v.slot, target.layer, target.slot)
            if not p.is_zero():
                coeffs[target] = MixedExpr.from_polynomial(p, mu=lam)
        fields.append(VectorField(f"X{v.layer}_{v.slot}", MixedExpr.zero(), coeffs))
    return tuple(fields)


def tau_frame(spec, e: MixedExpr) -> MixedExpr:
    """Frame-sum realization: A^2 + sum (X^i_j)^2 minus n t d/dt (the covariant
    correction)."""
    fields = left_invariant_fields(spec)
    out = MixedExpr.zero()
    for field in fields:
        out = out + field.apply(field.apply(e))
    return out + mul_t_power(d_dt(e), 1) * (-spec.homogeneous_dim)


def kappa(spec, f: MixedExpr, h: MixedExpr) -> MixedExpr:
    """Gradient inner product g(grad f, grad h) via the left-invariant frame."""
    out = MixedExpr.zero()
    for field in left_invariant_fields(spec):
        ff = field.apply(f)
        if ff.is_zero():
            continue
        fh = field.apply(h)
        if not fh.is_zero():
            out = out + ff * fh
    return out


# --- closed forms for functions of the first one or two layers ---

def _laplacian_in_layer(spec, h: Polynomial, layer: int) -> Polynomial:
    acc = Polynomial.zero()
    for j in range(1, spec.dim(layer) + 1):
        v = VarIndex(layer, j)
        acc = acc + h.partial(v).partial(v)
    return acc


def tau_fast_x1(spec, h: Polynomial) -> MixedExpr:
    """t^(2 lambda_1) * (flat Laplacian of h in the x^1 variables)."""
    if not h.layers_used() <= {1}:
        raise ValueError(f"function uses layers {sorted(h.layers_used())}, expected only 1")
    return MixedExpr.from_polynomial(
        _laplacian_in_layer(spec, h, 1), mu=2 * spec.lam(1)
    )


def tau_fast_x1x2(spec, h: Polynomial) -> MixedExpr:
    """Four-term closed form for functions of the x^1 and x^2 variables only:
    layer-1 Laplacian, first-bracket cross term, layer-2 Laplacian and the
    quadratic bracket-squared term."""
    layers = h.layers_used()
    if not layers <= {1, 2}:
        raise ValueError(f"function uses layers {sorted(layers)}, expected only 1, 2")
    shift1 = 2 * spec.lam(1)
    out = MixedExpr.from_polynomial(_laplacian_in_layer(spec, h, 1), mu=shift1)
    if spec.m < 2:
        return out
    n1, n2 = spec.dim(1), spec.dim(2)

    def a112(j: int, l: int, b: int) -> Fraction:
        return structure_constant(spec, 1, j, 1, l, 2, b)

    cross = Polynomial.zero()
    for j in range(1, n1 + 1):
        xj = Polynomial.variable(VarIndex(1, j))
        for l in range(1, n1 + 1):
            for b in range(1, n2 + 1):
                c = a112(j, l, b)
                if c:
                    d2 = h.partial(VarIndex(1, l)).partial(VarIndex(2, b))
                    if not d2.is_zero():
                        cross = cross + xj * d2 * c
    out = out + MixedExpr.from_polynomial(cross, mu=shift1)

    out = out + MixedExpr.from_polynomial(
        _laplacian_in_layer(spec, h, 2), mu=2 * spec.lam(2)
    )

    quad = Polynomial.zero()
    for l in range(1, n2 + 1):
        for b in range(1, n2 + 1):
            d2 = h.partial(VarIndex(2, l)).partial(VarIndex(2, b))
            if d2.is_zero():
                continue
            coeff = Polynomial.zero()
            for j in range(1, n1 + 1):
                for r in range(1, n1 + 1):
                    c_r = a112(r, j, l)
                    if not c_r:
                        continue
                    for s in range(1, n1 + 1):
                        c_s = a112(s, j, b)
                        if c_s:
                            coeff = coeff + (
                                Polynomial.variable(VarIndex(1, r))
                                * Polynomial.variable(VarIndex(1, s))
                                * (c_r * c_s)
                            )
            quad = quad + coeff * d2
    out = out + MixedExpr.from_polynomial(quad * Fraction(1, 4), mu=shift1)
    return out


# --- exact evaluation, homogeneity, structure constants, tree sums ---

class MissingAssignment(PolyharmError):
    """An evaluation point does not assign a variable that occurs in the polynomial."""


def evaluate(poly: Polynomial, point: Mapping[VarIndex, Fraction]) -> Fraction:
    """The exact value of poly at a rational point."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for v, e in mono.exps:
            if v not in point:
                raise MissingAssignment(f"no value assigned to {v}")
            value *= Fraction(point[v]) ** e
        total += value
    return total


def total_degree(poly: Polynomial) -> int:
    """Largest degree of a term; 0 for the zero polynomial."""
    return max((mono.degree for mono in poly.terms), default=0)


def radial_laplacian(f: RadialFunction) -> RadialFunction:
    """The flat x^1 Laplacian of f in closed form, on Fractions:
    Lap(rho^a) = a(a+n1-2) rho^(a-2) and
    Lap(rho^a log rho) = a(a+n1-2) rho^(a-2) log rho + (2a+n1-2) rho^(a-2)."""
    out: dict = {}
    n1 = f.n1
    for (a, has_log), c in f.terms.items():
        _acc(out, (a - 2, has_log), c * (a * (a + n1 - 2)))
        if has_log:
            _acc(out, (a - 2, False), c * (2 * a + n1 - 2))
    return RadialFunction(n1, out)


def radial_polynomial(spec, f: RadialFunction) -> Polynomial:
    """f with rho^(2k) expanded as (x^1_1^2 + ... + x^1_n1^2)^k; only for
    log-free even powers."""
    rho2 = Polynomial.zero()
    for j in range(1, spec.dim(1) + 1):
        rho2 = rho2 + Polynomial.variable(VarIndex(1, j), 2)
    out = Polynomial.zero()
    for (a, has_log), c in f.terms.items():
        if has_log or a < 0 or a % 2:
            raise ValueError("only even log-free powers expand to polynomials")
        out = out + power(rho2, a // 2) * c
    return out


def homogeneous_degree(poly: Polynomial) -> int | None:
    """Common degree of all terms, or None if inhomogeneous / zero."""
    degrees = {mono.degree for mono in poly.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def depth_bound(spec, h: Polynomial) -> int:
    """The depth bound of the tension tree of h on Fractions: its weighted
    degree (sum of lambda_layer * exponent over a monomial, maximized) over
    2 lambda_1, floored."""
    weighted = max(
        (sum(spec.lam(v.layer) * e for v, e in mono.exps) for mono in h.terms),
        default=0,
    )
    return weighted // (2 * spec.lam(1))


def jacobi_violation(spec) -> tuple[VarIndex, VarIndex, VarIndex] | None:
    """The least basis triple u < v < w with a nonzero cyclic sum
    [[u, v], w] + [[v, w], u] + [[w, u], v], by a scan of every triple, or
    None when the Jacobi identity holds."""
    basis = spec.variables()
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            for c in range(b + 1, len(basis)):
                u, v, w = basis[a], basis[b], basis[c]
                total: dict = {}
                for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
                    for mid, c_mid in spec.bracket(x, y).items():
                        for target, c_t in spec.bracket(mid, z).items():
                            _acc(total, target, c_mid * c_t)
                if total:
                    return u, v, w
    return None


def structure_constant(spec, i: int, j: int, k: int, l: int, alpha: int, beta: int) -> Fraction:
    """<[X^i_j, X^k_l], X^alpha_beta>, either orientation of the pair."""
    return spec.bracket(VarIndex(i, j), VarIndex(k, l)).get(VarIndex(alpha, beta), Fraction(0))


@dataclass(frozen=True)
class NodeView:
    """The multi-index view of a tension tree: its seed, its nonzero nodes
    keyed by multi-index and its degree."""

    spec: object
    kind: str
    seed: object
    nodes: dict
    degree: int


def node_view(tree: TensionTree) -> NodeView:
    return NodeView(tree.spec, tree.kind, tree.seed, dict(tree.nodes), tree.degree)


def sum_trees(t1: TensionTree, t2: TensionTree) -> NodeView:
    """Nodewise sum of the multi-index views of two polynomial trees; the
    tree map is linear in the seed."""
    if t1.spec != t2.spec or t1.kind != "polynomial" or t2.kind != "polynomial":
        raise ValueError("trees over different algebras or not polynomial")
    nodes = {}
    for alpha in set(t1.nodes) | set(t2.nodes):
        zero = Polynomial.zero()
        total = t1.nodes.get(alpha, zero) + t2.nodes.get(alpha, zero)
        if not total.is_zero():
            nodes[alpha] = total
    degree = max((len(alpha) for alpha in nodes), default=0)
    return NodeView(
        spec=t1.spec, kind=t1.kind, seed=t1.seed + t2.seed, nodes=nodes, degree=degree
    )


# --- numeric spot checks (secondary signal only) ---

def evaluate_numeric(
    e: MixedExpr,
    point: Mapping[VarIndex, Fraction],
    t_value: Fraction,
    precision_bits: int = 256,
):
    """High-precision floating evaluation of e at rational (t, x); t must be > 0.

    The canonical form is the authority on exactness; this exists for
    numerical cross-checks only (rational t-exponents have no exact value
    at rational t).
    """
    if t_value <= 0:
        raise ValueError("t must be positive")
    with mpmath.workprec(precision_bits):
        tv = mpmath.mpf(t_value.numerator) / t_value.denominator
        log_t = mpmath.log(tv)
        total = mpmath.mpf(0)
        for (mono, mu, logpow), c in e.terms.items():
            val = mpmath.mpf(c.numerator) / c.denominator
            for v, exp in mono.exps:
                xv = Fraction(point[v])
                val *= (mpmath.mpf(xv.numerator) / xv.denominator) ** exp
            val *= mpmath.power(tv, mpmath.mpf(mu.numerator) / mu.denominator)
            if logpow:
                val *= log_t**logpow
            total += val
        return total


# --- the operator by expression-level partial derivatives ---

def _add(out: dict, key, value: Fraction) -> None:
    acc = out.get(key, Fraction(0)) + value
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def _accumulate_product(out: dict, poly: Polynomial, e: MixedExpr, shift: Fraction) -> None:
    """out += poly * e * t^shift, termwise."""
    for mono_p, c_p in poly.terms.items():
        for (mono_e, mu, k), c_e in e.terms.items():
            _add(out, (mono_p * mono_e, mu + shift, k), c_p * c_e)


def tau_by_partials(spec, e: MixedExpr) -> MixedExpr:
    """The coordinate formula applied to the whole expression: the t-part
    t^2 e_tt + (1 - n) t e_t, then every first and second partial derivative
    of e times its coefficient polynomial and t-power.  The coefficient tables
    are rebuilt here from the structure polynomials; there is no per-monomial
    memo and no integer scaling."""
    table = struct_polys(spec)
    n = spec.homogeneous_dim
    second: dict = {}
    first: dict = {}
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
                    if not dp.is_zero():
                        bucket = first.setdefault(v2, {})
                        bucket[shift] = bucket.get(shift, Polynomial.zero()) + p1 * dp
    out: dict = {}
    for (mono, mu, k), c in e.terms.items():
        if mu:
            _add(out, (mono, mu, k), c * mu * (mu - n))
        if k:
            _add(out, (mono, mu, k - 1), c * k * (2 * mu - n))
            if k >= 2:
                _add(out, (mono, mu, k - 2), c * k * (k - 1))
    partials: dict = {}

    def d1(v: VarIndex) -> MixedExpr:
        if v not in partials:
            partials[v] = partial(e, v)
        return partials[v]

    for (v1, v2), shifts in second.items():
        d2 = partial(d1(v1), v2)
        if d2.is_zero():
            continue
        for shift, poly in shifts.items():
            _accumulate_product(out, poly, d2, shift)
    for v, shifts in first.items():
        d = d1(v)
        if d.is_zero():
            continue
        for shift, poly in shifts.items():
            _accumulate_product(out, poly, d, shift)
    return MixedExpr(out)


# --- the operator's monomial images on Monomial objects ---

def image_by_monomials(tables, mono: Monomial) -> list[dict[Monomial, int]]:
    """The x-part of the operator on one monomial as it was computed before
    monomials were packed: per shift id, target monomial to numerator over
    `tables.image_denominator`, from the operator's compiled coefficients
    (`tables.coefficients`) through `Monomial.derivative` and
    `Monomial.__mul__`, with no field, mask or packed key."""
    acc: list[dict[Monomial, int]] = [{} for _ in tables.shifts]
    for variables, terms in tables.coefficients:
        factor, lowered = mono.derivative(*variables)
        if not factor:
            continue
        for shift, target, a in terms:
            _acc(acc[shift], target * lowered, a * factor)
    return acc


# --- packed forms: the kernel's sums and the slots read flat ---

def slots_by_divmod(packed: int, width: int) -> list[int]:
    """The slots w_0, w_1, ... of P = sum_k w_k 2^(width k), each in
    [-2^(width - 1), 2^(width - 1)), up to the highest nonzero one, read
    here by floor division and the balanced residue, apart from the
    package's shifts and masks."""
    unit, out = 1 << width, []
    while packed:
        packed, w = divmod(packed, unit)
        if 2 * w >= unit:
            w -= unit
            packed += 1
        out.append(w)
    return out


def tau_form_by_dict(basis, form, ahead: int = 1):
    """`laplacian.tau_form` with its sums in a dict: each product added by
    `get(j, 0)`, each id keyed where the dict first inserts it, each image
    made as the loop meets its id.  The kernel's scratch row must give the
    same form in the same key order."""
    d, width, bound, terms = form
    if not terms:
        return form
    factor = _factor(basis, terms)
    if (bound * factor).bit_length() >= width:
        d, width, bound, terms = _widened(form, factor, ahead)
    images, logs, s = basis.images, basis.logs, basis.s
    half = 1 << (width - 1)
    out: dict[int, int] = {}
    get = out.get
    for i, v in terms.items():
        image = images[i]
        if image is None:
            image = _basis_image(basis, i)
        for j, a in image:
            out[j] = get(j, 0) + v * a
        if -half <= v < half:  # slot 0 alone: nothing to lower
            continue
        lowered = (v + half) >> width
        out[i] = get(i, 0) + lowered * logs[i] + ((lowered + half) >> width) * s
    if 0 in out.values():
        out = {j: v for j, v in out.items() if v}
    return d * s, width, bound * factor, out


def flat_form(form) -> dict[tuple, Fraction]:
    """A packed form (`laplacian.Form`: (d, width, bound, terms), per key P =
    sum_k w_k 2^(width k) over d, w_k the numerator of log(t)^k / k!) as
    (key, log power) -> coefficient, its slots read by `slots_by_divmod`."""
    d, width, _, terms = form
    return {
        (key, k): Fraction(w, d * factorial(k))
        for key, packed in terms.items()
        for k, w in enumerate(slots_by_divmod(packed, width))
        if w
    }


# --- the formal operator on node symbols ---

def tau_t(e: MixedExpr, n: Fraction) -> MixedExpr:
    """The pure t-part t^2 e_tt + (1 - n) t e_t, exact and termwise."""
    out: dict = {}
    for (mono, mu, k), c in e.terms.items():
        if mu:
            _acc(out, (mono, mu, k), c * mu * (mu - n))
        if k:
            _acc(out, (mono, mu, k - 1), c * k * (2 * mu - n))
            if k >= 2:
                _acc(out, (mono, mu, k - 2), c * k * (k - 1))
    return MixedExpr._wrap(out)


def formal_tau(spec, tree: TensionTree, e: NodeSymbolExpr) -> NodeSymbolExpr:
    """Push the operator through node symbols:
    tau(s_alpha F) = sum_k s_(alpha,k) t^(2 lambda_k) F + s_alpha tau_t(F),
    dropping symbols whose actual node is zero (absent from the tree)."""
    n = spec.homogeneous_dim
    out: dict = {}
    for alpha, coeff in e.terms.items():
        _acc(out, alpha, tau_t(coeff, n))
        for k in range(1, spec.m + 1):
            child = alpha + (k,)
            if child in tree.nodes:
                _acc(out, child, mul_t_power(coeff, 2 * spec.lam(k)))
    return NodeSymbolExpr._wrap(out)


def node_basis(node) -> dict:
    """A node as a sparse map from independent x-basis functions to their
    coefficients, expanded here apart from the package: the monomials of a
    polynomial node; for a radial node H(rho) * G(x^2), the products
    rho^a log(rho)^b * x^2_j keyed by (a, has_log, j), j = 0 for the
    constant of G."""
    if isinstance(node, Polynomial):
        return dict(node.terms)
    affine = [(0, node.affine.constant), *node.affine.linear]
    return {
        (a, has_log, slot): c * c_g
        for (a, has_log), c in node.radial.terms.items()
        for slot, c_g in affine
        if c_g
    }


def realize(tree: TensionTree, e: NodeSymbolExpr) -> dict:
    """Substitute the tree's nodes into the t-only coefficients of e:
    sum_alpha c_alpha(t) * node_alpha, in canonical sparse form keyed by
    (x-basis function, t-exponent, log-power).  The basis functions are
    linearly independent, so the map is empty exactly when the function is
    zero."""
    out: dict = {}
    for alpha, coeff in e.terms.items():
        node = tree.nodes[alpha] if alpha else tree.seed
        for basis, c_x in node_basis(node).items():
            for (_, mu, k), c_t in coeff.terms.items():
                _acc(out, (basis, mu, k), c_x * c_t)
    return out


def formal_certificate(spec, tree: TensionTree, e: NodeSymbolExpr, p: int) -> tuple:
    """(verified_order, proper, residual_pminus1, residual_p) of
    `polyharm.verify_formal`, from the list of every iterate of `formal_tau`
    up to the first whose realization (`realize`) is zero; a zero iterate is
    the empty sum."""
    valid = {()} | set(tree.nodes)
    current = NodeSymbolExpr({a: c for a, c in e.terms.items() if a in valid})
    iterates = []
    while True:
        iterates.append(current if realize(tree, current) else NodeSymbolExpr())
        if len(iterates) > p or iterates[-1].is_zero():
            break
        current = formal_tau(spec, tree, iterates[-1])
    last = len(iterates) - 1
    order = last if iterates[last].is_zero() else None
    return order, order == p, iterates[min(p - 1, last)], iterates[min(p, last)]


# --- certification by the partial-derivative operator ---

def recurrence_by_exprs(spec, tree, p: int) -> bool:
    """The two-step identities of `polyharm.recurrence_check`, with
    `tau_by_partials` as the operator on a polynomial tree's MixedExpr and
    `formal_tau` on a radial tree's node-symbol sums:

        tau(phi_p) = -n (p-1) phi_{p-1} + (p-1)(p-2) phi_{p-2}
        tau(psi_p) = +n (p-1) psi_{p-1} + (p-1)(p-2) psi_{p-2}

    A resonant phi side is skipped."""
    if p < 1:
        raise ValueError("p must be >= 1")
    n = spec.homogeneous_dim
    ok = True
    for family, builder, sign in (("phi", build_phi, -1), ("psi", build_psi, 1)):
        try:
            current = builder(spec, tree, p)
        except Resonance:
            if family == "phi":
                continue
            raise
        if tree.kind == "radial":
            residual = formal_tau(spec, tree, current)
        else:
            residual = tau_by_partials(spec, current)
        if p >= 2:
            residual = residual - builder(spec, tree, p - 1) * (sign * n * (p - 1))
        if p >= 3:
            residual = residual - builder(spec, tree, p - 2) * ((p - 1) * (p - 2))
        ok = ok and not residual
    return ok


def certificate_by_partials(spec, e: MixedExpr, p: int) -> tuple:
    """(verified_order, proper, residual_pminus1, residual_p) of `polyharm.verify`,
    from the list of every iterate of `tau_by_partials` up to the first zero."""
    iterates = [e]
    while len(iterates) <= p and not iterates[-1].is_zero():
        iterates.append(tau_by_partials(spec, iterates[-1]))
    last = len(iterates) - 1
    order = last if iterates[last].is_zero() else None
    return order, order == p, iterates[min(p - 1, last)], iterates[min(p, last)]
