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
denominator (`_operator`), the eigenvalues as integers over their scale (the
lcm of their denominators), the monomials interned to integer ids and the
memo of the operator's monomial images, bounded by `_MEMO_LIMIT`.  The bound
applies per live spec, not per process: a process that keeps many specs
alive holds one set of tables for each, and a spec's tables are freed with
the spec.  Branch rows are not kept here: they belong to one tree's states,
and `pharmonic` keeps them on the tree.

Functions are carried in an integer form (`Form`): one denominator and a map
from (x-part, t-exponent, log power) to integer numerators, the x-part a
monomial id for a concrete function and a tree state for a formal one, and
the t-exponent an integer e over a unit q that travels beside the form.  The
operator moves an exponent only by 2 lambda_k, so q is fixed for a whole
computation: a tree's scale for every tree form, and for a MixedExpr the lcm
of the scale and its exponent denominators (`to_form`).  The operator is
linear and its x-part does not depend on t, so its one kernel `tau_form` is
the linear extension of images: each monomial's image (a sum of t-shifts
times integer polynomials over the image denominator) is computed once, each
distinct exponent's t-part e (e - n q) / q^2 and 2 e - n q over q is worked
out on integers per application, and a form's terms are pushed through both
on integers, with one gcd reduction per application.  A tree passes its own
state images in place of the monomial images, the tree rule tau(h_S) =
sum_k h_(S,k) t^(2 lambda_k).  `tau` is the operator on MixedExpr, for the
public API only: it converts to the form, applies the kernel and converts
back.  `tension` expands tree nodes, and `pharmonic` builds, iterates and
checks both kinds of function, on forms, so Fractions appear only where a
polynomial, a MixedExpr or a node-symbol sum crosses the public API, where
each distinct exponent becomes one Fraction (`exponents_of`).

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
from typing import Mapping, NamedTuple, Sequence
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

# Most monomials an algebra's tables intern, with their images, before the
# memo is cleared wholesale at the start of a public call, so a long-lived
# process keeps at most this many plus those of one call per live algebra.
_MEMO_LIMIT = 4096

# A function in integer form: (denominator, {(x-part, t-exponent, log
# power): numerator}), with no zero numerator, so the zero function has no
# terms.  The t-exponent is an integer e standing for e / q, the unit q a
# multiple of the algebra's eigenvalue scale that travels beside the form.
# The x-part is a monomial id for a concrete function and a state symbol (a
# state's index in its tree) for a formal one.  Monomial ids are interned in
# the algebra's tables and stay valid until the next `Tables.bound_images`,
# which runs only at the entry of a public call, so a form never outlives the
# call that made it.
Form = tuple[int, dict[tuple, int]]

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
        # the eigenvalues on integers: scale is the lcm of their
        # denominators, shifts[k - 1] is 2 lambda_k and n the homogeneous
        # dimension, both in units of 1 / scale
        self.scale = lcm(*(lam.denominator for lam in spec.lambdas))
        self.shifts = tuple(
            2 * lam.numerator * (self.scale // lam.denominator) for lam in spec.lambdas
        )
        n = spec.homogeneous_dim
        self.n = n.numerator * (self.scale // n.denominator)
        self.image_denominator, self.operator = _operator(spec, self.struct)
        # monomials interned to ids (id -> monomial, monomial -> id) and the
        # image of each id (`_image`); `bound_images` empties all three
        self.monomials: list[Monomial] = []
        self.monomial_ids: dict[Monomial, int] = {}
        self.images: dict[int, _Image] = {}

    def bound_images(self) -> None:
        """Clear the monomial ids and their images once `_MEMO_LIMIT`
        monomials are interned; called only at the entry of a public call."""
        if len(self.monomials) >= _MEMO_LIMIT:
            for memo in (self.monomials, self.monomial_ids, self.images):
                memo.clear()

    def monomial_id(self, mono: Monomial) -> int:
        i = self.monomial_ids.get(mono)
        if i is None:
            i = self.monomial_ids[mono] = len(self.monomials)
            self.monomials.append(mono)
        return i


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


def reduced(denominator: int, numerators: dict) -> Form:
    """The form of numerators over denominator, zeros dropped and the common
    factor of every numerator and the denominator divided out."""
    g = gcd(denominator, *numerators.values())
    if g > 1:
        return denominator // g, {key: v // g for key, v in numerators.items() if v}
    if 0 in numerators.values():
        return denominator, {key: v for key, v in numerators.items() if v}
    return denominator, numerators


def to_form(tables: Tables, e: MixedExpr) -> tuple[Form, int]:
    """e in integer form over the lcm of its coefficient denominators, and
    the unit of its t-exponents: the lcm of the algebra's scale and their
    denominators."""
    d = lcm(*(c.denominator for c in e.terms.values()))
    q = lcm(tables.scale, *(mu.denominator for _, mu, _ in e.terms))
    monomial_id = tables.monomial_id
    return (d, {
        (monomial_id(mono), mu.numerator * (q // mu.denominator), k):
            c.numerator * (d // c.denominator)
        for (mono, mu, k), c in e.terms.items()
    }), q


def exponents_of(form: Form, q: int) -> dict[int, Fraction]:
    """Each distinct t-exponent of a form as a Fraction, e / q."""
    return {e: Fraction(e, q) for e in {e for _, e, _ in form[1]}}


def to_expr(monomials: Sequence[Monomial], form: Form, q: int) -> MixedExpr:
    """The MixedExpr of a form whose x-parts index `monomials` and whose
    t-exponents are in units of 1 / q."""
    d, terms = form
    exponents = exponents_of(form, q)
    return MixedExpr._wrap(
        {
            (monomials[m], exponents[e], k): Fraction(v, d)
            for (m, e, k), v in terms.items()
        }
    )


def tau_form(tables: Tables, form: Form, q: int, images: Mapping | None = None) -> Form:
    """The operator on a form with t-exponents in units of 1 / q: each term
    is pushed through the image of its key's first part, its exponent e
    shifted by 2 lambda_k q, and the t-part of t^(e/q) log(t)^k is added,
    e (e - n q) / q^2, k (2 e - n q) / q and k (k - 1) on the log powers k,
    k - 1 and k - 2.  The images are the monomial images (`_image`) unless
    `images` maps every first part of the form to its image over
    denominator 1, as a tree's state symbols do.  The sum runs on integers
    over d * s, d the form's denominator and s the lcm of the image
    denominator and q^2; the result is reduced once."""
    d, terms = form
    if not terms:
        return form
    if images is None:
        images, image_denominator = tables.images, tables.image_denominator
    else:
        image_denominator = 1
    unit = q // tables.scale
    nq = tables.n * unit
    shifts = [shift * unit for shift in tables.shifts]
    s = lcm(image_denominator, q * q)
    lift, per_q2, per_q = s // image_denominator, s // (q * q), s // q
    factors = {
        e: (e * (e - nq) * per_q2, (2 * e - nq) * per_q, [e + shift for shift in shifts])
        for e in {e for _, e, _ in terms}
    }
    out: dict[tuple, int] = {}
    get = out.get
    for (m, e, k), num in terms.items():
        image = images.get(m)
        if image is None:
            image = _image(tables, m)
        t2, t1, shifted = factors[e]
        scaled = num * lift
        for shift, target, a in image:
            key = (target, shifted[shift], k)
            out[key] = get(key, 0) + scaled * a
        if t2:
            key = (m, e, k)
            out[key] = get(key, 0) + num * t2
        if k:
            key = (m, e, k - 1)
            out[key] = get(key, 0) + num * k * t1
            if k >= 2:
                key = (m, e, k - 2)
                out[key] = get(key, 0) + num * k * (k - 1) * s
    return reduced(d * s, out)


def tau(spec: AlgebraSpec, e: MixedExpr) -> MixedExpr:
    """Image of e under the Laplace-Beltrami operator (coordinate formula),
    computed on e's integer form (`tau_form`)."""
    tables = tables_of(spec)
    tables.bound_images()
    if not e.terms:
        return MixedExpr()
    form, q = to_form(tables, e)
    return to_expr(tables.monomials, tau_form(tables, form, q), q)
