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
the monomials and t-exponents interned to integer ids, and the memos of the
operator's monomial images and of each exponent's t-part, all bounded by
`_MEMO_LIMIT`.  The bound applies per memo of each live spec, not per
process: a process that keeps many specs alive holds one set of tables for
each, and a spec's tables are freed with the spec.  Branch rows are not kept
here: they belong to one tree's states, and `pharmonic` keeps them on the
tree.

Functions are carried in an integer form (`Form`): one denominator and a map
from (x-part, exponent id, log power) to integer numerators, the x-part a
monomial id for a concrete function and a tree state for a formal one.  The
operator is linear and its x-part does not depend on t, so its one kernel
`tau_form` is the linear extension of images: each monomial's
image (a sum of t-shifts times integer polynomials over one per-algebra
denominator) is computed once, each exponent's t-part factors mu (mu - n)
and 2 mu - n and shifted exponent ids are computed once, and a form's terms
are pushed through both on integers, with one gcd reduction per
application.  A tree passes its own state images in place of the monomial
images, the tree rule tau(h_S) = sum_k h_(S,k) t^(2 lambda_k), and the
t-part comes from the same memo.  `tau` is the operator on MixedExpr, for
the public API only: it converts to the form, applies the kernel and converts
back.  `tension` expands tree nodes, and `pharmonic` builds, iterates and
checks both kinds of function, on forms, so Fractions appear only where a
polynomial, a MixedExpr or a node-symbol sum crosses the public API.

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
from math import comb, factorial, gcd, lcm
from typing import Mapping
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

# Most entries each memo of an algebra's tables keeps: the interned monomials
# and t-exponents with the operator's images and t-parts.
# A memo is cleared wholesale at the start of a public call once it holds this
# many, so a long-lived process keeps at most this many plus those of one
# call, per memo of a live algebra.
_MEMO_LIMIT = 4096

# A function in integer form: (denominator, {(x-part, t-exponent id, log
# power): numerator}), with no zero numerator, so the zero function has no
# terms.  The x-part is a monomial id for a concrete function and a state
# symbol (a state's index in its tree) for a formal one.  Ids are interned in
# the algebra's tables and stay valid until the next `Tables.bound_images`,
# which runs only at the entry of a public call, so a form never outlives the
# call that made it.
Form = tuple[int, dict[tuple, int]]

# The x-part of the operator on one monomial: sum over s of t^(shifts[s])
# times a polynomial, as ((shift id, monomial id, numerator), ...) over the
# algebra's one image denominator.
_Image = tuple[tuple[int, int, int], ...]

# The t-part of the operator at one t-exponent mu, as (t, mu (mu - n) * t,
# (2 mu - n) * t, ids of mu + each shift): two factors as integers over t.
_TPart = tuple[int, int, int, tuple[int, ...]]

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
        self.n = spec.homogeneous_dim
        self.ad_rows = _ad_rows(spec)
        self.struct = _struct_table(spec, self.ad_rows)
        # 2 lambda_i, with shift id i - 1
        self.shifts = tuple(2 * spec.lam(i) for i in range(1, spec.m + 1))
        self.coefficients = _coefficients(spec, self.struct)
        # every image coefficient is a sum of integer multiples of these
        # polynomials' coefficients, so their lcm serves every image
        self.image_denominator = lcm(
            *(
                c.denominator
                for shifts in self.coefficients.values()
                for poly in shifts.values()
                for c in poly.terms.values()
            )
        )
        # monomials and t-exponents interned to ids (id -> value, value -> id),
        # the image of each monomial id (`_image`) and the t-part of each
        # exponent id (`_t_part`); `bound_images` clears all six together
        self.monomials: list[Monomial] = []
        self.monomial_ids: dict[Monomial, int] = {}
        self.exponents: list[Fraction] = []
        self.exponent_ids: dict[Fraction, int] = {}
        self.images: dict[int, _Image] = {}
        self.t_parts: dict[int, _TPart] = {}
        # how many times `bound_images` has cleared the ids: an id kept
        # outside the tables is valid while this count is unchanged
        self.clears = 0

    def bound_images(self) -> None:
        """Clear the ids, and every memo holding one (the images and the
        t-parts), once `_MEMO_LIMIT` monomials or exponents are interned;
        called only at the entry of a public call."""
        if max(len(self.monomials), len(self.exponents)) >= _MEMO_LIMIT:
            for memo in (
                self.monomials, self.monomial_ids, self.exponents,
                self.exponent_ids, self.images, self.t_parts,
            ):
                memo.clear()
            self.clears += 1

    def monomial_id(self, mono: Monomial) -> int:
        i = self.monomial_ids.get(mono)
        if i is None:
            i = self.monomial_ids[mono] = len(self.monomials)
            self.monomials.append(mono)
        return i

    def exponent_id(self, mu: Fraction) -> int:
        i = self.exponent_ids.get(mu)
        if i is None:
            i = self.exponent_ids[mu] = len(self.exponents)
            self.exponents.append(mu)
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


def _image(tables: Tables, m: int) -> _Image:
    """The x-part of the operator on monomial id m, computed once per memo."""
    mono = tables.monomials[m]
    acc: dict[tuple[int, Monomial], Fraction] = {}
    for variables, shifts in tables.coefficients.items():
        factor, lowered = mono.derivative(*variables)
        if not factor:
            continue
        for shift, poly in shifts.items():
            for target, c in poly.terms.items():
                _acc(acc, (shift, target * lowered), c * factor)
    denominator = tables.image_denominator
    image = tables.images[m] = tuple(
        (shift, tables.monomial_id(target), c.numerator * (denominator // c.denominator))
        for (shift, target), c in acc.items()
    )
    return image


def _t_part(tables: Tables, e: int) -> _TPart:
    """The t-part factors of exponent id e, computed once per memo."""
    mu, n = tables.exponents[e], tables.n
    t2, t1 = mu * (mu - n), 2 * mu - n
    t = lcm(t2.denominator, t1.denominator)
    part = tables.t_parts[e] = (
        t,
        t2.numerator * (t // t2.denominator),
        t1.numerator * (t // t1.denominator),
        tuple(tables.exponent_id(mu + shift) for shift in tables.shifts),
    )
    return part


def reduced(denominator: int, numerators: dict) -> Form:
    """The form of numerators over denominator, zeros dropped and the common
    factor of every numerator and the denominator divided out."""
    g = gcd(denominator, *numerators.values())
    if g > 1:
        return denominator // g, {key: v // g for key, v in numerators.items() if v}
    if 0 in numerators.values():
        return denominator, {key: v for key, v in numerators.items() if v}
    return denominator, numerators


def to_form(tables: Tables, e: MixedExpr) -> Form:
    """e in integer form over the lcm of its coefficient denominators."""
    d = lcm(*(c.denominator for c in e.terms.values()))
    monomial_id, exponent_id = tables.monomial_id, tables.exponent_id
    return d, {
        (monomial_id(mono), exponent_id(mu), k): c.numerator * (d // c.denominator)
        for (mono, mu, k), c in e.terms.items()
    }


def to_expr(tables: Tables, form: Form) -> MixedExpr:
    """The MixedExpr of a form."""
    d, terms = form
    monomials, exponents = tables.monomials, tables.exponents
    return MixedExpr._wrap(
        {
            (monomials[m], exponents[e], k): Fraction(v, d)
            for (m, e, k), v in terms.items()
        }
    )


def tau_form(tables: Tables, form: Form, images: Mapping | None = None) -> Form:
    """The operator on a form: each term is pushed through the image of its
    key's first part with the t-shifts of its exponent, and the t-part of its
    exponent (`_t_part`) is added.  The images are the monomial images
    (`_image`) unless `images` maps every first part of the form to its image
    over denominator 1, as a tree's state symbols do.  The sum runs on
    integers over d * s, d the form's denominator and s the lcm of the image
    denominator and the t-part denominators of the form's exponents; the
    result is reduced once."""
    d, terms = form
    if not terms:
        return form
    if images is None:
        images, image_denominator = tables.images, tables.image_denominator
    else:
        image_denominator = 1
    t_parts = tables.t_parts
    parts = {
        e: t_parts[e] if e in t_parts else _t_part(tables, e)
        for e in {e for _, e, _ in terms}
    }
    s = lcm(image_denominator, *(part[0] for part in parts.values()))
    scale = s // image_denominator
    factors = {
        e: (t2 * (s // t), t1 * (s // t), shifted)
        for e, (t, t2, t1, shifted) in parts.items()
    }
    out: dict[tuple, int] = {}
    get = out.get
    for (m, e, k), num in terms.items():
        image = images.get(m)
        if image is None:
            image = _image(tables, m)
        t2, t1, shifted = factors[e]
        scaled = num * scale
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
    return to_expr(tables, tau_form(tables, to_form(tables, e)))
