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
denominator (`_operator`) and packed into the tables' fields, the eigenvalues
as integers over their scale, and the memo: monomials and their packed
forms, the image of each packed monomial, and one `Basis` per exponent unit.
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
interns each (x-part, e) to an int id, the x-part a packed monomial or a
tree state; per id it keeps L as ((id, numerator), ...) over s = lcm(image
denominator, q^2) (`_basis_image`), the log factor (2 e - n q) s / q and
e / q as a Fraction.  A `Form` is one denominator and, per log power, basis
id to integer numerator, so the one kernel `tau_form` is a sparse integer
matrix-vector product per log power plus the two log-lowering terms, with
one gcd reduction.  A tree's basis takes its state images, the tree rule
tau(h_S) = sum_k h_(S,k) t^(2 lambda_k), in place of the monomial images.
`tau` is the operator on MixedExpr, for the public API only; `tension` and
`pharmonic` work on forms, so Fractions appear only where a polynomial, a
MixedExpr or a node-symbol sum crosses the public API.

Packed monomials.  Inside the kernel a monomial is one int, its exponent
vector in fixed-width fields of `Tables.width` bits, the variables in
`spec.variables()` order from the lowest bits up (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The product of two monomials is then the sum of their
ints, the exponent of the variable at offset o is (m >> o) & mask, and the
derivative by it lowers m to m - (1 << o).  `_image` works only so, on the
operator's target monomials packed once per width; a Monomial is made only
where a form leaves the kernel (`to_expr`, a tree's node table) and looked
up once per term where one enters (`to_form`).

The width is safe a priori.  Give x^i_j the weight w_i = 2 lambda_i scale,
an integer (`Tables.weights`), and a monomial the sum of its exponents times
their weights (`Tables.weight`).  Validation enforces the grading rule
lambda_alpha = lambda_i + lambda_k on every structure constant, so the ad-power
polynomial p^{i alpha}_{j beta} has weight w_alpha - w_i, and every term of
the coordinate part at layer i, a product of two such polynomials and two
derivatives (or one polynomial, a derivative of another and a derivative),
lowers the weight by exactly w_i: each monomial of L(x^m t^mu) at shift k has
the weight of m minus w_k.  The weight never grows along the kernel, so
every monomial of a computation whose input monomials weigh at most W weighs
at most W, and each of its exponents is at most W / w_min, w_min the least
weight.  Fields of b bits with 2^b > max(W / w_min, the largest exponent of
an operator target) therefore hold every exponent the computation makes.  A
sum of packed monomials in `_image` is the packed product, itself a monomial
of the image, so no field carries into the next; a lowering subtracts only
from a field the factor found nonzero (at least 2 for a repeated variable),
so none borrows.  The tables admit weights up to `Tables.limit` = w_min 2^b
- 1.  Each public call admits the weight of what enters before any form is
made (`Tables.admit`): the seed of `tension.tension_tree`, the seed of a tree
handed to `pharmonic` (`TensionTree.weight`), and each monomial of a
MixedExpr that `to_form` has not packed yet.  A heavier input widens the
fields to its weight and empties the memo, whose keys are packed at the old
width; a tree keeps its node monomials packed per width
(`TensionTree.node_keys`).

The memo is bounded by the entries it holds: the tables count their
monomials and image entries (`Tables.held`), and each basis its ids and
basis-image entries (`Basis.held`), as they are added.  At the entry of a
public call a memo holding `_MEMO_LIMIT` entries is emptied wholesale
(`Tables.bound_images`, `bound_bases`), so ids stay valid for the whole of
the call that made them.

The test suite cross-asserts `tau` against an independent frame-sum
realization A(A(e)) + sum X^i_j(X^i_j(e)) - n t e_t built from the
left-invariant fields, and against the same coordinate formula applied to
the whole expression through its partial derivatives: the redundancy is the
only practical defense against index transcription mistakes in six-index
structure constants.  `_image` is cross-asserted against the same image
computed on Monomial objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Mapping, NamedTuple, Sequence
from .algebra import AlgebraSpec, VarIndex
from .errors import IndexOutOfRange
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

# Most entries an algebra's memo holds (`Tables.held`: monomials, image
# entries, basis ids and basis-image entries) before it is cleared wholesale
# at the start of a public call, so a long-lived process keeps at most this
# many plus those of one call per live algebra; a tree's bases are bounded
# alike (`bound_bases`).  ch6 (x_1*y_2+x_3*y_4+z)^8 at p = 10 holds 143,246
# after its tree, build and certificate, so they never clear between them.
_MEMO_LIMIT = 1 << 18

# (denominator, {log power: {basis id: numerator}}), with no zero numerator
# and no empty group.  Ids stay valid until their basis is cleared, only at
# the entry of a public call, so a form never outlives the call that made it.
Form = tuple[int, dict[int, dict[int, int]]]

# The x-part of the operator on one packed monomial: per shift id s, the
# polynomial at t^(2 lambda_(s+1)) as ((packed monomial, numerator), ...) over
# the algebra's one image denominator.
_Image = tuple[tuple[tuple[int, int], ...], ...]

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
        # units of 1 / scale; a variable's weight is the shift of its layer
        self.scale, lams, self.n = spec.integer_eigenvalues
        self.shifts = tuple(2 * lam for lam in lams)
        self.variables = spec.variables()
        self.weights = {v: self.shifts[v.layer - 1] for v in self.variables}
        self.image_denominator, self.coefficients = _operator(spec, self.struct)
        # the memo: packed monomial -> Monomial and back, the image of each
        # packed monomial (`_image`) and the basis of each exponent unit, with
        # `held` the running count of their entries but the bases' (each
        # basis counts its own); `_clear` empties all four
        self.monomials: dict[int, Monomial] = {}
        self.packed: dict[Monomial, int] = {}
        self.images: dict[int, _Image] = {}
        self.bases: dict[int, Basis] = {}
        self.held = 0
        # no fields until the first public call admits a weight (`admit`)
        self.limit = -1

    def admit(self, weight: int) -> None:
        """Widen the fields, emptying the memo, unless a monomial of weight
        `weight` fits them; called only at the entry of a public call."""
        if weight > self.limit:
            self._fields(weight)

    def _fields(self, weight: int) -> None:
        """Fields for monomials of weight up to `weight` and for the
        operator's target monomials, and the operator packed in them; see
        the module docstring."""
        coefficients, least = self.coefficients, min(self.shifts)
        targets = [e for _, row in coefficients for _, target, _ in row for _, e in target.exps]
        width = self.width = max(weight // least, *targets, 1).bit_length()
        self.mask = (1 << width) - 1
        self.limit = (least << width) - 1
        offsets = self.offsets = {v: i * width for i, v in enumerate(self.variables)}
        rows: dict[VarIndex, list] = {v: [] for v in self.variables}
        for variables, terms in coefficients:
            terms = tuple((s, _pack(offsets, target), a) for s, target, a in terms)
            first, *second = variables
            unit = 1 << offsets[first]
            if second:  # the factor e1 (e2 - [first is second]), then lowered by both
                unit += 1 << offsets[second[0]]
                rows[first].append((offsets[second[0]], int(second[0] == first), unit, terms))
            else:
                rows[first].append((None, 0, unit, terms))
        self.operator = tuple(tuple(row) for row in rows.values())
        self._clear()

    def _clear(self) -> None:
        for memo in (self.monomials, self.packed, self.images, self.bases):
            memo.clear()
        self.held = 0

    def bound_images(self) -> None:
        """Empty the memo once it holds `_MEMO_LIMIT` entries; called only at
        the entry of a public call."""
        if self.held + _held(self.bases) >= _MEMO_LIMIT:
            self._clear()

    def weight(self, mono: Monomial) -> int:
        """sum of 2 lambda_(layer) * exponent over the variables of mono, in
        units of 1 / scale; IndexOutOfRange on a variable the algebra lacks."""
        weights, weight = self.weights, 0
        for v, e in mono.exps:
            w = weights.get(v)
            if w is None:
                raise IndexOutOfRange(f"{v} is not a variable of this algebra")
            weight += w * e
        return weight

    def pack(self, mono: Monomial) -> int | None:
        """mono as one int in the fields, memoized, or None when its weight
        passes them (`admit` first)."""
        x = self.packed.get(mono)
        if x is None:
            if self.weight(mono) > self.limit:
                return None
            x = self.packed[mono] = _pack(self.offsets, mono)
            self.monomials[x] = mono
            self.held += 1
        return x

    def monomial(self, x: int) -> Monomial:
        """The Monomial of a packed monomial, memoized."""
        mono = self.monomials.get(x)
        if mono is None:
            width, mask, rest, exps = self.width, self.mask, x, []
            for v in self.variables:
                if not rest:
                    break
                if rest & mask:
                    exps.append((v, rest & mask))
                rest >>= width
            mono = self.monomials[x] = Monomial(exps)
            self.packed[mono] = x
            self.held += 1
        return mono

    def basis(self, q: int) -> Basis:
        """The basis over packed monomials of exponent unit q."""
        found = self.bases.get(q)
        if found is None:
            found = self.bases[q] = Basis(self, q)
        return found


def _pack(offsets: dict[VarIndex, int], mono: Monomial) -> int:
    packed = 0
    for v, e in mono.exps:
        packed += e << offsets[v]
    return packed


class Basis:
    """The t-monomials (x-part, e) of unit q as ids (see the module
    docstring): x-parts are packed monomials of `tables` unless `images`
    maps each, a tree state, to its image over denominator 1.  `held`
    counts its ids and image entries."""

    __slots__ = (
        "tables", "q", "xparts", "nq", "shifts", "s", "lift",
        "keys", "ids", "monomials", "images", "logs", "exponents", "fractions", "held",
    )

    def __init__(self, tables: Tables, q: int, images: Sequence | None = None) -> None:
        self.tables, self.q, self.xparts = tables, q, images
        unit = q // tables.scale
        self.nq = tables.n * unit
        self.shifts = [shift * unit for shift in tables.shifts]
        image_denominator = tables.image_denominator if images is None else 1
        self.s = lcm(image_denominator, q * q)
        self.lift = self.s // image_denominator
        self.keys: list[tuple[int, int]] = []  # id -> (x-part, e)
        self.ids: dict[tuple[int, int], int] = {}
        self.monomials: list[Monomial | None] = []  # id -> its x-part's Monomial (`to_expr`)
        self.images: list[tuple | None] = []  # id -> L (`_basis_image`)
        self.logs: list[int] = []  # id -> (2 e - n q) s / q
        self.exponents: list[Fraction] = []  # id -> e / q
        self.fractions: dict[int, Fraction] = {}  # e -> e / q
        self.held = 0

    def intern(self, x: int, e: int) -> int:
        key = (x, e)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.monomials.append(None)
            self.images.append(None)
            self.logs.append((2 * e - self.nq) * self.s // self.q)
            exponent = self.fractions.get(e)
            if exponent is None:
                exponent = self.fractions[e] = Fraction(e, self.q)
            self.exponents.append(exponent)
            self.held += 1
        return i


def _held(bases: Mapping[int, Basis]) -> int:
    held = 0
    for basis in bases.values():
        held += basis.held
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
    every image.  `Tables` packs them into its fields."""
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
    """The x-part of the operator on packed monomial m, computed once per
    memo: per variable with a nonzero field e1, the operator's entries whose
    first variable it is, each with its factor (e1, or e1 (e2 - [same
    variable])) and its lowering `unit`, so a derivative is a shift, a mask
    and a subtraction and each product an addition."""
    width, mask, operator = tables.width, tables.mask, tables.operator
    acc: list[dict[int, int]] = [{} for _ in tables.shifts]
    rest, i = m, 0
    while rest:
        e1 = rest & mask
        if e1:
            for o2, repeat, unit, terms in operator[i]:
                f = e1 if o2 is None else e1 * (((m >> o2) & mask) - repeat)
                if not f:
                    continue
                lowered = m - unit
                for s, target, a in terms:
                    part = acc[s]
                    key = target + lowered
                    part[key] = part.get(key, 0) + a * f
        rest >>= width
        i += 1
    image = tables.images[m] = tuple(
        tuple((target, a) for target, a in part.items() if a) for part in acc
    )
    for part in image:
        tables.held += len(part)
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
    intern, lift = basis.intern, basis.lift
    image = [
        (intern(target, e + shift), a * lift)
        for shift, part in zip(basis.shifts, xpart)
        for target, a in part
    ]
    t2 = e * (e - basis.nq) * basis.s // (basis.q * basis.q)
    if t2:
        image.append((i, t2))
    found = basis.images[i] = tuple(image)
    basis.held += len(found)
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
    of unit lcm(scale, its exponent denominators).  Each term costs one
    lookup of its monomial and one of its (x-part, e) key; only a miss
    packs or interns.  A monomial past the fields widens them for all of e
    (`Tables.admit`) and starts again, so it is called only at the entry of
    a public call."""
    terms = e.terms
    d = lcm(*{c.denominator for c in terms.values()})
    q = lcm(tables.scale, *{mu.denominator for _, mu, _ in terms})
    basis = tables.basis(q)
    find_monomial, find = tables.packed.get, basis.ids.get
    groups: dict[int, dict[int, int]] = {}
    for (mono, mu, k), c in terms.items():
        x = find_monomial(mono)
        if x is None:
            x = tables.pack(mono)
            if x is None:
                tables.admit(max(tables.weight(m) for m, _, _ in terms))
                return to_form(tables, e)
        key = (x, mu.numerator * (q // mu.denominator))
        i = find(key)
        if i is None:
            i = basis.intern(*key)
        group = groups.get(k)
        if group is None:
            group = groups[k] = {}
        group[i] = c.numerator * (d // c.denominator)
    return basis, (d, groups)


def to_expr(basis: Basis, form: Form) -> MixedExpr:
    """The MixedExpr of a form on a basis over packed monomials, with one
    Fraction per distinct numerator."""
    d, groups = form
    keys, exponents, monomials = basis.keys, basis.exponents, basis.monomials
    coefficients: dict[int, Fraction] = {}
    terms = {}
    for k, group in groups.items():
        for i, v in group.items():
            c = coefficients.get(v)
            if c is None:
                c = coefficients[v] = Fraction(v, d)
            mono = monomials[i]
            if mono is None:
                mono = monomials[i] = basis.tables.monomial(keys[i][0])
            terms[(mono, exponents[i], k)] = c
    return MixedExpr._wrap(terms)


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
