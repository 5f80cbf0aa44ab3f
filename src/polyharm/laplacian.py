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

A function is a sum of terms c x^m t^mu l^[k], written in the divided
powers l^[k] = log(t)^k / k! of the log, and

    tau(x^m t^mu l^[k]) = l^[k] L(x^m t^mu) + (2 mu - n) x^m t^mu l^[k-1]
                          + x^m t^mu l^[k-2],

where L(x^m t^mu) = mu (mu - n) x^m t^mu + sum_k t^(mu + 2 lambda_k) (x-part
at layer k) depends only on (m, mu); in the powers log(t)^k the two
lowering terms carry k and k (k - 1), in the divided powers they carry
nothing.  The operator moves an exponent only by 2 lambda_k, so a
computation has one unit q, each exponent an integer e over q: a tree's
scale for tree forms, and for a MixedExpr the lcm of the scale and its
exponent denominators (`to_form`).  A `Basis` holds one unit and
interns each (x-part, e) to an int id, the x-part a packed monomial or a
tree state; per id it keeps L as ((id, numerator), ...) over s = lcm(image
denominator, q^2) with its norm (`_basis_image`), the log factor (2 e - n
q) s / q and e / q as a Fraction.  A `Form` is one dict level: per basis
id one integer that packs every log power (below), so the one kernel
`tau_form` is one sparse integer matrix-vector product for all log powers
at once, plus the two lowerings.  A tree's basis takes its state images,
the tree rule tau(h_S) = sum_k h_(S,k) t^(2 lambda_k), in place of the
monomial images.
`tau` is the operator on MixedExpr, for the public API only; `tension` and
`pharmonic` work on forms, so Fractions appear only where a polynomial, a
MixedExpr or a node-symbol sum crosses the public API.  There they go
through their two slots: `to_form` (and `pharmonic._symbol_form`) reads
`_numerator` and `_denominator` of each coefficient and exponent, and
`_expr_terms` makes each distinct coefficient with `scalar._fraction`, one
gcd and two slot writes, because the constructor's checks and the property
calls cost more than the arithmetic of a conversion.

Packed log powers.  A form (d, B, M, {id: P}) holds the function sum over
ids of (P's slots) / d, P = sum_k w_k 2^(B k) one signed int, w_k the
numerator of x^m t^mu l^[k] (so w_k = k! times the numerator of log(t)^k),
by Kronecker substitution 2^B for the divided power (Kronecker 1882; Harvey,
J. Symbolic Comput. 44 (2009) 1502-1510).  The invariant is |w_k| <= M <
2^(B - 1) for every slot, so each w_k is a balanced residue: w_0 is P mod
2^B taken in [-2^(B - 1), 2^(B - 1)), (P - w_0) / 2^B holds the rest, and P
determines its slots.  The one codec `_join`/`_slots` packs and reads
them, by halves past `_LEAF` slots: O(K B log K) for K slots, not O(K^2 B).
`_pack_form`, which packs the forms of `to_form` and
`pharmonic._symbol_form`, needs no halving: it places each log power in
place, w_k 2^(B k) added to its id's int, O(K^2 B) for K slots, because
each of its forms goes straight into `tau` or a certificate of p products,
each of which multiplies every id's K B-bit int by every entry of its image;
below the leaf it saves the codec a call per id.
Sums and integer multiples of packed ints pack the same sums and multiples
of their slots, exactly, whatever the slots are; a slot sum is read back
right if and only if it stays inside the balanced range.  So each kernel
bounds its output slots before it keeps them:

- `tau_form`.  Over d s, slot k of id j of the result is sum_i w_k[i]
  L[i][j] + w_(k+1)[j] (2 e_j - n q) s / q + w_(k+2)[j] s: each P times
  the image L[i] of its id, then P of j lowered once ((P + 2^(B - 1)) >>
  B strips slot 0 as a balanced residue) times the log factor and twice
  times s.  Its magnitude is at most M (sum_i |L[i][j]| + |log factor of
  j| + s) <= M F, F = s + the sum over the input ids i of |L[i]|_1 + |log
  factor of i| (`_factor`, each id's term recorded on the basis as its
  image is made).  The result's bound is M F.  The sums go to the basis's
  scratch row (below).
- `pharmonic.realize`.  The slots of (f, e) are sums over states S of
  c_(S,f) w_k[S], at most M C, C the node table's largest column sum
  (`TensionTree._node_norm`).
- `pharmonic._combination`.  The slots of sum c_i f_i over a common
  denominator are at most sum |c_i| M_i; parts narrower than the sum's
  width are split and joined again, which a recurrence check avoids by
  packing its members at the sum's width.

Before a result is kept its bound is checked against 2^(B - 1).  When it
fails, the input is reduced by the gcd of its denominator and every slot and
repacked at the least width for `ahead` more products by the same factor
(`_widened`), and the kernel runs on that.  Nothing else picks a width: a
form is packed once at the least width for the iterates it is about to
meet (`to_form` for a certificate's p iterates, `pharmonic._member` for
the node table and one iterate, `pharmonic._recurrence_holds` for one
iterate and the sum), and the iterates of a certificate
stay packed and unreduced until the two residuals are read.

The kernel's accumulator.  Basis ids are dense, so `tau_form` sums into a
row indexed by id, Gustavson's sparse accumulator ("Two fast algorithms for
sparse matrices: multiplication and permuted transposition", ACM TOMS 4
(1978) 250-269): `Basis.acc` holds one int per id, appended as the id is
interned, and is all zero between calls.  The factor the kernel checks
first makes every image its input lacks (interning their targets grows the
row), so the product itself changes nothing but the row; it adds each
product into the row and records an id whenever it meets the id's entry at
zero, so each id's first record is where it was first met.  It gathers
the nonzero entries in the order of those first records, which is the
order a dict's insertions would give, so every form and its key order are
those of a dict accumulation (`tests/oracles.py`), and zeroes them, on an
exception too.
The row is not reentrant: one product at a time may run on a basis.

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
the call that made them.  Each id's norm (`Basis.norms`), recorded with its
image, goes uncounted beside the entries it summarizes and is emptied with
them.

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
from typing import Collection, Mapping, NamedTuple, Sequence
from .algebra import AlgebraSpec, VarIndex
from .errors import BudgetExceeded, IndexOutOfRange
from .expr import MixedExpr
from .poly import Monomial, Polynomial
from .scalar import _acc, _fraction


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

# (d, width, bound, {key: P}): per key, a basis id (a (node basis function,
# exponent) pair for a realization), one packed int P = sum_k w_k 2^(width
# k) over denominator d, w_k the numerator of log(t)^k / k! (see the module
# docstring), every |w_k| at most bound and bound < 2^(width - 1), with no
# zero P.  Ids stay valid until their basis is cleared, only at the entry of
# a public call, so a form never outlives the call that made it.
Form = tuple[int, int, int, dict]


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
        "tables", "q", "xparts", "nq", "shifts", "s", "lift", "keys", "ids",
        "monomials", "images", "norms", "logs", "exponents", "fractions", "acc", "held",
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
        self.norms: list[int | None] = []  # id -> |L|_1 + |log factor|, made with L
        self.logs: list[int] = []  # id -> (2 e - n q) s / q
        self.exponents: list[Fraction] = []  # id -> e / q
        self.fractions: dict[int, Fraction] = {}  # e -> e / q
        self.acc: list[int] = []  # id -> 0, `tau_form`'s scratch row
        self.held = 0

    def intern(self, x: int, e: int) -> int:
        key = (x, e)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.monomials.append(None)
            self.images.append(None)
            self.norms.append(None)
            self.logs.append((2 * e - self.nq) * self.s // self.q)
            exponent = self.fractions.get(e)
            if exponent is None:
                exponent = self.fractions[e] = Fraction(e, self.q)
            self.exponents.append(exponent)
            self.acc.append(0)
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
    """L on id i = (x, e) over s, memoized with the id's norm, |L|_1 + |log
    factor| (`Basis.norms`): each entry a at shift k of x's image as a s /
    (image denominator) on (target, e + 2 lambda_k q), then e (e - n q) s /
    q^2 on i unless zero; no two entries share an id."""
    x, e = basis.keys[i]
    xparts = basis.xparts
    if xparts is None:
        xpart = basis.tables.images.get(x)
        if xpart is None:
            xpart = _image(basis.tables, x)
    else:
        xpart = xparts[x]
    find, lift = basis.ids.get, basis.lift
    image, norm = [], 0
    for shift, part in zip(basis.shifts, xpart):
        for target, a in part:
            key = (target, e + shift)
            j = find(key)
            image.append((basis.intern(*key) if j is None else j, a * lift))
            norm += abs(a)
    t2 = e * (e - basis.nq) * basis.s // (basis.q * basis.q)
    if t2:
        image.append((i, t2))
    found = basis.images[i] = tuple(image)
    basis.norms[i] = lift * norm + abs(t2) + abs(basis.logs[i])
    basis.held += len(found)
    return found


def _width(bound: int) -> int:
    """The fewest bits per slot that hold every |w| <= bound as a balanced
    residue: bound < 2^(width - 1)."""
    return bound.bit_length() + 1


# --- the slot codec: every packed int is joined, placed and split here ---

# The most slots joined or split one at a time: on ch2 z^8 psi rows, p = 9-200, a leaf of 12
# costs at most 1.10x the best leaf at each p; 8 up to 1.41x (p = 9-12), 16 up to 1.21x (p > 32).
_LEAF = 12


def _join(slots: Sequence[int], width: int) -> int:
    """sum_k slots[k] 2^(width k), by halves past `_LEAF` slots, so K slots
    of B bits cost O(K B log K) (Brent and Zimmermann, Modern Computer
    Arithmetic, 1.7)."""
    if len(slots) > _LEAF:
        mid = len(slots) // 2
        return _join(slots[:mid], width) + (_join(slots[mid:], width) << width * mid)
    packed = 0
    for w in reversed(slots):
        packed = (packed << width) + w
    return packed


def _slots(packed: int, width: int) -> list[int]:
    """The slots in [-2^(width - 1), 2^(width - 1)), width >= 2, that `_join`
    packs, up to the highest nonzero one; past `_LEAF` slots the low half is
    read off its low bits alone and its one slot of carry goes to the high."""
    if packed.bit_length() > _LEAF * width:
        mid = packed.bit_length() // width // 2
        low = _slots(packed & ((1 << width * mid) - 1), width)
        carry = low.pop() if len(low) > mid else 0
        return low + [0] * (mid - len(low)) + _slots((packed >> width * mid) + carry, width)
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    while packed:
        w = packed & mask
        packed >>= width
        if w >= half:
            w -= mask + 1
            packed += 1
        out.append(w)
    return out


def _pack_form(d: int, terms: dict[int, int], higher: list, headroom: int = 1) -> Form:
    """The form over d whose slot 0 of id i is terms[i] (0 for an id with
    only higher slots) and whose slot k > 0 is w for each (i, k, w) of
    `higher`, one per (i, k), at the least width that holds `headroom`
    times their bound; `terms` becomes the form's.  Each higher slot is
    placed in place, w 2^(width k) added to its id's int: quadratic in an
    id's slots, which the certificate each form goes into bounds (see the
    module docstring)."""
    bound = max(map(abs, terms.values()), default=0)
    for _, _, w in higher:
        if abs(w) > bound:
            bound = abs(w)
    width = _width(bound * headroom)
    for i, k, w in higher:
        terms[i] += w << width * k
    return d, width, bound, terms


def _widened(form: Form, factor: int, ahead: int = 1) -> Form:
    """The form reduced by the gcd of its denominator and every slot, and
    repacked wide enough for `ahead` products of its bound by `factor`: what
    a kernel does with a form whose bound times its factor passes its slots
    (see the module docstring)."""
    d, width, _, terms = form
    rows = {i: _slots(v, width) for i, v in terms.items()}
    every = [w for row in rows.values() for w in row]
    g = gcd(d, *every)
    bound = max(map(abs, every), default=0) // g
    wider = _width(bound * factor**ahead)
    return d // g, wider, bound, {i: _join([w // g for w in row], wider) for i, row in rows.items()}


# --- forms: the conversions and the kernel ---

# The highest log power a form takes, twice the order budget (a member of
# order p carries p - 1): `_pack_form` is quadratic in an id's log powers
# (`verify` of log(t)^4096 at p = 2: 2.0 s and 173 MB, Python 3.11).
_LOG_BUDGET = 2048


def _divided(k: int, w: int) -> int:
    """k! w, the slot of w log(t)^k on log(t)^k / k!, in either conversion
    into a form (`to_form`, `pharmonic._symbol_form`); a k past
    `_LOG_BUDGET` is BudgetExceeded before k! is made."""
    if k > _LOG_BUDGET:
        raise BudgetExceeded(f"log(t)^{k} passes the log-power budget {_LOG_BUDGET}")
    return factorial(k) * w


def to_form(tables: Tables, e: MixedExpr, ahead: int = 0) -> tuple[Basis, Form]:
    """e's form over the lcm of its coefficient denominators, on the basis
    of unit lcm(scale, its exponent denominators), packed once wide enough
    for `ahead` iterates of `tau_form` (`_factor`).  Each term costs one
    lookup of its monomial and one of its (x-part, e) key; only a miss
    packs or interns.  A monomial past the fields widens them for all of e
    (`Tables.admit`) and starts again, so it is called only at the entry of
    a public call; a log power past `_LOG_BUDGET` is BudgetExceeded."""
    terms = e.terms
    d = lcm(*{c._denominator for c in terms.values()})
    q = lcm(tables.scale, *{mu._denominator for _, mu, _ in terms})
    basis = tables.basis(q)
    find_monomial, find = tables.packed.get, basis.ids.get
    constant: dict[int, int] = {}
    higher = []
    for (mono, mu, k), c in terms.items():
        x = find_monomial(mono)
        if x is None:
            x = tables.pack(mono)
            if x is None:
                tables.admit(max(tables.weight(m) for m, _, _ in terms))
                return to_form(tables, e, ahead)
        key = (x, mu._numerator * (q // mu._denominator))
        i = find(key)
        if i is None:
            i = basis.intern(*key)
        w = c._numerator * (d // c._denominator)
        if k:
            higher.append((i, k, _divided(k, w)))
            constant.setdefault(i, 0)
        else:
            constant[i] = w
    headroom = _factor(basis, constant) ** ahead if ahead else 1
    return basis, _pack_form(d, constant, higher, headroom)


def _expr_terms(form: Form, xparts: Sequence | Mapping, exponents: Sequence) -> dict:
    """{(xparts[key], exponents[key], k): coefficient of log(t)^k} over every
    nonzero slot of a form.  Each coefficient w / (d k!) is made once per
    value, cached by its numerator over d: w / k! as an int when k! divides
    w, else as a reduced pair."""
    d, width, _, terms = form
    half = 1 << (width - 1)
    cache: dict = {}
    find = cache.get
    factorials: list[int] = []
    denominators = [d, d]
    out = {}
    for key, v in terms.items():
        xpart, exponent = xparts[key], exponents[key]
        if -half <= v < half:  # slot 0 alone: no log, no split
            c = find(v)
            if c is None:
                c = cache[v] = _fraction(v, d)
            out[(xpart, exponent, 0)] = c
            continue
        for k, w in enumerate(_slots(v, width)):
            if w:
                value = w
                if k > 1:
                    while len(denominators) <= k:
                        factorials.append(factorial(len(denominators)))
                        denominators.append(d * factorials[-1])
                    f = factorials[k - 2]
                    value, r = divmod(w, f)
                    if r:
                        g = gcd(r, f)
                        value = (w // g, f // g)
                c = find(value)
                if c is None:
                    c = cache[value] = _fraction(w, denominators[k])
                out[(xpart, exponent, k)] = c
    return out


def to_expr(basis: Basis, form: Form) -> MixedExpr:
    """The MixedExpr of a form on a basis over packed monomials, with one
    Fraction per distinct coefficient (`_expr_terms`)."""
    keys, monomials = basis.keys, basis.monomials
    for i in form[3]:
        if monomials[i] is None:
            monomials[i] = basis.tables.monomial(keys[i][0])
    return MixedExpr._wrap(_expr_terms(form, monomials, basis.exponents))


def _factor(basis: Basis, ids: Collection[int]) -> int:
    """s + the sum over ids of |L|_1 + |log factor|, the norm each id's
    image records (`_basis_image`), the image made first where an id lacks
    one.  No `tau_form` multiplies a slot bound by more (see the module
    docstring)."""
    norms = basis.norms
    if None in map(norms.__getitem__, ids):
        for i in ids:
            if norms[i] is None:
                _basis_image(basis, i)
    return basis.s + sum(map(norms.__getitem__, ids))


def tau_form(basis: Basis, form: Form, ahead: int = 1) -> Form:
    """The operator on a form over d s: each packed int through L of its
    id, and its slots lowered once times (2 e - n q) s / q and twice times
    s to its own id, every log power in one product.  The slot bound is
    checked first: when its bound times `_factor` of its ids does not fit
    its slots, the form is reduced and repacked (`_widened`) wide enough for
    `ahead` iterates.  The sums go to the basis's scratch row `acc`, each id
    recorded when it is met at zero, and are gathered in that order and the
    row zeroed (see the module docstring)."""
    d, width, bound, terms = form
    if not terms:
        return form
    factor = _factor(basis, terms)
    if (bound * factor).bit_length() >= width:
        d, width, bound, terms = _widened(form, factor, ahead)
    # `_factor` made every image of the input, so the product changes
    # nothing but the row
    images, acc, logs, s = basis.images, basis.acc, basis.logs, basis.s
    half = 1 << (width - 1)
    touched: list[int] = []
    touch = touched.append
    try:
        for i, v in terms.items():
            for j, a in images[i]:
                if acc[j]:
                    acc[j] += v * a
                else:
                    acc[j] = v * a
                    touch(j)
            if -half <= v < half:  # slot 0 alone: nothing to lower
                continue
            lowered = (v + half) >> width
            twice = (lowered + half) >> width
            if not acc[i]:
                touch(i)
            acc[i] += lowered * logs[i] + twice * s
    except BaseException:
        for j in touched:
            acc[j] = 0
        raise
    out: dict[int, int] = {}
    for j in touched:
        v = acc[j]
        if v:
            out[j] = v
            acc[j] = 0
    return d * s, width, bound * factor, out


def tau(spec: AlgebraSpec, e: MixedExpr) -> MixedExpr:
    """Image of e under the Laplace-Beltrami operator (coordinate formula),
    computed on e's integer form (`tau_form`)."""
    tables = tables_of(spec)
    tables.bound_images()
    if not e.terms:
        return MixedExpr()
    basis, form = to_form(tables, e, 1)
    return to_expr(basis, tau_form(basis, form))
