"""Sparse exact sums, the multivariate polynomials in the coordinates x^i_j,
and the one writer of every sum in text and LaTeX.

`Sparse` is the one core of every finite sum in the package: a map from keys
to nonzero coefficients with equality, hashing, the zero test, sums and
scalar multiples.  `Polynomial` (keyed by monomials) and
`expr.MixedExpr` (keyed by monomial, t-exponent and log power) derive from it
and add their own constructors, product and written form, and Polynomial its
partial derivatives.  `pharmonic.NodeSymbolExpr` (keyed by tree node, with
t-only MixedExpr coefficients) derives from it too, as the public value of a
radial tree's build and certificate residuals, and adds only its written
form and key order.  Every sum prints as `Name(text)` (`Sparse.__repr__`).

Polynomial coefficients are Fractions, exponent maps are kept sparse (no zero
exponents, no zero coefficients), and terms are ordered
graded-lexicographically so that equal polynomials have identical canonical
form and deterministic rendering.

Writing: each type that prints (these sums, `tension.RadialFunction` and
`tension.RadialSeed`) has one body, `_write(style, namer)`, behind both its
`render` and its `latex`.  The bodies share `_sum`, which joins signed terms,
and the two rows of `_Style`, `_TEXT` and `_LATEX`, which hold every spelling
that differs between the two: factor joiner, magnitude, powers, t, log(t),
rho, log(rho), the default variable name, node labels (`_label`, also used
by tension trees) and bracketed products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .algebra import VarIndex
from .scalar import _acc, format_rational


class Monomial:
    """Product of coordinate powers; the empty product is the constant monomial."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps: Iterable[tuple[VarIndex, int]] = ()):
        items = tuple(sorted((VarIndex(*v), int(e)) for v, e in exps if e))
        if any(e < 0 for _, e in items):
            raise ValueError("monomial exponents must be non-negative")
        object.__setattr__(self, "exps", items)
        object.__setattr__(self, "_hash", hash(items))

    @classmethod
    def one(cls) -> "Monomial":
        return _ONE_MONOMIAL

    @classmethod
    def variable(cls, v: VarIndex, power: int = 1) -> "Monomial":
        return cls([(v, power)])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def layers(self) -> set[int]:
        return {v.layer for v, _ in self.exps}

    def derivative(self, *variables: VarIndex) -> tuple[int, "Monomial"]:
        """The derivative by `variables` as (integer factor, monomial); the
        factor is 0 when the derivative vanishes."""
        exps = dict(self.exps)
        factor = 1
        for v in variables:
            e = exps.get(v, 0)
            if not e:
                return 0, _ONE_MONOMIAL
            factor *= e
            exps[v] = e - 1
        return factor, Monomial(exps.items())

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not self.exps:
            return other
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged.items())

    def __repr__(self) -> str:
        if not self.exps:
            return "Monomial(1)"
        return "Monomial(" + "*".join(
            f"{v}^{e}" if e > 1 else str(v) for v, e in self.exps
        ) + ")"


_ONE_MONOMIAL = Monomial()


def _graded(mono: Monomial) -> tuple:
    """The written order of monomials, graded lexicographic: higher total
    degree first, then the higher power of the earliest variable where two
    monomials differ."""
    return -mono.degree, tuple((v.layer, v.slot, -e) for v, e in mono.exps)


class Sparse:
    """A finite sum: `terms` maps each key to its nonzero coefficient.

    Subclasses give the constructors, the product of two sums (`_times`),
    the derivatives, the written form (`_write`, behind `render`) and the
    written order of their keys (`_order`, behind `sorted_terms`); the ring
    operations here only add and scale coefficients, so they serve every
    kind of key.  Equal sums have equal `terms`, so the zero test and
    equality are exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    @classmethod
    def _wrap(cls, terms: dict):
        """A sum of `terms`, which already hold no zero coefficient."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            _acc(out, key, c)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self._wrap(
                {key: c * other for key, c in self.terms.items()} if other else {}
            )
        return self._times(other)

    __rmul__ = __mul__

    def sorted_terms(self) -> list:
        """The terms in written order, by the class's key order `_order`."""
        order = self._order
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        return self._write(_TEXT, namer)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class Polynomial(Sparse):
    """Canonical sparse polynomial: map monomial -> nonzero Fraction."""

    __slots__ = ()
    _order = staticmethod(_graded)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # --- constructors ---

    @classmethod
    def constant(cls, value: Fraction | int) -> "Polynomial":
        return cls({Monomial.one(): Fraction(value)})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def variable(cls, v: VarIndex, power: int = 1) -> "Polynomial":
        return cls({Monomial.variable(v, power): Fraction(1)})

    # --- structure ---

    def layers_used(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            out |= mono.layers()
        return out

    # --- product and calculus ---

    def _times(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(out, m1 * m2, c1 * c2)
        return self._wrap(out)

    def partial(self, v: VarIndex) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            factor, lowered = mono.derivative(v)
            if factor:
                _acc(out, lowered, coeff * factor)
        return self._wrap(out)

    def _write(self, style: _Style, namer: Callable[[VarIndex], str]) -> str:
        return _sum(style, ((c, _factors(style, mono, namer)) for mono, c in self.sorted_terms()))


# --- writing ---

class _Style(NamedTuple):
    """The spellings of one output style.  Format fields take their
    arguments in order: `power` (base, positive integer e), `rational_power`
    (base, the rational e as "p/q"), `label` (depth, comma-separated
    multi-index), `product` (two bracketed sums) and `symbol` (a node
    label, the bracketed sum it multiplies)."""

    join: str  # between the factors of a term
    magnitude: Callable[[Fraction], str]  # a coefficient's absolute value
    power: str
    rational_power: str
    t: str
    logt: str
    rho: str
    logrho: str
    var: Callable[[VarIndex], str]  # a variable's name when no namer is given
    label: str
    product: str
    symbol: str


def _latex_magnitude(q: Fraction) -> str:
    num, slash, den = format_rational(q).partition("/")
    return rf"\frac{{{num}}}{{{den}}}" if slash else num


_TEXT = _Style(
    join="*", magnitude=format_rational, power="{}^{}", rational_power="{}^({})",
    t="t", logt="log(t)", rho="rho", logrho="log(rho)", var=str,
    label="h^{}_({})", product="({}) * ({})", symbol="[{}]*({})",
)
_LATEX = _Style(
    join=r" \, ", magnitude=_latex_magnitude, power="{}^{{{}}}", rational_power="{}^{{{}}}",
    t="t", logt=r"\log(t)", rho=r"\rho", logrho=r"\log(\rho)",
    var=lambda v: f"x^{{{v.layer}}}_{{{v.slot}}}",
    label="h^{{{}}}_{{({})}}", product=r"\left({}\right) \left({}\right)",
    symbol=r"{} \left({}\right)",
)


def _sum(style: _Style, terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """The terms (coefficient, factors), in order, as one signed sum: the
    magnitude is left out when it is 1 and factors follow, a minus sign opens
    a negative first term, " + " or " - " joins the rest, and no term is "0"."""
    write_magnitude, join = style.magnitude, style.join.join
    parts: list[str] = []
    for coeff, factors in terms:
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if magnitude != 1 or not factors:
            factors = [write_magnitude(magnitude), *factors]
        body = join(factors)
        if parts:
            parts.append((" - " if negative else " + ") + body)
        else:
            parts.append("-" + body if negative else body)
    return "".join(parts) or "0"


def _factors(style: _Style, mono: Monomial, namer: Callable[[VarIndex], str]) -> list[str]:
    # exponents are positive integers here, so each is formatted in place
    # rather than through `_power`: monomials are the bulk of a tree's text
    power = style.power
    return [power.format(namer(v), e) if e > 1 else namer(v) for v, e in mono.exps]


def _power(style: _Style, base: str, e: Fraction | int) -> str:
    """base^e for a nonzero rational e."""
    if e.denominator == 1 and e.numerator > 0:
        return base if e.numerator == 1 else style.power.format(base, e.numerator)
    return style.rational_power.format(base, format_rational(e))


def _label(style: _Style, alpha: tuple[int, ...]) -> str:
    """The node h^i_alpha, i the length of alpha; the seed (alpha = ()) is h."""
    if not alpha:
        return "h"
    return style.label.format(len(alpha), ",".join(map(str, alpha)))
