"""Sparse exact sums, and the multivariate polynomials in the coordinates x^i_j.

`Sparse` is the one core of every finite sum in the package: a map from keys
to nonzero coefficients with equality, hashing, the zero test, sums, scalar
multiples and powers.  `Polynomial` (keyed by monomials) and
`expr.MixedExpr` (keyed by monomial, t-exponent and log power) derive from it
and add their own constructors, product and rendering, and Polynomial its
partial derivatives.  `pharmonic.NodeSymbolExpr` (keyed by tree node, with
t-only MixedExpr coefficients) derives from it too, as the public value of a
radial tree's build and certificate residuals, and adds only a constructor
and its rendering; sums and scalar multiples are all `combine` needs of it.

Polynomial coefficients are Fractions, exponent maps are kept sparse (no zero
exponents, no zero coefficients), and terms are ordered
graded-lexicographically so that equal polynomials have identical canonical
form and deterministic rendering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Callable, Iterable, Mapping

from .algebra import VarIndex
from .scalar import _acc, format_rational


@total_ordering
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

    def __lt__(self, other: "Monomial") -> bool:
        # graded lex: lower total degree first; ties broken so that a higher
        # power of the earliest differing variable sorts later ("larger").
        if self.degree != other.degree:
            return self.degree < other.degree
        a = dict(self.exps)
        b = dict(other.exps)
        for v in sorted(set(a) | set(b)):
            ea, eb = a.get(v, 0), b.get(v, 0)
            if ea != eb:
                return ea < eb
        return False

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


class Sparse:
    """A finite sum: `terms` maps each key to its nonzero coefficient.

    Subclasses give the constructors (`one` is where `**` starts), the
    product of two sums (`_times`), the derivatives and the rendering; the
    ring operations here only add and scale coefficients, so they serve
    every kind of key.  Equal sums have equal
    `terms`, so the zero test and equality are exact.
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

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = type(self).one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


class Polynomial(Sparse):
    """Canonical sparse polynomial: map monomial -> nonzero Fraction."""

    __slots__ = ()

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

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

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

    # --- rendering ---

    def render(self, namer: Callable[[VarIndex], str] = str) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            parts.append(format_term(coeff, monomial_factors(mono, namer), first=not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def monomial_factors(mono: Monomial, namer: Callable[[VarIndex], str] = str) -> list[str]:
    return [f"{namer(v)}^{e}" if e > 1 else namer(v) for v, e in mono.exps]


def format_term(coeff: Fraction, factors: list[str], first: bool) -> str:
    """Signed canonical term like "3*x1_1^2" / " - x1_1*t^2" for joined rendering."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    body_parts = ([] if mag == 1 and factors else [format_rational(mag)]) + factors
    body = "*".join(body_parts)
    if first:
        return body if sign == "+" else f"-{body}"
    return f" {sign} {body}"
