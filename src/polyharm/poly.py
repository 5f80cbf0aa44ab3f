"""Sparse exact multivariate polynomials in the coordinates x^i_j.

Coefficients are Fractions, exponent maps are kept sparse (no zero exponents,
no zero coefficients), and terms are ordered graded-lexicographically so that
equal polynomials have identical canonical form and deterministic rendering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Callable, Iterable, Mapping

from .algebra import VarIndex
from .scalar import format_rational


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

    def exponent(self, v: VarIndex) -> int:
        for var, e in self.exps:
            if var == v:
                return e
        return 0

    def layers(self) -> set[int]:
        return {v.layer for v, _ in self.exps}

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


class Polynomial:
    """Canonical sparse polynomial: map monomial -> nonzero Fraction."""

    __slots__ = ("terms",)

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
    def zero(cls) -> "Polynomial":
        return cls()

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

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not mono.exps for mono in self.terms)

    def total_degree(self) -> int:
        return max((mono.degree for mono in self.terms), default=0)

    def layers_used(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            out |= mono.layers()
        return out

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # --- ring operations ---

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = out
        return result

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return result

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            other = Fraction(other)
            result = Polynomial.__new__(Polynomial)
            result.terms = (
                {} if not other else {m: c * other for m, c in self.terms.items()}
            )
            return result
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                acc = out.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # --- calculus / evaluation ---

    def partial(self, v: VarIndex) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono.exponent(v)
            if not e:
                continue
            lowered = Monomial(
                [(w, p - 1 if w == v else p) for w, p in mono.exps]
            )
            acc = out.get(lowered, Fraction(0)) + coeff * e
            if acc:
                out[lowered] = acc
            else:
                out.pop(lowered, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = out
        return result

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
