"""The closed expression class sum of c * (polynomial in x) * t^mu * log(t)^k.

The grading operator image of any member stays in the class, which is what
makes exact iteration (and hence exact certification) possible.  Exponents mu
are rationals, log powers are non-negative integers.  Canonical form = sparse
map keyed by (monomial, mu, logpow) with nonzero Fraction values; equality of
maps is the authoritative zero test.  `MixedExpr` is a `poly.Sparse`, which
gives it equality, hashing, sums and scalar multiples; this module adds its
product, its written form (through the writer in `poly`) and the parser.  The
operator acts on it through the integer form of `laplacian`, so it carries no
calculus of its own.

An expression whose every monomial is constant is "t-only" (the coefficient
functions f/g of the main construction live there); one with mu = 0 and
logpow = 0 everywhere is t-independent and converts back to a Polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Callable, Mapping

from .algebra import AlgebraSpec, VarIndex
from .errors import BudgetExceeded, ParseError
from .poly import _LATEX, Monomial, Polynomial, Sparse, _factors, _graded, _power, _Style, _sum
from .scalar import _acc, decimal_int

# key: (monomial, t-exponent, log-power)
Key = tuple[Monomial, Fraction, int]


class MixedExpr(Sparse):
    __slots__ = ()
    # written order: by monomial, then rising t-power and log power
    _order = staticmethod(lambda key: (_graded(key[0]), key[1], key[2]))

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        clean: dict[Key, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    mono, mu, logpow = key
                    clean[(mono, Fraction(mu), int(logpow))] = coeff
        self.terms = clean

    # --- constructors ---

    @classmethod
    def constant(cls, value: Fraction | int) -> "MixedExpr":
        return cls({(Monomial.one(), Fraction(0), 0): Fraction(value)})

    @classmethod
    def one(cls) -> "MixedExpr":
        return cls.constant(1)

    @classmethod
    def from_polynomial(
        cls, p: Polynomial, mu: Fraction | int = 0, logpow: int = 0
    ) -> "MixedExpr":
        mu = Fraction(mu)
        return cls({(mono, mu, logpow): c for mono, c in p.terms.items()})

    # --- structure ---

    def is_t_independent(self) -> bool:
        return all(mu == 0 and logpow == 0 for _, mu, logpow in self.terms)

    def as_polynomial(self) -> Polynomial:
        if not self.is_t_independent():
            raise ValueError("expression depends on t; not a polynomial in x")
        return Polynomial({mono: c for (mono, _, _), c in self.terms.items()})

    # --- product ---

    def _times(self, other: "MixedExpr | Polynomial") -> "MixedExpr":
        if isinstance(other, Polynomial):
            other = MixedExpr.from_polynomial(other)
        out: dict[Key, Fraction] = {}
        for (m1, mu1, k1), c1 in self.terms.items():
            for (m2, mu2, k2), c2 in other.terms.items():
                _acc(out, (m1 * m2, mu1 + mu2, k1 + k2), c1 * c2)
        return self._wrap(out)

    # --- rendering ---

    def _write(self, style: _Style, namer: Callable[[VarIndex], str]) -> str:
        terms = []
        for (mono, mu, logpow), c in self.sorted_terms():
            factors = _factors(style, mono, namer)
            if mu:
                factors.append(_power(style, style.t, mu))
            if logpow:
                factors.append(_power(style, style.logt, logpow))
            terms.append((c, factors))
        return _sum(style, terms)

    def latex(self, namer: Callable[[VarIndex], str] | None = None) -> str:
        return self._write(_LATEX, namer or _LATEX.var)


# --- parsing ---

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)
_FULL_VAR_RE = re.compile(r"^x(\d+)_(\d+)$")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                if text[self.pos:].strip():
                    raise ParseError(
                        f"unexpected character {text[self.pos]!r}", self.pos
                    )
                break
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            self.pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])


# The most terms a power of a sum may expand to, by the bound C(T + e - 1,
# T - 1) on the monomials of degree e in T terms, which is also the number of
# terms the multinomial expansion (`_sum_power`) makes: on ch4,
# (x_1+x_2+x_3+y_1+y_2+y_3+z)^200 passes the depth budget but would expand
# eagerly to C(206, 6) ~ 10^11 terms.
_TERM_BUDGET = 2_000


def _check_power(terms: dict[Key, Fraction], e: int) -> None:
    """Refuse a power of a sum before expanding it when its term bound passes
    `_TERM_BUDGET`, or when the term bound times the bits of its longest
    coefficient's power (`_bits` * e) passes 100 * `_BIT_BUDGET`, as
    (2^50*x1_1 + 3^31*x1_2)^1999 would: 2,000 terms of ~100,000 bits.  The
    term bound is built up one factor at a time, C(n - k + i, i) for
    i = 1..k, and stops once past the budget."""
    count = len(terms)
    n, k = count + e - 1, min(count - 1, e)
    bound = 1
    for i in range(1, k + 1):
        bound = bound * (n - k + i) // i
        if bound > _TERM_BUDGET:
            raise BudgetExceeded(
                f"a power of a {count}-term sum to the {e} may expand to more than "
                f"{_TERM_BUDGET} terms; the term budget is {_TERM_BUDGET}"
            )
    if bound * max(map(_bits, terms.values())) * e > 100 * _BIT_BUDGET:
        raise BudgetExceeded(
            f"a power of a {count}-term sum to the {e} passes the coefficient budget "
            f"of {100 * _BIT_BUDGET} bits for a whole expansion"
        )


# The deepest nesting of parenthesized groups the parser accepts.  Each level
# costs four Python frames of the descent, so 300 levels would pass the
# interpreter's default recursion limit of 1000; this leaves room for callers.
_NESTING_LIMIT = 100

# A product of atoms, kept as one term until it joins a sum:
# (coefficient, monomial, t-exponent, log power).  The parser's other value
# is a MixedExpr of any other number of terms.
_Term = tuple[Fraction, Monomial, Fraction, int]
_ZERO, _ONE = Fraction(0), Fraction(1)
_ONE_MONO = Monomial.one()
_T: _Term = (_ONE, _ONE_MONO, _ONE, 0)
_LOG: _Term = (_ONE, _ONE_MONO, _ZERO, 1)


# The most bits a power of a constant may need, counted before it is made as
# (bit length - 1) * e, a lower bound on the bits of c**e: 2^100000000 would
# otherwise take 0.6 s to make 100,000,001 bits.  10^5 bits is some 30,000
# digits, seven times what the interpreter prints by default.
_BIT_BUDGET = 100_000


def _bits(c: Fraction) -> int:
    """Bit length - 1 of c's longer part: (bits - 1) * e is a lower bound on
    the bits of c**e."""
    return max(c.numerator.bit_length(), c.denominator.bit_length()) - 1


def _term_power(term: _Term, e: int) -> _Term:
    """term^e; a coefficient whose power passes `_BIT_BUDGET` is refused
    before the power is made."""
    c, mono, mu, logpow = term
    if _bits(c) * e > _BIT_BUDGET:
        raise BudgetExceeded(
            f"a power of a constant passes the coefficient budget of {_BIT_BUDGET} bits"
        )
    return c**e, Monomial([(v, x * e) for v, x in mono.exps]), mu * e, logpow * e


def _sum_power(terms: dict[Key, Fraction], e: int) -> dict[Key, Fraction]:
    """(sum of terms)^e by the multinomial theorem: each composition
    e = k_1 + ... + k_T once, as e! / (k_1! ... k_T!) times the product of
    term_i^k_i, the last term taking what the others leave; a composition
    is complete as soon as nothing is left."""
    powers = [[_term_power((c, *key), k) for k in range(e + 1)] for key, c in terms.items()]
    last = len(powers) - 1
    out: dict[Key, Fraction] = {}
    stack = [(0, e, _ONE, _ONE_MONO, _ZERO, 0)]
    while stack:
        i, left, c, mono, mu, logpow = stack.pop()
        if i == last or not left:
            pc, pmono, pmu, plog = powers[i][left]
            _acc(out, (mono * pmono, mu + pmu, logpow + plog), c * pc)
            continue
        stack.append((i + 1, left, c, mono, mu, logpow))
        for k in range(1, left + 1):
            pc, pmono, pmu, plog = powers[i][k]
            stack.append(
                (i + 1, left - k, c * pc * comb(left, k), mono * pmono, mu + pmu, logpow + plog)
            )
    return out


def _as_expr(value: "_Term | MixedExpr") -> MixedExpr:
    """A parser value as a MixedExpr, for the product of multi-term factors."""
    if type(value) is not tuple:
        return value
    c, mono, mu, logpow = value
    return MixedExpr._wrap({(mono, mu, logpow): c} if c else {})


class _Parser:
    """Recursive descent for: rationals, x{i}_{j} / aliases, t, log(t), + - * ^.

    Rational exponents (parenthesized) and negative exponents are legal on t
    only; x-powers are positive integers and log powers non-negative integers.
    Groups nested past `_NESTING_LIMIT` are a ParseError, and so is an
    integer literal past the interpreter's digit limit; a power of a
    constant past `_BIT_BUDGET` is BudgetExceeded.

    Each term is made once: a product or power of single terms multiplies
    their parts directly, every summand of a sum is added into one dict, and
    a power of a sum is expanded term by term (`_sum_power`) once
    `_check_power` has passed it.
    """

    def __init__(self, text: str, spec: AlgebraSpec | None = None):
        self.toks = _Tokenizer(text)
        self.spec = spec
        self.depth = 0
        self.variables: dict[str, Monomial] = {}

    def parse(self) -> MixedExpr:
        result = self._expr()
        tok = self.toks.peek()
        if tok is not None:
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return MixedExpr._wrap(result)

    def _expr(self) -> dict[Key, Fraction]:
        out: dict[Key, Fraction] = {}
        negate = False
        tok = self.toks.peek()
        if tok and tok[:2] == ("op", "-"):
            self.toks.next()
            negate = True
        while True:
            summand = self._term()
            if type(summand) is tuple:
                c, mono, mu, logpow = summand
                _acc(out, (mono, mu, logpow), -c if negate else c)
            else:
                for key, c in summand.terms.items():
                    _acc(out, key, -c if negate else c)
            tok = self.toks.peek()
            if not (tok and tok[0] == "op" and tok[1] in "+-"):
                return out
            self.toks.next()
            negate = tok[1] == "-"

    def _term(self) -> "_Term | MixedExpr":
        product = self._factor()
        while True:
            tok = self.toks.peek()
            if not (tok and tok[:2] == ("op", "*")):
                return product
            self.toks.next()
            factor = self._factor()
            if type(product) is tuple and type(factor) is tuple:
                c1, m1, mu1, k1 = product
                c2, m2, mu2, k2 = factor
                product = (c1 * c2, m1 * m2, mu1 + mu2, k1 + k2)
            else:
                product = _as_expr(product) * _as_expr(factor)

    def _factor(self) -> "_Term | MixedExpr":
        base, base_kind = self._atom()
        tok = self.toks.peek()
        if tok and tok[:2] == ("op", "^"):
            self.toks.next()
            exponent, is_rational = self._exponent()
            if base_kind == "t":
                return (_ONE, _ONE_MONO, exponent, 0)
            if is_rational or exponent < 0:
                pos = tok[2]
                raise ParseError(
                    "rational or negative exponents are allowed on t only", pos
                )
            e = int(exponent)
            if type(base) is tuple:
                return _term_power(base, e)
            _check_power(base.terms, e)
            return MixedExpr._wrap(_sum_power(base.terms, e))
        return base

    def _exponent(self) -> tuple[Fraction, bool]:
        tok = self.toks.next()
        if tok[0] == "num":
            return Fraction(decimal_int(tok[1], tok[2])), False
        if tok[:2] == ("op", "("):
            sign = 1
            tok = self.toks.next()
            if tok[:2] == ("op", "-"):
                sign = -1
                tok = self.toks.next()
            if tok[0] != "num":
                raise ParseError("expected a number in exponent", tok[2])
            num = decimal_int(tok[1], tok[2])
            den = 1
            rational = False
            nxt = self.toks.peek()
            if nxt and nxt[:2] == ("op", "/"):
                den = self._divisor()
                rational = True
            self.toks.expect_op(")")
            return Fraction(sign * num, den), rational or sign < 0
        raise ParseError(f"bad exponent {tok[1]!r}", tok[2])

    def _divisor(self) -> int:
        """Consume "/" and a positive integer literal after it."""
        self.toks.next()
        dtok = self.toks.next()
        if dtok[0] != "num":
            raise ParseError("expected a denominator", dtok[2])
        den = decimal_int(dtok[1], dtok[2])
        if den == 0:
            raise ParseError("zero denominator", dtok[2])
        return den

    def _atom(self) -> "tuple[_Term | MixedExpr, str]":
        tok = self.toks.next()
        kind, value, pos = tok
        if kind == "num":
            num = decimal_int(value, pos)
            nxt = self.toks.peek()
            if nxt and nxt[:2] == ("op", "/"):
                return (Fraction(num, self._divisor()), _ONE_MONO, _ZERO, 0), "const"
            return (Fraction(num), _ONE_MONO, _ZERO, 0), "const"
        if kind == "ident":
            if value == "t":
                return _T, "t"
            if value == "log":
                self.toks.expect_op("(")
                arg = self.toks.next()
                if arg[:2] != ("ident", "t"):
                    raise ParseError("only log(t) is supported", arg[2])
                self.toks.expect_op(")")
                return _LOG, "log"
            return (_ONE, self._variable(value, pos), _ZERO, 0), "var"
        if (kind, value) == ("op", "("):
            if self.depth == _NESTING_LIMIT:
                raise ParseError(
                    f"parentheses nested deeper than {_NESTING_LIMIT} levels", pos
                )
            self.depth += 1
            inner = self._expr()
            self.toks.expect_op(")")
            self.depth -= 1
            if len(inner) == 1:
                ((mono, mu, logpow), c), = inner.items()
                return (c, mono, mu, logpow), "group"
            if not inner:
                return (_ZERO, _ONE_MONO, _ZERO, 0), "group"
            return MixedExpr._wrap(inner), "group"
        raise ParseError(f"unexpected token {value!r}", pos)

    def _variable(self, name: str, pos: int) -> Monomial:
        """The monomial of a variable name, resolved and bound-checked once."""
        mono = self.variables.get(name)
        if mono is not None:
            return mono
        m = _FULL_VAR_RE.match(name)
        if m:
            v = VarIndex(decimal_int(m.group(1), pos), decimal_int(m.group(2), pos))
        elif self.spec is not None and name in self.spec.alias_to_var:
            v = self.spec.alias_to_var[name]
        else:
            raise ParseError(f"unknown variable {name!r}", pos)
        if self.spec is not None:
            self.spec.check_index(v)
        mono = self.variables[name] = Monomial.variable(v)
        return mono


def parse(text: str, spec: AlgebraSpec | None = None) -> MixedExpr:
    """Parse expression text; aliases and index bounds come from `spec` if given."""
    return _Parser(text, spec).parse()


def parse_polynomial(text: str, spec: AlgebraSpec | None = None) -> Polynomial:
    """Parse a t-independent expression into a Polynomial."""
    e = parse(text, spec)
    if not e.is_t_independent():
        raise ParseError("expected a t-independent polynomial seed")
    return e.as_polynomial()
