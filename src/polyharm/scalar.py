"""Exact rational scalars.

All coefficients in the package are `fractions.Fraction` values; this module
adds the strict forms used by the JSON interfaces: rationals as "p" or "p/q"
with a positive denominator and no decimal points, and integer fields that
are never truncated.  It also holds `_acc`, the one accumulate step of every
sparse sum in the package, and `_fraction`, the one place a Fraction is made
through its two slots, `_numerator` and `_denominator`: the integer forms
leave for the public API by way of `laplacian._expr_terms`, one Fraction per
distinct coefficient, and there the constructor's type checks and sign
handling cost more than the gcd that is the work.  The slots are read only
where a MixedExpr or a node-symbol sum enters a form, in the one packing
body `laplacian._pack_form`, for the same reason.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .errors import BudgetExceeded, ParseError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")
_DECIMAL_INT_RE = re.compile(r"[+-]?[0-9]+")


def _acc(out: dict, key, value) -> None:
    """Add `value` to out[key], dropping the key when the sum is zero.

    Values are anything with `+` whose zero is false: Fractions, or sparse
    sums (`poly.Sparse`)."""
    total = out.get(key)
    if total is not None:
        value = total + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d > 0: reduced by their gcd and filled
    in through its two slots, with none of the constructor's checks."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def decimal_int(text: str, position: int | None = None) -> int:
    """int(text) of a decimal literal; a literal past the interpreter's limit
    on digits (`sys.get_int_max_str_digits`) is a ParseError at `position`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"an integer of {len(text)} digits is too long", position) from None


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0, decimal-free) into a Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational 'p' or 'p/q' string: {text!r}")
    num = decimal_int(m.group(1))
    den = decimal_int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the canonical "p" / "p/q" form; a numerator or
    denominator past the interpreter's limit on printed digits
    (`sys.get_int_max_str_digits`) is BudgetExceeded.  Every writer of a
    coefficient, text, LaTeX or JSON, prints it through here."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise BudgetExceeded(
            f"a coefficient of {max(value.numerator.bit_length(), value.denominator.bit_length())}"
            " bits has more digits than the interpreter prints"
        ) from None


def int_field(obj: Mapping | Sequence, key: str | int) -> int:
    """obj[key], a field of an object or an entry of a list, as an int: an int
    (not a bool) or a decimal-integer string; anything else, a float
    included, is refused rather than truncated."""
    value = obj[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_INT_RE.fullmatch(value):
        return decimal_int(value)
    raise ParseError(f"field {key!r} must be an integer, got {value!r}")
