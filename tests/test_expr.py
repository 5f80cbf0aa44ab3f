import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm
from polyharm import (
    MixedExpr,
    ParseError,
    Polynomial,
    VarIndex,
    format_rational,
    parse,
    parse_polynomial,
)
from polyharm.poly import Monomial

from conftest import random_mixed_expr
from oracles import d_dt, evaluate_numeric

X = VarIndex(1, 1)
Y = VarIndex(1, 2)
Z = VarIndex(2, 1)

mono_st = st.builds(
    lambda ex, ey: Monomial([(X, ex), (Y, ey)]),
    st.integers(0, 3),
    st.integers(0, 2),
)
key_st = st.tuples(
    mono_st,
    st.fractions(min_value=-2, max_value=3, max_denominator=2),
    st.integers(0, 3),
)
coeff_st = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
mixed_st = st.dictionaries(key_st, coeff_st, max_size=5).map(MixedExpr)


def test_d_dt_power():
    assert d_dt(MixedExpr.t_power(2)) == MixedExpr.t_power(1) * 2


def test_d_dt_log():
    assert d_dt(MixedExpr.log_t()) == MixedExpr.t_power(-1)


def test_d_dt_product_form():
    # t^2 log t -> 2 t log t + t
    e = MixedExpr.t_power(2, 1)
    assert d_dt(e) == MixedExpr.t_power(1, 1) * 2 + MixedExpr.t_power(1)


def test_half_powers_multiply():
    h = MixedExpr.t_power(Fraction(1, 2))
    assert h * h == MixedExpr.t_power(1)


def test_log_squared():
    assert MixedExpr.log_t() * MixedExpr.log_t() == MixedExpr.log_t(2)


def test_leading_term_of_printed_biharmonic():
    e = MixedExpr.from_polynomial(Polynomial.variable(X, 6)) * MixedExpr.log_t()
    assert e == parse("x1_1^6*log(t)")


@given(mixed_st, mixed_st)
@settings(max_examples=60, deadline=None)
def test_d_dt_leibniz(e1, e2):
    lhs = d_dt(e1 * e2)
    rhs = d_dt(e1) * e2 + e1 * d_dt(e2)
    assert lhs == rhs


@given(mixed_st, mixed_st, mixed_st)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_parse_examples():
    assert parse("t^(1/2)") == MixedExpr.t_power(Fraction(1, 2))
    assert parse("t^(-3)") == MixedExpr.t_power(-3)
    assert parse("2/3") == MixedExpr.constant(Fraction(2, 3))
    assert parse("log(t)^2*t") == MixedExpr.t_power(1, 2)
    assert parse("-x1_1 + x1_1") == MixedExpr.zero()


def test_parse_aliases(ch2):
    assert parse("x*y*z", ch2) == MixedExpr.from_polynomial(
        Polynomial.variable(X) * Polynomial.variable(Y) * Polynomial.variable(Z)
    )
    with pytest.raises(ParseError):
        parse("w", ch2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x1_1^")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("x1_1^(1/2)")  # rational exponents only on t
    with pytest.raises(ParseError):
        parse("log(x1_1)")
    with pytest.raises(ParseError):
        parse("t^^2")
    with pytest.raises(ParseError):
        parse("(t")


def test_power_of_a_sum_is_expanded_term_by_term():
    e = parse("(x1_1 + x1_2)^999")
    assert e.terms == {
        (Monomial([(X, k), (Y, 999 - k)]), Fraction(0), 0): comb(999, k) for k in range(1000)
    }
    # compositions whose terms meet, and here cancel: x^2 - x^2
    assert parse("(1 + x1_1 - 1/2*x1_1^2)^2") == parse("1 + 2*x1_1 - x1_1^3 + 1/4*x1_1^4")
    assert parse("(1 + x1_1*t - x1_1^2)^5") == (
        MixedExpr.one() + parse("x1_1*t") - parse("x1_1^2")
    ) ** 5
    assert parse("(x1_1 - x1_1)^3 + (x1_1 - x1_1)^0") == MixedExpr.one()


# --- the parser's fast paths against MixedExpr ring operations ---
# Each strategy draws (text, value, kind): `value` is what the text means,
# made with MixedExpr sums, products and powers; `kind` says where the text
# needs parentheses: an "atom" nowhere, a "factor" or "term" as a power's
# base, and a "sum" there and inside a product or another sum.

def _const(c: Fraction):
    text = format_rational(c)
    return (text if c >= 0 else f"({text})"), MixedExpr.constant(c), "atom"


_VARIABLES = {"x": X, "y": Y, "z": Z, "x1_1": X}  # names on ch2


def _variable(name: str):
    return name, MixedExpr.from_polynomial(Polynomial.variable(_VARIABLES[name])), "atom"


def _t_power(exponent: Fraction):
    if exponent == 1:
        return "t", MixedExpr.t_power(1), "atom"
    return f"t^({format_rational(exponent)})", MixedExpr.t_power(exponent), "factor"


def _log_power(k: int):
    return ("log(t)", MixedExpr.log_t(), "atom") if k == 1 else (
        f"log(t)^{k}", MixedExpr.log_t(k), "factor"
    )


def _wrap(node, kinds):
    text, _, kind = node
    return f"({text})" if kind in kinds else text


def _product(nodes):
    value = MixedExpr.one()
    for _, v, _ in nodes:
        value = value * v
    return "*".join(_wrap(n, ("sum",)) for n in nodes), value, "term"


def _sum(signed):
    (first_minus, first), rest = signed[0], signed[1:]
    text = ("-" if first_minus else "") + _wrap(first, ("sum",))
    value = -first[1] if first_minus else first[1]
    for minus, node in rest:
        text += (" - " if minus else " + ") + _wrap(node, ("sum",))
        value = value - node[1] if minus else value + node[1]
    return text, value, "sum"


def _power(node, e: int):
    # keep the reference's repeated multiplication small
    if len(node[1].terms) > 4:
        e = min(e, 1)
    return f"{_wrap(node, ('factor', 'term', 'sum'))}^{e}", node[1] ** e, "factor"


def _group(node):
    return f"({node[0]})", node[1], "atom"


_leaves = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(_const),
    st.sampled_from(sorted(_VARIABLES)).map(_variable),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(_t_power),
    st.integers(1, 3).map(_log_power),
)
expression_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(_product),
        st.lists(st.tuples(st.booleans(), children), min_size=1, max_size=3).map(_sum),
        st.tuples(children, st.integers(0, 4)).map(lambda pair: _power(*pair)),
        children.map(_group),
    ),
    max_leaves=10,
)


@given(expression_trees)
@settings(max_examples=150, deadline=None)
def test_parse_matches_ring_operations(ch2, tree):
    text, value, _ = tree
    assert parse(text, ch2) == value, text


def test_parse_polynomial_rejects_t():
    with pytest.raises(ParseError):
        parse_polynomial("t*x1_1")
    assert parse_polynomial("x1_1^2") == Polynomial.variable(X, 2)


@given(mixed_st)
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip(e):
    assert parse(e.render()) == e


def test_render_parse_round_trip_random_catalog(ch2, ch3):
    rng = random.Random(20250810)
    for spec in (ch2, ch3):
        for _ in range(25):
            e = random_mixed_expr(spec, rng)
            assert parse(e.render(), spec) == e
            # alias-free rendering parses without algebra context as well
            assert parse(e.render()) == e


def test_latex_typography(ch2):
    e = MixedExpr.from_polynomial(Polynomial.variable(Z, 4)) * MixedExpr.t_power(
        Fraction(1, 2), 2
    )
    tex = e.latex(lambda v: ch2.var_name(v))
    assert tex == r"z^{4} \, t^{1/2} \, \log(t)^{2}"
    assert MixedExpr.constant(Fraction(-46, 15)).latex() == r"-\frac{46}{15}"


def test_numeric_evaluation_is_secondary_signal():
    # canonical zero evaluates to (numerically) zero at 256-bit precision
    e = parse("t^(1/2)*t^(1/2) - t")
    assert e.is_zero()
    nonzero = parse("x1_1^2*t - t*log(t)")
    val = evaluate_numeric(nonzero, {X: Fraction(3, 2)}, Fraction(7, 4))
    import mpmath

    with mpmath.workprec(256):
        expected = mpmath.mpf("2.25") * mpmath.mpf("1.75") - mpmath.mpf(
            "1.75"
        ) * mpmath.log(mpmath.mpf("1.75"))
        assert abs(val - expected) < mpmath.mpf(2) ** -200


def test_numeric_zero_signal(ch2):
    # canonical zero <=> functional zero on this class; the 256-bit evaluation
    # is a secondary signal with tolerance 1e-30
    import mpmath

    rng = random.Random(5)
    for _ in range(10):
        e = random_mixed_expr(ch2, rng)
        diff = e - e
        assert diff.is_zero()
        points = []
        for _ in range(20):
            pt = {
                v: Fraction(rng.randint(5, 20), 10) for v in ch2.variables()
            }
            tv = Fraction(rng.randint(5, 20), 10)
            points.append(abs(evaluate_numeric(e, pt, tv)))
            assert abs(evaluate_numeric(diff, pt, tv)) < mpmath.mpf("1e-30")
        assert max(points) > mpmath.mpf("1e-30")


def test_package_imports_from_checkout_src():
    # pytest puts the checkout's src/ on sys.path (pyproject.toml), so the
    # tests exercise this tree and not an installed copy
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(polyharm.__file__).resolve().is_relative_to(src)


def test_import_loads_no_mpmath():
    # mpmath is a test-only dependency (the numeric oracle); the package must
    # import without it
    env = dict(os.environ, PYTHONPATH=str(Path(polyharm.__file__).parents[1]))
    code = "import polyharm, sys; assert 'mpmath' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
