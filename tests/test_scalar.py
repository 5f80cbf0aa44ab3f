import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyharm import ParseError, format_rational, parse_rational
from polyharm.scalar import _fraction


def test_parse_basic():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", "2/4x", "1 / 2 / 3"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_basic():
    assert format_rational(Fraction(46, 15)) == "46/15"
    assert format_rational(Fraction(-4, 2)) == "-2"


@given(st.fractions())
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# numerators and denominators of every sign and size the conversions meet,
# coprime and not: 6/4, -6/2, -3^150/3^7, 0/2^130
SLOT_NUMERATORS = [0, 1, -1, 6, -6, 2**200 + 3, -(2**200 + 3), -(3**150)]
SLOT_DENOMINATORS = [1, 2, 4, 3**7, 2**130]


@pytest.mark.parametrize("d", SLOT_DENOMINATORS)
@pytest.mark.parametrize("n", SLOT_NUMERATORS)
def test_slot_made_fraction_is_the_constructed_one(n, d):
    # `_fraction` fills the two slots of the stdlib Fraction; a change of
    # that layout must fail here rather than miscompute
    made, expected = _fraction(n, d), Fraction(n, d)
    assert type(made) is Fraction
    assert made == expected
    assert (made.numerator, made.denominator) == (expected.numerator, expected.denominator)
    assert type(made.numerator) is int and type(made.denominator) is int
    assert hash(made) == hash(expected)
    assert repr(made) == repr(expected) and str(made) == str(expected)
    assert pickle.dumps(made) == pickle.dumps(expected)
    assert pickle.loads(pickle.dumps(made)) == expected
    copied = copy.deepcopy(made)
    assert type(copied) is Fraction and copied == expected
    assert made + expected == 2 * expected and made * made == expected * expected
    assert {made: 1} == {expected: 1}
