import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import MixedExpr, NodeSymbolExpr, Polynomial, VarIndex
from polyharm.poly import Monomial

from conftest import random_mixed_expr, random_polynomial
from oracles import MissingAssignment, evaluate, homogeneous_degree, power, total_degree

X = VarIndex(1, 1)
Y = VarIndex(1, 2)
Z = VarIndex(2, 1)


def var(v, e=1):
    return Polynomial.variable(v, e)


# hypothesis strategy: sparse polynomials in x, y, z with small exact coefficients
coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)
monomials = st.builds(
    lambda ex, ey, ez: Monomial([(X, ex), (Y, ey), (Z, ez)]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2),
)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(Polynomial)
points = st.builds(
    lambda a, b, c: {X: a, Y: b, Z: c},
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)


def test_product_of_variables():
    assert var(X) * var(X) == var(X, 2)


def test_additive_inverse():
    p = var(X, 3) * 5 + Polynomial.constant(Fraction(2, 7))
    assert (p + (-p)).is_zero()


def test_difference_of_squares():
    assert (var(X) + var(Y)) * (var(X) - var(Y)) == var(X, 2) - var(Y, 2)


def test_partial_powers():
    assert var(X, 6).partial(X) == var(X, 5) * 6
    assert Polynomial.constant(3).partial(X).is_zero()


def test_partial_tree_node():
    # d/dz of 3(x^2+y^2)z^2, differentiated by hand
    p = (var(X, 2) + var(Y, 2)) * var(Z, 2) * 3
    assert p.partial(Z) == (var(X, 2) + var(Y, 2)) * var(Z) * 6


def test_evaluate_examples():
    assert evaluate(var(X, 6), {X: Fraction(2)}) == 64
    assert evaluate(Polynomial.zero(), {}) == 0
    p = (var(X, 2) + var(Y, 2)) * var(Z, 2) * 3
    assert evaluate(p, {X: 1, Y: 1, Z: 2}) == 24


def test_evaluate_missing():
    with pytest.raises(MissingAssignment):
        evaluate(var(X), {Y: Fraction(1)})


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_neutral_elements(p):
    assert p + Polynomial.zero() == p
    assert p * Polynomial.one() == p
    assert (p * Polynomial.zero()).is_zero()


@given(polys)
def test_partials_commute(p):
    for u, v in ((X, Y), (X, Z), (Y, Z)):
        assert p.partial(u).partial(v) == p.partial(v).partial(u)


@given(polys, polys, points)
@settings(max_examples=60, deadline=None)
def test_evaluate_is_ring_hom(p, q, pt):
    assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)
    assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)


def test_graded_lex_order():
    def written(*monomials):
        # the written order of a sum of these monomials, whatever their order
        # in its term map
        orders = {
            tuple(mono for mono, _ in Polynomial({m: 1 for m in ms}).sorted_terms())
            for ms in (monomials, monomials[::-1])
        }
        assert len(orders) == 1
        return list(orders.pop())

    x, xx, yy = Monomial([(X, 1)]), Monomial([(X, 2)]), Monomial([(Y, 2)])
    xy = Monomial([(X, 1), (Y, 1)])
    assert written(Monomial.one(), x) == [x, Monomial.one()]
    assert written(xy, xx) == [xx, xy]  # lex tie-break on x
    assert written(yy, xy) == [xy, yy]
    assert written(x, yy) == [yy, x]  # degree first


def test_render_deterministic():
    p = var(X, 2) * var(Z) - var(Y) * Fraction(1, 3) + Polynomial.constant(2)
    assert p.render() == "x1_1^2*x2_1 - 1/3*x1_2 + 2"


def test_pow_and_degree():
    p = power(var(X) + var(Y), 3)
    assert total_degree(p) == 3
    assert p.terms[Monomial([(X, 2), (Y, 1)])] == 3
    assert total_degree(Polynomial.zero()) == 0
    assert homogeneous_degree(p) == 3
    assert homogeneous_degree(p + Polynomial.one()) is None


# --- the shared sparse core: one set of ring operations for every sum ---

def random_node_symbol_expr(spec, rng: random.Random) -> NodeSymbolExpr:
    """Nonzero node-symbol sum with t-only coefficients (constant monomials)."""
    while True:
        e = NodeSymbolExpr(
            {
                tuple(rng.choices((1, 2), k=rng.randint(0, 2))): random_mixed_expr(
                    spec, rng, max_degree=0
                )
                for _ in range(rng.randint(1, 3))
            }
        )
        if e:
            return e


SPARSE_KINDS = {
    Polynomial: random_polynomial,
    MixedExpr: random_mixed_expr,
    NodeSymbolExpr: random_node_symbol_expr,
}


@pytest.mark.parametrize("kind", list(SPARSE_KINDS), ids=lambda kind: kind.__name__)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sparse_ring_laws(ch2, kind, seed):
    rng = random.Random(seed)
    a, b = (SPARSE_KINDS[kind](ch2, rng) for _ in range(2))
    assert type(a) is kind and a and a.terms
    assert (a - a).terms == {} and not a - a
    assert a * 0 == kind() and not a * 0
    assert a + b == b + a
    assert hash(a + b) == hash(b + a)
    assert bool(a + b) == bool((a + b).terms)
    assert a + b - b == a
