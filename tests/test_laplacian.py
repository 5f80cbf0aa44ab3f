import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import (
    MixedExpr,
    Polynomial,
    Resonance,
    VarIndex,
    bernoulli,
    build_phi,
    build_psi,
    catalog_short_name,
    laplacian,
    parse,
    parse_polynomial,
    struct_polys,
    tau,
    tension_tree,
)
from polyharm.poly import Monomial

from conftest import random_mixed_expr, random_polynomial
from oracles import (
    brute_ad_power,
    ch2_display_tau,
    homogeneous_degree,
    kappa,
    left_invariant_fields,
    t_power,
    tau_by_partials,
    tau_fast_x1,
    tau_fast_x1x2,
    tau_frame,
    tau_t,
    total_degree,
)
from test_algebra import filiform

X = VarIndex(1, 1)
Y = VarIndex(1, 2)
Z = VarIndex(2, 1)


def test_bernoulli_values():
    expected = [
        Fraction(1),
        Fraction(1, 2),  # positive by convention
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
    ]
    assert [bernoulli(r) for r in range(9)] == expected


def test_ad_power_ch2(ch2):
    # ad(X) Y picks up x*Z from the generic element's x-component; ad(X)^2 = 0
    assert laplacian.tables_of(ch2).ad_rows == [
        {X: {Z: -Polynomial.variable(Y)}, Y: {Z: Polynomial.variable(X)}, Z: {}}
    ]


def test_ad_power_abelian(rh3):
    # m = 1: ad(X) = 0, so there are no rows
    assert laplacian.tables_of(rh3).ad_rows == []


def test_ad_power_matches_bracket_iteration(rh2, rh4, ch2, ch3):
    for spec in (rh2, rh4, ch2, ch3, filiform()):
        rows = laplacian.tables_of(spec).ad_rows
        assert len(rows) == spec.m - 1
        for v in spec.variables():
            for r in range(1, spec.m):
                assert rows[r - 1][v] == brute_ad_power(spec, v.layer, v.slot, r)
            assert brute_ad_power(spec, v.layer, v.slot, spec.m) == {}


def test_struct_polys_ch2(ch2):
    table = struct_polys(ch2)
    half = Fraction(1, 2)
    assert table.P(1, 1, 2, 1) == Polynomial.variable(Y) * -half
    assert table.P(1, 2, 2, 1) == Polynomial.variable(X) * half
    # identity block for i >= alpha
    assert table.P(1, 1, 1, 1) == Polynomial.one()
    assert table.P(1, 1, 1, 2) == Polynomial.zero()
    assert table.P(2, 1, 2, 1) == Polynomial.one()
    assert table.P(2, 1, 1, 1) == Polynomial.zero()


def test_struct_polys_rh_identity(rh4):
    table = struct_polys(rh4)
    for v in rh4.variables():
        for w in rh4.variables():
            expected = Polynomial.one() if v == w else Polynomial.zero()
            assert table.P(v.layer, v.slot, w.layer, w.slot) == expected


def test_struct_polys_filiform_second_order():
    # hand expansion: P^{13}_{11} = 1/2 * (-x2_1) + 1/12 * (-x1_1*x1_2)
    spec = filiform()
    table = struct_polys(spec)
    expected = Polynomial.variable(VarIndex(2, 1)) * Fraction(-1, 2) + (
        Polynomial.variable(VarIndex(1, 1)) * Polynomial.variable(VarIndex(1, 2))
    ) * Fraction(-1, 12)
    assert table.P(1, 1, 3, 1) == expected


def test_struct_poly_invariants(ch2, ch3):
    for spec in (ch2, ch3, filiform()):
        table = struct_polys(spec)
        for v in spec.variables():
            for r in range(1, spec.m):
                for p in laplacian.tables_of(spec).ad_rows[r - 1][v].values():
                    assert p.is_zero() or homogeneous_degree(p) == r
        for (i, j, alpha, beta), p in table.entries.items():
            assert total_degree(p) < spec.m
            if i >= alpha:
                assert (i, j) == (alpha, beta) and p == Polynomial.one()


def test_left_invariant_fields_ch2(ch2):
    fields = {f.label: f for f in left_invariant_fields(ch2)}
    assert fields["A"].t_coefficient == t_power(1)
    assert not fields["A"].x_coefficients
    x_field = fields["X1_1"]
    half = Fraction(1, 2)
    assert x_field.x_coefficients[X] == t_power(half)
    assert x_field.x_coefficients[Z] == MixedExpr.from_polynomial(
        Polynomial.variable(Y) * -half, mu=half
    )
    y_field = fields["X1_2"]
    assert y_field.x_coefficients[Y] == t_power(half)
    assert y_field.x_coefficients[Z] == MixedExpr.from_polynomial(
        Polynomial.variable(X) * half, mu=half
    )
    z_field = fields["X2_1"]
    assert z_field.x_coefficients == {Z: t_power(1)}


def test_tau_examples(rh2, ch2):
    # the Heisenberg-plane seed z^4 splits into the two tree components
    img = tau(ch2, parse("z^4", ch2))
    assert img == parse("3*(x^2 + y^2)*z^2*t + 12*z^2*t^2", ch2)
    # one-dimensional flat seed
    assert tau(rh2, parse("x^6", rh2)) == parse("30*x^4*t^2", rh2)
    assert tau(rh2, MixedExpr.constant(5)).is_zero()


def test_tau_z2_ch2(ch2):
    assert tau(ch2, parse("z^2", ch2)) == parse("1/2*(x^2 + y^2)*t + 2*t^2", ch2)


def test_tau_t_consistency(rh2, ch2):
    for spec in (rh2, ch2):
        n = spec.homogeneous_dim
        for text in ("t^2", "log(t)", "t^3*log(t)^2", "t^(1/2)", "t^(-1)*log(t)"):
            e = parse(text)
            assert tau_t(e, n) == tau(spec, e)


def test_frame_equals_coordinate_formula(rh2, rh4, ch2, ch3):
    rng = random.Random(1234)
    for spec in (rh2, rh4, ch2, ch3, filiform()):
        for _ in range(20):
            e = random_mixed_expr(spec, rng)
            assert tau(spec, e) == tau_frame(spec, e)


FAMILY_TREES = {
    "fil3": (filiform, "(x1_1*x1_2 + x2_1 + x3_1)^4"),
    "ch4": (lambda: catalog_short_name("ch4"), "(x_1*y_2 + z)^4"),
    "ch2": (lambda: catalog_short_name("ch2"), "z^8"),
}


def family_members(spec, seed, p_max=6):
    """phi_p and psi_p of the seed's tree, p = 1..p_max (phi skipped where it
    is resonant)."""
    tree = tension_tree(spec, parse_polynomial(seed, spec))
    for p in range(1, p_max + 1):
        for builder in (build_phi, build_psi):
            try:
                yield builder(spec, tree, p)
            except Resonance:
                continue


@pytest.mark.parametrize("name", sorted(FAMILY_TREES))
def test_tau_equals_partials_oracle_on_family_iterates(name):
    make_spec, seed = FAMILY_TREES[name]
    spec = make_spec()
    count = 0
    for e in family_members(spec, seed):
        while not e.is_zero():
            image = tau_by_partials(spec, e)
            assert tau(spec, e) == image
            e = image
            count += 1
    assert count >= 21  # psi alone has p iterates for each p


RANDOM_SPECS = [
    catalog_short_name("rh2"),
    catalog_short_name("ch2"),
    catalog_short_name("ch3"),
    filiform(),
]


@st.composite
def mixed_exprs(draw, spec):
    """Mixed expressions with pairwise coprime coefficient denominators,
    rational and negative t-exponents and log powers 0..3."""
    primes = st.sampled_from((1, 2, 3, 5, 7, 11, 13, 17))
    factors = st.tuples(st.sampled_from(spec.variables()), st.integers(1, 3))
    terms = {}
    for den in draw(st.lists(primes, min_size=1, max_size=6, unique=True)):
        exps: dict[VarIndex, int] = {}
        for v, e in draw(st.lists(factors, max_size=3)):
            exps[v] = exps.get(v, 0) + e
        mu = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 5))))
        k = draw(st.integers(0, 3))
        num = draw(st.integers(-30, 30).filter(bool))
        terms[(Monomial(exps.items()), mu, k)] = Fraction(num, den)
    return MixedExpr(terms)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tau_equals_partials_oracle_on_random_expressions(data):
    spec = data.draw(st.sampled_from(RANDOM_SPECS))
    e = data.draw(mixed_exprs(spec))
    assert tau(spec, e) == tau_by_partials(spec, e)


def test_memo_bound_does_not_change_results(monkeypatch):
    spec = filiform()
    rng = random.Random(5)
    inputs = list(family_members(spec, FAMILY_TREES["fil3"][1], p_max=4))
    inputs += [random_mixed_expr(spec, rng) for _ in range(10)]
    expected = [tau(spec, e) for e in inputs]
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    tables = laplacian.tables_of(spec)
    for e, image in zip(inputs, expected):
        assert tau(spec, e) == image
        # cleared at the start of every call: only this call's monomials stay
        assert {tables.monomials[m] for m in tables.images} == {mono for mono, _, _ in e.terms}


def test_fast_path_x1(rh2, ch2):
    assert tau_fast_x1(rh2, parse_polynomial("x^6", rh2)) == parse("30*x^4*t^2", rh2)
    assert tau_fast_x1(ch2, parse_polynomial("x^2 + y^2", ch2)) == parse("4*t")
    assert tau_fast_x1(ch2, parse_polynomial("x", ch2)).is_zero()
    with pytest.raises(ValueError):
        tau_fast_x1(ch2, parse_polynomial("z", ch2))


def test_fast_path_x1x2(ch2):
    assert tau_fast_x1x2(ch2, parse_polynomial("z^4", ch2)) == parse(
        "3*(x^2 + y^2)*z^2*t + 12*z^2*t^2", ch2
    )
    assert tau_fast_x1x2(ch2, parse_polynomial("z^2", ch2)) == parse(
        "1/2*(x^2 + y^2)*t + 2*t^2", ch2
    )
    assert tau_fast_x1x2(ch2, parse_polynomial("x", ch2)).is_zero()


def test_fast_paths_agree_with_tau(rh2, rh4, ch2, ch3):
    rng = random.Random(99)
    for spec in (rh2, rh4, ch2, ch3):
        for _ in range(15):
            h1 = random_polynomial(spec, rng, layers={1})
            e1 = MixedExpr.from_polynomial(h1)
            assert tau_fast_x1(spec, h1) == tau(spec, e1)
            h12 = random_polynomial(spec, rng, layers={1, 2} & set(range(1, spec.m + 1)))
            e12 = MixedExpr.from_polynomial(h12)
            assert tau_fast_x1x2(spec, h12) == tau(spec, e12)


def test_wrong_layer_for_higher_layers():
    spec = filiform()
    top = Polynomial.variable(VarIndex(3, 1))
    with pytest.raises(ValueError):
        tau_fast_x1(spec, top)
    with pytest.raises(ValueError):
        tau_fast_x1x2(spec, top)


def test_kappa_examples(rh2, ch2):
    assert kappa(ch2, parse("x", ch2), parse("z", ch2)) == parse("-1/2*y*t", ch2)
    assert kappa(ch2, parse("x*y*z", ch2), MixedExpr.one()).is_zero()
    assert kappa(rh2, parse("x", rh2), parse("x", rh2)) == parse("t^2")


def test_product_rule(rh2, ch2, ch3):
    rng = random.Random(7)
    for spec in (rh2, ch2, ch3, filiform()):
        for _ in range(10):
            f = random_mixed_expr(spec, rng, max_degree=2)
            h = random_mixed_expr(spec, rng, max_degree=2)
            lhs = tau(spec, f * h)
            rhs = tau(spec, f) * h + kappa(spec, f, h) * 2 + f * tau(spec, h)
            assert lhs == rhs


def test_ch2_display_operator(ch2):
    rng = random.Random(11)
    for _ in range(20):
        e = random_mixed_expr(ch2, rng)
        assert tau(ch2, e) == ch2_display_tau(e)


def test_closure_no_representation_escape(rh2, ch2, ch3):
    # the operator image always stays in the (monomial, t-power, log-power)
    # class: rational t-exponents, non-negative integer log-powers
    rng = random.Random(42)
    for spec in (rh2, ch2, ch3, filiform()):
        for _ in range(10):
            e = random_mixed_expr(spec, rng)
            image = tau(spec, e)
            for (mono, mu, logpow), coeff in image.terms.items():
                assert isinstance(mu, Fraction)
                assert isinstance(logpow, int) and logpow >= 0
                assert coeff != 0
                assert all(exp > 0 for _, exp in mono.exps)
