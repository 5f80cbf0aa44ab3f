import gc
import hashlib
import random
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import (
    AffinePart,
    BudgetExceeded,
    HarmonicCertificate,
    MixedExpr,
    NodeSymbolExpr,
    RadialFunction,
    RadialSeed,
    Resonance,
    ZeroCombination,
    build,
    build_phi,
    build_psi,
    catalog_short_name,
    certify_family,
    from_json_dict,
    parse,
    parse_polynomial,
    recurrence_check,
    tau,
    tension_tree,
    tension_tree_radial,
    validate,
    verify,
    verify_formal,
)
from polyharm import laplacian, pharmonic
from polyharm.cli import parse_radial_seed
from polyharm.laplacian import tables_of

from oracles import (
    branch_coeff_by_compositions,
    build_by_branches,
    composition_identity_holds,
    compositions,
    f_coeff,
    formal_tau,
    g_coeff,
    log_t,
    realize,
    recurrence_by_exprs,
)
from test_algebra import CH2_JSON, filiform


def tree_of(spec, text):
    return tension_tree(spec, parse_polynomial(text, spec))


# --- compositions ---

def test_compositions_base_cases():
    assert compositions(0, 3) == [(0, 0, 0)]
    assert set(compositions(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []


@given(st.integers(0, 6), st.integers(1, 4))
def test_compositions_count(j, i):
    out = compositions(j, i)
    assert len(out) == comb(j + i - 1, i - 1)
    assert len(set(out)) == len(out)
    assert all(len(c) == i and sum(c) == j and min(c) >= 0 for c in out)
    assert out == sorted(out)  # deterministic enumeration order


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_composition_identity(a, j):
    assert composition_identity_holds(a, j)


# --- coefficient functions (frozen hand expansions) ---

def test_f_coeff_rh2(rh2):
    assert f_coeff(rh2, (1,), 2) == parse("t^2 - 1/2*t^2*log(t)")
    assert f_coeff(rh2, (1, 1), 2) == parse("1/24*t^4*log(t) - 1/9*t^4")
    assert f_coeff(rh2, (1,), 1) == parse("-1/2*t^2")
    assert f_coeff(rh2, (), 3) == parse("log(t)^2")


def test_f_coeff_resonance(rh3):
    # homogeneous dimension 2 and Lambda^1 = 1 along (1,): 2*Lambda = n
    with pytest.raises(Resonance) as err:
        f_coeff(rh3, (1,), 2)
    assert err.value.alpha == (1,) and err.value.k == 1


def test_g_coeff_ch2(ch2):
    assert g_coeff(ch2, (1,), 2) == parse("2/9*t^3 - 1/6*2*t^3*log(t)")
    assert g_coeff(ch2, (2,), 2) == parse("1/16*t^4 - 1/8*t^4*log(t)")
    # deeper branches, expanded by hand and certified via the operator
    assert g_coeff(ch2, (1, 1), 2) == parse("1/24*t^4*log(t) - 7/144*t^4")
    assert g_coeff(ch2, (1, 1, 1), 2) == parse("-1/360*t^5*log(t) + 47/10800*t^5")
    assert g_coeff(ch2, (1, 1, 1, 1), 2) == parse("1/8640*t^6*log(t) - 19/86400*t^6")


def test_g_coeff_rh2(rh2):
    assert g_coeff(rh2, (1,), 1) == parse("-1/6*t^3")
    assert g_coeff(rh2, (), 1) == parse("t")  # t^n with n = 1
    assert g_coeff(rh2, (), 2) == parse("t*log(t)")


# --- coefficient functions against the composition-sum oracle ---

def assert_coeff_matches_oracle(spec, alpha, p):
    for family, production in (("phi", f_coeff), ("psi", g_coeff)):
        try:
            expected = branch_coeff_by_compositions(
                spec.lambdas, spec.homogeneous_dim, alpha, p, family
            )
        except Resonance as oracle_err:
            with pytest.raises(Resonance) as err:
                production(spec, alpha, p)
            assert (err.value.alpha, err.value.k) == (oracle_err.alpha, oracle_err.k)
        else:
            assert production(spec, alpha, p).terms == expected.terms


@pytest.mark.parametrize(
    "name, seed",
    [
        ("ch2", "z^8"),
        ("rh3", "(x1_1^2+x1_2^2)^6"),
        ("ch4", "(x_1*y_2+z)^4"),
        ("fil3", "(x1_1*x1_2+x2_1+x3_1)^4"),
    ],
)
def test_coeff_matches_composition_oracle_on_tree(name, seed):
    spec = filiform() if name == "fil3" else catalog_short_name(name)
    tree = tree_of(spec, seed)
    for alpha in [(), *tree.nodes]:
        for p in range(1, 9):
            assert_coeff_matches_oracle(spec, alpha, p)


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
    st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_coeff_matches_composition_oracle_random(lambdas, dims, path, p):
    # random eigenvalue data makes the denominators 2 Lambda^k -+ n arbitrary
    # nonzero rationals, or zero exactly where phi is resonant
    spec = validate("abelian", sorted(lambdas), dims[: len(lambdas)])
    alpha = tuple(min(k, spec.m) for k in path)
    assert_coeff_matches_oracle(spec, alpha, p)


# --- assembly ---

def render_digest(spec, built):
    return hashlib.sha256(built.render(spec.var_name).encode()).hexdigest()


def test_psi6_ch2_z8_golden(ch2):
    built = build_psi(ch2, tree_of(ch2, "z^8"), 6)
    assert render_digest(ch2, built) == (
        "38223d45516472a3acf9564b4edab99b7070b2ae81eeb919e834ae216aa1a8c7"
    )


def test_phi6_rh2_x16_golden(rh2):
    built = build_phi(rh2, tree_of(rh2, "x^16"), 6)
    assert render_digest(rh2, built) == (
        "8f20501bfcb9852f80b3615e796ed33566a7ac725b29c58d46fa26246ac305ee"
    )


# --- assembly against the branch-by-branch oracle ---

# phi is resonant on the rh3 trees (2 Lambda = n along (1,)), so these cover
# Resonance parity as well as built functions
ORACLE_TREES = [
    ("ch2", "z^8"),
    ("rh3", "(x1_1^2+x1_2^2)^6"),
    ("fil3", "(x1_1*x1_2+x2_1+x3_1)^4"),
    ("ch4", "(x_1*y_2+z)^4"),
    ("ch2", "x^2*z^2 - 3/7*y^4"),
    ("rh3", {(4, True): 1, (2, False): 3}),  # radial seeds
    ("ch2", {(6, True): 2}),
]


def oracle_tree(name, seed):
    spec = filiform() if name == "fil3" else catalog_short_name(name)
    if isinstance(seed, str):
        return spec, tree_of(spec, seed)
    return spec, radial_tree(spec, seed)


def typed(e):
    """The canonical terms of a built function with the type of every
    exponent and coefficient beside its value."""
    if isinstance(e, NodeSymbolExpr):
        return {alpha: typed(coeff) for alpha, coeff in e.terms.items()}
    return {
        (mono, type(mu), mu, type(k), k): (type(c), c)
        for (mono, mu, k), c in e.terms.items()
    }


def outcome(make):
    """What make() gives: the typed terms of a function, a certificate with
    the typed terms of its residuals, or the Resonance it raises."""
    try:
        made = make()
    except Resonance as err:
        return ("Resonance", err.alpha, err.k, str(err))
    if isinstance(made, HarmonicCertificate):
        return made._replace(
            residual_pminus1=typed(made.residual_pminus1), residual_p=typed(made.residual_p)
        )
    return typed(made)


def production_build(spec, tree, p, family):
    return (build_phi if family == "phi" else build_psi)(spec, tree, p)


@pytest.mark.parametrize("name, seed", ORACLE_TREES)
def test_build_matches_branch_oracle(name, seed):
    spec, tree = oracle_tree(name, seed)
    for p in range(1, 9):
        for family in ("phi", "psi"):
            assert outcome(lambda: production_build(spec, tree, p, family)) == outcome(
                lambda: build_by_branches(spec, tree, p, family)
            )


# The state route against the per-multi-index oracles on trees whose states
# merge many multi-indices (ch2), with resonant phi sides (ch2, ch6) and over
# a 3-step algebra (fil3), at p <= 6.  ch2 z^8, rh3 (x1_1^2+x1_2^2)^6, fil3
# (x1_1*x1_2+x2_1+x3_1)^4 and ch4 (x_1*y_2+z)^4 are checked to p = 8 by
# `test_build_matches_branch_oracle` and by the recurrence test of
# `test_integer_form.py`.
STATE_TREES = [
    ("rh2", "x^16"),
    ("ch2", "z^12"),
    ("ch6", "(x_1*y_2+x_3*y_4+z)^4"),
    ("fil3", "(x1_1*x1_2+x2_1+x3_1)^6"),
]


@pytest.mark.parametrize("name, seed", STATE_TREES)
def test_state_route_matches_oracles(name, seed):
    # the recurrence to p = 4, where both lower members enter: the oracle's
    # operator on the concrete fil3 members takes seconds per order beyond
    spec, tree = oracle_tree(name, seed)
    assert len(tree.states) <= tree.node_count() + 1
    for p in range(1, 7):
        for family in ("phi", "psi"):
            assert outcome(lambda: production_build(spec, tree, p, family)) == outcome(
                lambda: build_by_branches(spec, tree, p, family)
            )
        if p <= 4:
            assert recurrence_check(spec, tree, p) == recurrence_by_exprs(spec, tree, p)


def test_state_counts_on_a_large_tree(ch2, monkeypatch):
    # ch2 z^24: 196,416 multi-indices in 168 states; counting, building and
    # checking never list them, and a psi build at p=4 computes each state's
    # row entries once, kept for the recurrence check that follows
    import polyharm.pharmonic as ph

    appended = []

    class CountingRow(list):
        def append(self, entry):
            appended.append(entry)
            super().append(entry)

    new_rows = ph._new_rows

    def counting_rows(*args):
        rows = new_rows(*args)
        rows.u = [CountingRow(row) for row in rows.u]
        return rows

    monkeypatch.setattr(ph, "_new_rows", counting_rows)
    tree = tree_of(ch2, "z^24")
    assert (len(tree.states), tree.node_count(), tree.degree) == (168, 196416, 24)
    build_psi(ch2, tree, 4)
    assert len(appended) == (len(tree.states) - 1) * 4
    build_psi(ch2, tree, 4)
    assert recurrence_check(ch2, tree, 4)
    assert len(appended) == (len(tree.states) - 1) * 4
    assert "nodes" not in vars(tree)


P_ORDERS = [range(1, 9), range(8, 0, -1), (5, 1, 8, 3, 2, 7, 4, 6)]


def memo_outcomes(trees, order):
    """Every build, every certificate of phi, psi and a combination, and
    some branch coefficients of the trees, p in `order`."""
    out = {}
    for index, (spec, tree) in enumerate(trees):
        for p in order:
            for family, coeff in (("phi", f_coeff), ("psi", g_coeff)):
                out[index, p, family] = outcome(
                    lambda: production_build(spec, tree, p, family)
                )
                for alpha in [(), *list(tree.nodes)[-3:]]:
                    out[index, p, family, alpha] = outcome(lambda: coeff(spec, alpha, p))
            for family in ("phi", "psi", "combo"):
                out[index, p, "certificate", family] = outcome(
                    lambda: certify_family(spec, tree, p, family, a=2, b=Fraction(-1, 3))
                )
    return out


def clear_row_memos(trees):
    for _, tree in trees:
        tree.rows.clear()


def test_row_memo_does_not_change_results(monkeypatch):
    # a tree's state rows are extended in place as p grows: fresh rows, any
    # order of p and the smallest memo bound all give the same results
    trees = [oracle_tree(name, seed) for name, seed in ORACLE_TREES]
    clear_row_memos(trees)
    expected = memo_outcomes(trees, P_ORDERS[0])
    for order in P_ORDERS[1:]:
        clear_row_memos(trees)
        assert memo_outcomes(trees, order) == expected
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    for order in P_ORDERS:
        assert memo_outcomes(trees, order) == expected


def test_row_memo_is_bounded(monkeypatch, rh2, ch2):
    # the rows live on the tree, one per state, as long as the largest p
    # asked for; the algebra's tables hold none
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    calls = [(ch2, "z^8", build_psi, "psi"), (rh2, "x^6", build_phi, "phi")]
    for spec, seed, build, family in calls:
        tree = tree_of(spec, seed)
        longest = 0
        for p in (3, 6, 2):
            build(spec, tree, p)
            recurrence_check(spec, tree, p)
            longest = max(longest, p)
            rows = tree.rows[family].u
            assert len(rows) == len(tree.states)
            assert sum(len(row) for row in rows) == len(tree.states) * longest
        tables = tables_of(spec)
        assert not hasattr(tables, "rows") and not hasattr(tables, "branch_rows")


def test_tables_die_with_their_spec():
    # a name of its own, so that no equal spec is held anywhere else
    spec = from_json_dict({**CH2_JSON, "name": "ch2 weakref"})
    ref = weakref.ref(spec)
    tree = tree_of(spec, "x2_1^4")
    built = build_psi(spec, tree, 3)
    assert not tau(spec, built).is_zero()
    assert verify(spec, built, 3).proper
    del spec, tree, built
    gc.collect()
    assert ref() is None


def test_phi2_reproduces_published_biharmonic(rh2):
    phi2 = build_phi(rh2, tree_of(rh2, "x^6"), 2)
    golden = parse(
        "x^6*log(t) - 15*x^4*t^2*(log(t) - 2) + 5*x^2*t^4*(3*log(t) - 8)"
        " - 1/15*t^6*(15*log(t) - 46)",
        rh2,
    )
    assert phi2 == golden


def test_phi1_simple_seed(rh2):
    phi1 = build_phi(rh2, tree_of(rh2, "x^2"), 1)
    assert phi1 == parse("x^2 - t^2", rh2)
    assert verify(rh2, phi1, 1).proper


def test_harmonic_seed_families(rh2):
    tree = tree_of(rh2, "x")  # degree 0
    assert tree.degree == 0
    for p in (1, 2, 3):
        assert build_phi(rh2, tree, p) == parse("x", rh2) * log_t(p - 1)
        assert build_psi(rh2, tree, p) == parse("x*t", rh2) * log_t(p - 1)


def test_psi1_simple_seed(rh2):
    psi1 = build_psi(rh2, tree_of(rh2, "x^2"), 1)
    assert psi1 == parse("x^2*t - 1/3*t^3", rh2)
    cert = verify(rh2, psi1, 1)
    assert cert.proper and cert.verified_order == 1


def test_psi2_ch2_certified(ch2):
    psi2 = build_psi(ch2, tree_of(ch2, "z^4"), 2)
    cert = verify(ch2, psi2, 2, kind="psi", seed="z^4")
    assert cert.verified_order == 2 and cert.proper
    # leading term is the seed times t^n log(t)
    assert psi2.terms[next(iter(parse("z^4*t^2*log(t)", ch2).terms))] == 1


def test_phi_resonance_ch2_z4(ch2):
    # the branch through the second layer hits 2*Lambda = n immediately
    with pytest.raises(Resonance):
        build_phi(ch2, tree_of(ch2, "z^4"), 2)


def test_resonance_synthetic_then_psi(rh3):
    tree = tree_of(rh3, "x_1^2")
    with pytest.raises(Resonance):
        build_phi(rh3, tree, 3)
    cert = verify(rh3, build_psi(rh3, tree, 3), 3)
    assert cert.proper and cert.verified_order == 3


def test_combine(rh2):
    tree = tree_of(rh2, "x^6")
    phi2, psi2 = build_phi(rh2, tree, 2), build_psi(rh2, tree, 2)
    assert build(rh2, tree, 2, "combo", 1, 0) == phi2
    assert build(rh2, tree, 2, "combo", 0, 1) == psi2
    a, b = Fraction(2), Fraction(-1, 3)
    both = build(rh2, tree, 2, "combo", a, b)
    assert both == phi2 * a + psi2 * b
    cert = certify_family(rh2, tree, 2, "combo", a=a, b=b)
    assert cert == verify(rh2, both, 2, "combo")
    assert cert.proper and cert.verified_order == 2
    x = tree_of(rh2, "x")
    assert build(rh2, x, 2, "combo") == parse("(1 + t)*log(t)*x", rh2)
    for make in (build, certify_family):
        with pytest.raises(ZeroCombination):
            make(rh2, tree, 2, "combo", a=0, b=0)
        with pytest.raises(ValueError, match="unknown family"):
            make(rh2, tree, 2, "chi")


def test_combine_formal(rh4):
    seed = parse_radial_seed(
        '{"n1":3,"terms":[{"k":2,"a":"1","b":"3"}],"G":{"c0":"2","c":["0"]}}'
    )
    tree = tension_tree_radial(rh4, seed)
    phi3, psi3 = build_phi(rh4, tree, 3), build_psi(rh4, tree, 3)
    a, b = Fraction(2), Fraction(-1, 3)
    both = build(rh4, tree, 3, "combo", a, b)
    assert both == phi3 * a + psi3 * b
    zero = MixedExpr.zero()
    assert both == NodeSymbolExpr(
        {
            alpha: phi3.terms.get(alpha, zero) * a + psi3.terms.get(alpha, zero) * b
            for alpha in set(phi3.terms) | set(psi3.terms)
        }
    )
    cert = certify_family(rh4, tree, 3, "combo", a=a, b=b)
    assert cert == verify_formal(rh4, both, tree, 3, "combo")
    assert cert.proper and cert.verified_order == 3
    with pytest.raises(ZeroCombination):
        certify_family(rh4, tree, 3, "combo", a=0, b=0)


def test_verify_published_function(rh2):
    phi = parse(
        "x^6*log(t) - 15*x^4*t^2*(log(t) - 2) + 5*x^2*t^4*(3*log(t) - 8)"
        " - 1/15*t^6*(15*log(t) - 46)",
        rh2,
    )
    cert = verify(rh2, phi, 2)
    assert cert.verified_order == 2 and cert.proper
    assert not cert.residual_p.terms and cert.residual_pminus1.terms


def test_verify_bare_seed_exceeds(rh2):
    cert = verify(rh2, parse("x^6", rh2), 2)
    assert cert.verified_order is None and not cert.proper
    assert cert.to_json_dict()["verified_order"] == "exceeds p"


def test_verify_harmonic(rh2):
    cert = verify(rh2, parse("x", rh2), 1)
    assert cert.verified_order == 1 and cert.proper


def test_certificate_json_fields(rh2):
    cert = verify(rh2, parse("x^2 - t^2", rh2), 1, kind="phi", seed="x^2")
    payload = cert.to_json_dict()
    assert payload == {
        "kind": "phi",
        "p": 1,
        "seed": "x^2",
        "verified_order": 1,
        "proper": True,
        "residual_pminus1_nonzero": True,
    }


# --- formal (radial) mode ---

def radial_tree(spec, terms, c0="1", linear=()):
    seed = RadialSeed(
        radial=RadialFunction(spec.dim(1), {k: Fraction(v) for k, v in terms.items()}),
        affine=AffinePart(
            constant=Fraction(c0), linear=tuple((s, Fraction(c)) for s, c in linear)
        ),
    )
    return tension_tree_radial(spec, seed)


def test_radial_phi_resonance_rh3(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    with pytest.raises(Resonance):
        build_phi(rh3, tree, 2)


def test_radial_psi2_formal_rh3(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    psi2 = build_psi(rh3, tree, 2)
    assert isinstance(psi2, NodeSymbolExpr)
    cert = verify_formal(rh3, psi2, tree, 2, kind="psi", seed="rho^2*log(rho)")
    assert cert.verified_order == 2 and cert.proper


def test_radial_phi2_formal_ch2(ch2):
    # no resonance: the single branch has 2*Lambda^1 = 1 != 2 = n
    tree = radial_tree(ch2, {(2, True): 1})
    phi2 = build_phi(ch2, tree, 2)
    cert = verify_formal(ch2, phi2, tree, 2, kind="phi")
    assert cert.verified_order == 2 and cert.proper


def test_radial_harmonic_seed_p1(rh3):
    tree = radial_tree(rh3, {(0, True): 1})  # log(rho), flat-harmonic
    assert tree.degree == 0
    phi1 = build_phi(rh3, tree, 1)
    cert = verify_formal(rh3, phi1, tree, 1)
    assert cert.verified_order == 1 and cert.proper


def test_formal_render_takes_the_namer(rh3, ch2):
    # the coefficients are t-only, so naming the variables changes nothing;
    # a caller that renders every build with its algebra's names must not fail
    linear_g = radial_tree(ch2, {(2, True): 1, (2, False): "-1/2"}, linear=((1, "3/2"),))
    for spec, tree, builder in (
        (rh3, radial_tree(rh3, {(2, True): 1}), build_psi),
        (ch2, linear_g, build_phi),
    ):
        built = builder(spec, tree, 3)
        assert not built.is_zero()
        assert built.render(spec.var_name) == built.render()
        assert built.latex(spec.var_name) == built.latex()


def test_certificate_repr_is_deterministic(rh2, rh3):
    # a sum prints as its class name and text, never as an object address
    tree = radial_tree(rh3, {(2, True): 1})
    psi2 = build_psi(rh3, tree, 2)
    text = repr(verify_formal(rh3, psi2, tree, 2, kind="psi"))
    assert " at 0x" not in text and "NodeSymbolExpr(" in text
    assert repr(psi2) == f"NodeSymbolExpr({psi2.render()})"
    assert repr(parse("x^2 - t*log(t)", rh2)) == "MixedExpr(x1_1^2 - t*log(t))"
    assert repr(parse_polynomial("x^2 - 1/3", rh2)) == "Polynomial(x1_1^2 - 1/3)"


def test_formal_root_log_alone_exceeds(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    e = NodeSymbolExpr({(): log_t()})
    cert = verify_formal(rh3, e, tree, 1)
    assert cert.verified_order is None and not cert.proper


def test_formal_tau_children_shift(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    image = formal_tau(rh3, tree, NodeSymbolExpr({(): MixedExpr.one()}))
    assert image == NodeSymbolExpr({(1,): parse("t^2")})


@pytest.mark.parametrize(
    "terms, c0",
    [({(2, True): 1}, "0"), ({}, "1")],
    ids=["G-zero", "H-zero"],
)
def test_zero_radial_seed_certifies_order_zero(rh3, terms, c0):
    # H(rho) * G(x^2) with one factor zero is the zero function: order 0, not
    # proper, although the formal root symbol carries a nonzero coefficient
    tree = radial_tree(rh3, terms, c0=c0)
    psi2 = build_psi(rh3, tree, 2)
    assert not psi2.is_zero()
    cert = verify_formal(rh3, psi2, tree, 2, kind="psi")
    assert cert.verified_order == 0 and not cert.proper
    assert cert.to_json_dict()["residual_pminus1_nonzero"] is False


def test_realization_keeps_log_terms_apart(rh3):
    # h^1 = Lap(rho^2 log(rho) - 2 rho^2) = 4 log(rho) - 4 is harmonic and
    # nonzero, although its two coefficients sum to zero
    tree = radial_tree(rh3, {(2, True): 1, (2, False): -2})
    assert tree.nodes[(1,)].radial == RadialFunction(2, {(0, True): 4, (0, False): -4})
    cert = verify_formal(rh3, NodeSymbolExpr({(1,): MixedExpr.one()}), tree, 1)
    assert cert.verified_order == 1 and cert.proper


def random_radial_seed(spec, rng):
    """Nonzero H(rho) * G(x^2) over an algebra with n1 = 2."""
    span = [(2 * k, log) for k in range(4) for log in (True, False)]
    radial = RadialFunction(
        spec.dim(1),
        {
            key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for key in rng.sample(span, rng.randint(1, 3))
        },
    )
    linear = ()
    if spec.m >= 2 and rng.random() < 0.5:
        linear = ((1, Fraction(rng.randint(1, 4), rng.randint(1, 3))),)
    c0 = Fraction(rng.randint(0 if linear else 1, 3))
    return RadialSeed(radial=radial, affine=AffinePart(constant=c0, linear=linear))


def realized_terms(spec, tree, e: NodeSymbolExpr) -> int:
    """The number of terms of the package's realization of e (keyed by
    state, nodes substituted on the tree's node table by
    `pharmonic.realize`): zero exactly when e is, and the oracle's count
    whenever both expand the nodes on independent basis functions."""
    return len(pharmonic.realize(tree, pharmonic._symbol_form(tables_of(spec), tree, e))[1])


def test_realized_zero_test_agrees_with_formal_on_random_radial_seeds(rh3, ch2):
    # on nonzero radial seeds the tree nodes are independent, so the formal
    # zero test and the zero test on the realized function must agree
    rng = random.Random(2007)
    iterates_checked = 0
    for spec in (rh3, ch2):
        for _ in range(25):
            tree = tension_tree_radial(spec, random_radial_seed(spec, rng))
            for builder in (build_phi, build_psi):
                for p in range(1, 5):
                    try:
                        image = builder(spec, tree, p)
                    except Resonance:
                        continue
                    for _ in range(p + 1):
                        assert image.is_zero() == (not realize(tree, image))
                        assert realized_terms(spec, tree, image) == len(realize(tree, image))
                        iterates_checked += 1
                        if image.is_zero():
                            break
                        image = formal_tau(spec, tree, image)
    assert iterates_checked > 500


@pytest.mark.parametrize(
    "name, seed",
    [("ch2", "x^4"), ("ch4", "(x_1*y_2+z)^4"), ("fil3", "(x1_1*x1_2+x2_1+x3_1)^4")],
)
def test_formal_iterates_realize_to_concrete_iterates(name, seed):
    # polynomial nodes substitute into the formal form of psi_p; each formal
    # iterate realizes to the concrete operator iterate, and verify_formal
    # certifies what verify does (these trees have linearly dependent nodes)
    spec = filiform() if name == "fil3" else catalog_short_name(name)
    tree = tree_of(spec, seed)
    for p in (1, 2, 3):
        formal = NodeSymbolExpr(
            {alpha: g_coeff(spec, alpha, p) for alpha in [(), *tree.nodes]}
        )
        concrete = build_psi(spec, tree, p)
        assert realize(tree, formal) == concrete.terms
        assert realized_terms(spec, tree, formal) == len(realize(tree, formal))
        cert = verify_formal(spec, formal, tree, p, kind="psi")
        expected = verify(spec, concrete, p, kind="psi")
        assert cert.to_json_dict() == expected.to_json_dict()
        for _ in range(p):
            formal = formal_tau(spec, tree, formal)
            concrete = tau(spec, concrete)
            assert realize(tree, formal) == concrete.terms
            assert realized_terms(spec, tree, formal) == len(realize(tree, formal))


def test_random_combinations_stay_proper(rh2, ch2, ch3):
    rng = random.Random(77)
    cases = [
        (rh2, tree_of(rh2, "x^6")),
        (ch2, tree_of(ch2, "z^4")),
        (ch3, tree_of(ch3, "z^2*x_1")),
    ]
    for spec, tree in cases:
        for p in (1, 2, 3):
            try:
                phi = build_phi(spec, tree, p)
            except Resonance:
                phi = None
            psi = build_psi(spec, tree, p)
            for _ in range(5):
                a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                if a == 0 and b == 0:
                    b = Fraction(1)
                if phi is None:
                    combined = psi * b if b else psi
                else:
                    combined = build(spec, tree, p, "combo", a, b)
                cert = verify(spec, combined, p)
                assert cert.verified_order == p and cert.proper


def test_formal_latex_render(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    psi2 = build_psi(rh3, tree, 2)
    tex = psi2.latex()
    assert r"h^{1}_{(1)}" in tex and r"\log(t)" in tex


def test_p_budget_refuses_before_any_work(rh2, rh3, monkeypatch):
    # every public entry taking an order checks it first: p past the budget
    # is a BudgetExceeded before a row is made or the operator is applied
    import polyharm.pharmonic as ph

    trees = [(rh2, tree_of(rh2, "x^2")), (rh3, radial_tree(rh3, {(2, True): 1}))]
    calls = []
    monkeypatch.setattr(ph, "_rows", lambda *args: calls.append("row"))
    monkeypatch.setattr(ph, "tau_form", lambda *args: calls.append("tau"))
    p = ph._P_BUDGET + 1
    for spec, tree in trees:
        for run in (
            lambda: build_psi(spec, tree, p),
            lambda: recurrence_check(spec, tree, p),
            lambda: verify(spec, parse("t^(1/2)"), p),
            lambda: verify_formal(spec, NodeSymbolExpr({(): MixedExpr.one()}), tree, p),
        ):
            with pytest.raises(BudgetExceeded):
                run()
    assert not calls
    monkeypatch.undo()
    # the budget itself is allowed
    assert build_psi(rh2, trees[0][1], ph._P_BUDGET)
    assert verify(rh2, parse("x^2", rh2), ph._P_BUDGET).verified_order is None
    with pytest.raises(ValueError):
        build_phi(rh2, trees[0][1], 0)


# --- recurrences ---

def test_recurrence_rh2_x6(rh2):
    tree = tree_of(rh2, "x^6")
    for p in (1, 2, 3, 4):
        assert recurrence_check(rh2, tree, p)


def test_recurrence_ch2_z4(ch2):
    tree = tree_of(ch2, "z^4")
    for p in (2, 3):
        assert recurrence_check(ch2, tree, p)


def test_recurrence_radial(rh3):
    tree = radial_tree(rh3, {(2, True): 1})
    for p in (1, 2, 3):
        assert recurrence_check(rh3, tree, p)


def test_recurrence_detects_wrong_factor(rh2, rh3, monkeypatch):
    # sanity: the check is not vacuous; an operator off by t must fail it.
    # Both tree kinds check the identity on states with the integer kernel,
    # so that is what is broken: it adds t^1 times the seed's state symbol.
    # The sum then fails to vanish on states and is decided on its
    # realization, t^1 times the seed, which is not zero.
    trees = [(rh2, tree_of(rh2, "x^6")), (rh3, radial_tree(rh3, {(2, True): 1}))]
    import polyharm.pharmonic as ph

    original = ph.tau_form

    def broken_tau_form(tables, form, images=None):
        d, terms = original(tables, form, images)
        key = (0, tables.exponent_id(Fraction(1)), 0)
        return d, {**terms, key: terms.get(key, 0) + d}

    assert all(recurrence_check(spec, tree, 2) for spec, tree in trees)
    monkeypatch.setattr(ph, "tau_form", broken_tau_form)
    for spec, tree in trees:
        assert not recurrence_check(spec, tree, 2)
