"""The integer form from build to certificate, cross-checked against the
MixedExpr oracles: `recurrence_check` against `recurrence_by_exprs`, `verify`
against a loop of `tau_by_partials`, and every result under the smallest
memo bound.  Radial trees run on the same kernel under their images; there
the oracles are the formal operator `formal_tau` on node-symbol sums and its
certificate loop.  The kernel's scratch row is checked against the dict
kernel `tau_form_by_dict`, form by form and key by key, and its slot factor
against `factor_by_formula`."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyharm import (
    AffinePart,
    MixedExpr,
    NodeSymbolExpr,
    Polynomial,
    RadialFunction,
    RadialSeed,
    Resonance,
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
    verify,
    verify_formal,
)
from polyharm import laplacian, pharmonic
from polyharm.laplacian import tables_of, tau_form
from polyharm.pharmonic import _member, _states_basis, _symbols
from polyharm.poly import Monomial

from conftest import SWEEP, random_mixed_expr
from oracles import (
    build_by_branches,
    certificate_by_partials,
    factor_by_formula,
    flat_form,
    formal_certificate,
    formal_tau,
    image_by_monomials,
    realize,
    recurrence_by_exprs,
    slots_by_divmod,
    t_power,
    tau_by_partials,
    tau_form_by_dict,
)
from test_algebra import filiform

# [X^1_1, X^1_2] = 3/2 X^2_1 with eigenvalues (1/3, 2/3): n = 4/3
ODD = {
    "name": "odd",
    "lambdas": ["1/3", "2/3"],
    "dims": [2, 1],
    "brackets": [{"i": 1, "j": 1, "k": 1, "l": 2, "alpha": 2, "beta": 1, "c": "3/2"}],
}


def spec_of(name):
    if name == "fil3":
        return filiform()
    if name == "odd":
        return from_json_dict(ODD)
    return catalog_short_name(name)


# (algebra, seed, highest p the certificate oracle runs to): the sweep's named
# seeds, the deep trees, the wide seeds and an algebra with n = 4/3
TREES = [
    ("rh2", "x^6", 8),
    ("rh4", "x_1^2*x_2^2 - x_3^4", 8),
    ("ch2", "z^4", 8),
    ("ch2", "x^2*z^2", 8),
    ("ch2", "x^4", 8),
    ("ch3", "(x_1^2 + y_1^2)*z^2", 8),
    ("ch4", "x_1*y_2*z + y_3^3", 8),
    ("ch2", "z^8", 8),
    ("rh2", "x^16", 8),
    ("rh3", "(x1_1^2 + x1_2^2)^6", 8),
    ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^4", 4),
    ("ch4", "(x_1*y_2 + z)^4", 6),
    ("ch3", "(x_1*y_2 + x_2*y_1 + z)^3", 6),
    ("odd", "(x1_1^2 + x1_2^2)*x2_1^2", 8),
]
TREE_IDS = [f"{name}:{seed}" for name, seed, _ in TREES]

# --expr style inputs: rational and negative t-exponents, log powers
EXPRESSIONS = [
    ("ch2", "x*t^(-1/2)*log(t)^2", 4),
    ("ch2", "t^(-3)*log(t)^3 - 2/5*z^2*t^(1/3)", 5),
    ("ch3", "x_1*y_2*t^(5/2) + z*log(t) - 7", 4),
    ("rh2", "x^3*t^(-2) + log(t)^4", 5),
    ("fil3", "x1_1^2*x2_1*t^(-1/3)*log(t)", 3),
    ("odd", "x2_1^2*t^(4/3)*log(t)^2 - 1/2*x1_2*t^(-2/3)", 4),
    # exponent unit 42 = lcm(2, 3, 7), against ch2's eigenvalue scale 2
    ("ch2", "t^(1/3)*x + z^2*t^(2/7)*log(t)^2", 3),
]

# Per EXPRESSIONS row, by its text: the sha256 of repr(verify(spec, e, p))
# and of repr(tau(spec, e)).
EXPRESSION_DIGESTS = {
    "x*t^(-1/2)*log(t)^2": (
        "3749382b8b7d37714833e8e45eccc0b0d93549bafbe444a338d4dcd1cf8e28c0",
        "f3a47fa9ccafae99bd52e780fc2cf9f0b6c53e0b7d1786906801498e3e137e7b",
    ),
    "t^(-3)*log(t)^3 - 2/5*z^2*t^(1/3)": (
        "68fc85b331b599f4b455c4e553b7ecf82d3f5aed1c4dd7756c564e4df86babe5",
        "2f78aa64f78d27bd478c20c6769ada324c7cf4a56a49cf71a5663969fbb3cf71",
    ),
    "x_1*y_2*t^(5/2) + z*log(t) - 7": (
        "5426354df3d8246aba2c87636b27675939b1338996d3fa85c2bacb31e668c923",
        "245956e0f31f5896944fa06480b362f4fe75daa17897710d2868f3fa54717324",
    ),
    "x^3*t^(-2) + log(t)^4": (
        "ba43a2e69797e7b4ab1e50b3aff5ee16ca127395f35a5e931a0027ce927cbf5a",
        "5219c948f2992532b99f257fbf8755f952316920a0bb39a75a064fe3016181e5",
    ),
    "x1_1^2*x2_1*t^(-1/3)*log(t)": (
        "6cc114419230f0f20f85468f1807b6e2d27cde4c15870d512adc641696cbc512",
        "3e132a37a1bb6c3279d782bb7930246185a2f4754ed8a8d80189bdcececfe1e5",
    ),
    "x2_1^2*t^(4/3)*log(t)^2 - 1/2*x1_2*t^(-2/3)": (
        "c97cc7c6f50764ae27773c7eb67e5eec450fa665c88a19db891e66453d8dbb2e",
        "18bbd8857c503042c69925c6a3db4d0cc63be23fc258ad4c11f5f64c1a6a42eb",
    ),
    "t^(1/3)*x + z^2*t^(2/7)*log(t)^2": (
        "bdbbda380f0afa4b4f3b1930ccb89e8a85b18ae2bcd3aa7ee28e777c8b7ea5d7",
        "f75e4fe83695ea28a69c60a93fa52400df6c0fea5439a87e3579a0927f8c793f",
    ),
}


def tree_of(spec, seed):
    return tension_tree(spec, parse_polynomial(seed, spec))


def members(spec, tree, p_max):
    """(p, phi_p or psi_p) for p = 1..p_max, resonant phi skipped."""
    for p in range(1, p_max + 1):
        for builder in (build_phi, build_psi):
            try:
                yield p, builder(spec, tree, p)
            except Resonance:
                pass


def certificate_fields(cert):
    return (cert.verified_order, cert.proper, cert.residual_pminus1, cert.residual_p)


def assert_matches_oracle(spec, e, p):
    cert = verify(spec, e, p)
    expected = certificate_by_partials(spec, e, p)
    assert certificate_fields(cert) == expected
    assert type(cert.residual_pminus1) is MixedExpr and type(cert.residual_p) is MixedExpr


@pytest.mark.parametrize("name, seed, p_max", TREES, ids=TREE_IDS)
def test_recurrence_matches_expression_oracle(name, seed, p_max):
    spec = spec_of(name)
    tree = tree_of(spec, seed)
    for p in range(1, 9):
        assert recurrence_check(spec, tree, p) == recurrence_by_exprs(spec, tree, p)


def test_recurrence_packs_its_members_at_one_width(monkeypatch):
    # on the sweep's trees, the three members of each identity are joined
    # from their rows at the width of their sum: neither the kernel nor the
    # sum repacks a part; a repack widens a form (`_widened`) or reads its
    # slots back through the codec (`_slots`)
    repacked = []
    for module, name in ((laplacian, "_slots"), (laplacian, "_widened"), (pharmonic, "_widened")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original: repacked.append(a) or f(*a))
    checked = 0
    for name in ("rh2", "rh4", "ch2", "ch3", "ch4"):
        spec = spec_of(name)
        for seed in SWEEP.seed_pool(name, spec, 10, 1):
            tree = tension_tree(spec, seed)
            for p in range(1, 7):
                assert recurrence_check(spec, tree, p)
                checked += 1
    assert checked > 300 and repacked == []


@pytest.mark.parametrize("name, seed, p_max", TREES, ids=TREE_IDS)
def test_certificate_matches_oracle_on_family(name, seed, p_max):
    spec = spec_of(name)
    for p, e in members(spec, tree_of(spec, seed), p_max):
        assert_matches_oracle(spec, e, p)


@pytest.mark.parametrize("name, text, p_max", EXPRESSIONS)
def test_certificate_matches_oracle_on_expressions(name, text, p_max):
    spec = spec_of(name)
    e = parse(text, spec)
    for p in range(1, p_max + 1):
        assert_matches_oracle(spec, e, p)


@pytest.mark.parametrize("name, text, p", EXPRESSIONS)
def test_expression_results_are_pinned(name, text, p):
    spec = spec_of(name)
    e = parse(text, spec)
    results = (verify(spec, e, p), tau(spec, e))
    digests = tuple(hashlib.sha256(repr(value).encode()).hexdigest() for value in results)
    assert digests == EXPRESSION_DIGESTS[text]


def test_certificate_matches_oracle_on_random_expressions(ch2, ch3):
    rng = random.Random(8)
    for spec in (ch2, ch3, spec_of("odd")):
        for _ in range(6):
            e = random_mixed_expr(spec, rng)
            assert_matches_oracle(spec, e, rng.randint(1, 4))
        assert_matches_oracle(spec, MixedExpr(), 2)


def held_entries(tables):
    """The entries the tables' memo holds, recounted: monomials and image
    entries, then per basis its ids and basis-image entries."""
    images = sum(len(part) for image in tables.images.values() for part in image)
    return len(tables.monomials) + images, [
        len(basis.keys) + sum(len(image) for image in basis.images if image)
        for basis in tables.bases.values()
    ]


def assert_counts_held(spec, tree):
    """The running counts of the memo equal a fresh recount."""
    tables = tables_of(spec)
    assert len(tables.packed) == len(tables.monomials)
    assert held_entries(tables) == (tables.held, [b.held for b in tables.bases.values()])
    for basis in tree.bases.values():
        assert basis.held == len(basis.keys) + sum(len(i) for i in basis.images if i)


def outcomes(spec, tree, seed, exprs, p_max):
    """Every public result the integer form feeds, for one tree, its seed
    grown again and a few expressions, with the memo's counts checked after
    each call."""
    def call(function, *args):
        try:
            return function(*args)
        finally:
            assert_counts_held(spec, tree)

    out = [call(tree_of, spec, seed)]
    for p in range(1, p_max + 1):
        for builder in (build_phi, build_psi):
            try:
                built = call(builder, spec, tree, p)
            except Resonance:
                out.append(None)
                continue
            out.append(built)
            out.append(certificate_fields(call(verify, spec, built, p)))
        out.append(call(recurrence_check, spec, tree, p))
    return out, [(call(tau, spec, e), certificate_fields(call(verify, spec, e, 4))) for e in exprs]


def both_orders(spec, tree, seed, exprs):
    """`outcomes` with the expressions in order, then in reverse order (read
    back in order), so their exponent units meet the tables in two orders."""
    family, backward = outcomes(spec, tree, seed, exprs[::-1], 5)
    return outcomes(spec, tree, seed, exprs, 5), (family, backward[::-1])


def test_memo_bound_keeps_every_result(monkeypatch):
    # the bound counts entries, so at 1 every public call starts from an
    # empty memo: certificates, residuals and trees must not change
    cases = []
    for name, seed in (("ch2", "z^8"), ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^3"), ("odd", "x2_1^3")):
        spec = spec_of(name)
        exprs = [parse(text, spec) for n, text, _ in EXPRESSIONS if n == name]
        cases.append((spec, tree_of(spec, seed), seed, exprs))
    expected = []
    for spec, tree, seed, exprs in cases:
        forward, backward = both_orders(spec, tree, seed, exprs)
        assert backward == forward
        assert forward[0][0] == tree
        expected.append(forward)
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    for (spec, tree, seed, exprs), before in zip(cases, expected):
        assert both_orders(spec, tree, seed, exprs) == (before, before)
        # ids are cleared only at the entry of a call, so the ids one call
        # interns all stay until it returns
        tables = tables_of(spec)
        verify(spec, build_psi(spec, tree, 5), 5)
        assert tables.monomials and tables.images and tables.bases
        for basis in [*tables.bases.values(), *tree.bases.values()]:
            held = range(len(basis.keys))
            assert sorted(basis.ids.values()) == list(held)
            assert all(j in held for image in basis.images if image for j, _ in image)
        # every key is a monomial packed in the fields: it unpacks and packs back
        keys = {x for x, _ in tables.basis(tree.scale).keys} | set(tables.images)
        assert all(laplacian._pack(tables.offsets, tables.monomial(x)) == x for x in keys)
        assert_counts_held(spec, tree)


def assert_images_match_oracle(tables):
    """Every image the memo holds equals the image on Monomial objects, and
    every key unpacks to a monomial that packs back to it."""
    for m, image in tables.images.items():
        mono = tables.monomial(m)
        assert laplacian._pack(tables.offsets, mono) == m
        got = [{tables.monomial(target): a for target, a in part} for part in image]
        assert got == image_by_monomials(tables, mono)
    return len(tables.images)


# trees whose monomials fill their fields: x^16 and x^6 reach the top field
# value of their width on the one variable of rh2
IMAGE_TREES = [
    ("rh2", "x^6"),
    ("rh2", "x^16"),
    ("ch3", "(x_1*y_2 + x_2*y_1 + z)^3"),
    ("ch3", "(x_1^2 + y_1^2)*z^2"),
    ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^4"),
    ("odd", "(x1_1^2 + x1_2^2)*x2_1^2"),
]


def test_packed_images_match_monomial_oracle():
    rng = random.Random(21)
    checked = 0
    for name, seed in IMAGE_TREES:
        spec = spec_of(name)  # fresh tables: the tree's seed sets the fields
        tree = tree_of(spec, seed)
        checked += assert_images_match_oracle(tables_of(spec))
        for p, built in members(spec, tree, 3):
            verify(spec, built, p)
        for _ in range(3):
            verify(spec, random_mixed_expr(spec, rng), 3)
        checked += assert_images_match_oracle(tables_of(spec))
    assert checked > 250


def test_a_wider_expression_widens_the_fields():
    # x^6 on rh2 sets 3-bit fields (x^7 is the widest monomial they admit);
    # x^9 passes them, so its verify widens them, empties the memo and
    # starts again, and its certificate and images match the oracles
    spec = spec_of("rh2")
    tables = tables_of(spec)
    tree = tree_of(spec, "x^6")
    assert (tables.width, tables.limit) == (3, 15)
    assert tables.images and tables.pack(parse_polynomial("x^8", spec).terms.popitem()[0]) is None
    for text in ("x^7*t + x^2", "x^9*t^(1/2) - x^6*log(t)"):
        e = parse(text, spec)
        assert_matches_oracle(spec, e, 6)
        assert_images_match_oracle(tables)
    assert tables.width == 4 and all(tables.monomial(m).degree <= 9 for m in tables.images)
    # the tree made at the narrower width still builds, certifies and grows alike
    assert tree_of(spec, "x^6") == tree
    for p, built in members(spec, tree, 4):
        assert_matches_oracle(spec, built, p)
    assert certify_family(spec, tree, 4, "psi").proper
    assert set(tree.node_keys) == {3, 4}
    assert_images_match_oracle(tables)


def assert_converts_term_by_term(spec, e):
    """`to_form` keys each term by its monomial id and exponent over the
    basis unit, over the lcm of the coefficient denominators, and `to_expr`
    gives e back with one Fraction object per distinct coefficient."""
    tables = tables_of(spec)
    basis, form = laplacian.to_form(tables, e)
    d, width, bound, terms = form
    assert d == lcm(*(c.denominator for c in e.terms.values()))
    assert basis.q == lcm(tables.scale, *(mu.denominator for _, mu, _ in e.terms))
    found = {
        (tables.monomials[basis.keys[i][0]], Fraction(basis.keys[i][1], basis.q), k): c
        for (i, k), c in flat_form(form).items()
    }
    assert found == e.terms and all(terms.values())
    # the least width: the largest numerator of log(t)^k / k! over d fits
    largest = int(max(abs(c * factorial(k) * d) for (_, _, k), c in e.terms.items()))
    assert (bound, width) == (largest, largest.bit_length() + 1)
    back = laplacian.to_expr(basis, form)
    assert back == e
    assert len({id(c) for c in back.terms.values()}) == len(set(back.terms.values()))


def test_conversions_invert_each_other_on_fresh_and_warm_tables():
    for name, seed, _ in TREES[-4:]:
        tree_spec = spec_of(name)
        tree = tree_of(tree_spec, seed)
        for p, built in members(tree_spec, tree, 3):
            # a second spec has its own, empty tables: every key misses
            for spec in (spec_of(name), tree_spec):
                assert_converts_term_by_term(spec, built)
    for name, text, _ in EXPRESSIONS:
        spec = spec_of(name)
        for _ in range(2):
            assert_converts_term_by_term(spec, parse(text, spec))


# --- the inputs the slot readers take and the Fractions the maker makes ---

def constructed_exprs(spec):
    """MixedExprs of ch2 from every public constructor: the parser, constants,
    a polynomial at an int and at a Fraction exponent, the dict constructor
    on ints, and sums, differences, products and scalar multiples of them."""
    poly = parse_polynomial("x^2 - 2/3*z", spec)
    parsed = parse("x*t^(-1/2)*log(t)^2 - 3/4*z", spec)
    at_int = MixedExpr.from_polynomial(poly, 2, 1)
    at_fraction = MixedExpr.from_polynomial(poly, Fraction(-1, 3))
    constant = MixedExpr.constant(Fraction(-5, 6))
    by_dict = MixedExpr({(Monomial.one(), 1, 2): 3})
    return [
        parsed, constant, MixedExpr.constant(3), MixedExpr.one(), at_int, at_fraction, by_dict,
        parsed + at_int, at_fraction - constant, parsed * at_fraction, by_dict * poly,
        at_int * 3, Fraction(2, 7) * parsed, -by_dict,
    ]


def test_constructed_expressions_certify_as_the_oracle():
    # `to_form` reads the two slots of every coefficient and exponent, so
    # each public way of making a MixedExpr must hand it Fractions
    spec = spec_of("ch2")
    for e in constructed_exprs(spec):
        assert e.terms
        for p in (1, 2, 3):
            assert_matches_oracle(spec, e, p)
        assert_converts_term_by_term(spec, e)


def test_constructed_symbol_sums_certify_as_the_oracle():
    # `_symbol_form` reads the same slots off a node-symbol sum's coefficients
    spec, tree = next((spec, tree) for spec, tree in radial_cases() if len(tree.nodes) > 1)
    alpha = max(tree.nodes)
    e = NodeSymbolExpr({
        (): MixedExpr.from_polynomial(Polynomial.one(), 2),
        alpha: MixedExpr.constant(Fraction(-1, 2)) + parse("t^(1/2)*log(t)", spec),
    })
    sums = [e, e * 3, Fraction(-2, 5) * e, e + build_psi(spec, tree, 2), -e]
    for e in sums:
        for p in (1, 2, 3):
            cert = verify_formal(spec, e, tree, p)
            assert certificate_fields(cert) == formal_certificate(spec, tree, e, p)


def assert_normalised(coefficients):
    """Each coefficient a Fraction in lowest terms with a positive
    denominator, hashing as the constructor's Fraction does."""
    for c in coefficients:
        n, d = c.numerator, c.denominator
        assert type(c) is Fraction and type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1
        assert hash(c) == hash(Fraction(n, d))


def normalised_coefficients_checked(monkeypatch) -> int:
    """Every coefficient the maker makes on the way out of a form
    (`laplacian._expr_terms`, behind `to_expr` and `_symbols`) over the
    builds, certificates and `tau` of `FLAT_CASES` and of radial trees,
    checked (`assert_normalised`); the number checked."""
    count = 0
    expr_terms = laplacian._expr_terms

    def checked(form, xparts, exponents):
        nonlocal count
        out = expr_terms(form, xparts, exponents)
        assert_normalised(out.values())
        count += len(out)
        return out

    cases = [(spec_of(name), seed, p_max) for name, seed, p_max in FLAT_CASES]
    cases = [(spec, tree_of(spec, seed), p_max) for spec, seed, p_max in cases]
    cases += [(spec, tree, 3) for spec, tree in list(radial_cases())[::10]]
    with monkeypatch.context() as patch:
        patch.setattr(laplacian, "_expr_terms", checked)
        patch.setattr(pharmonic, "_expr_terms", checked)
        for spec, tree, p_max in cases:
            for p in range(1, p_max + 1):
                for family in ("phi", "psi"):
                    try:
                        built = build(spec, tree, p, family)
                    except Resonance:
                        continue
                    certify_family(spec, tree, p, family)
                    if tree.kind == "polynomial":
                        verify(spec, built, p)
                        tau(spec, built)
                    else:
                        verify_formal(spec, built, tree, p)
    return count


NORMALISED_RUNNER = """
import pytest
from test_integer_form import normalised_coefficients_checked
from polyharm import laplacian
patch = pytest.MonkeyPatch()
counts = [normalised_coefficients_checked(patch)]
patch.setattr(laplacian, "_MEMO_LIMIT", 1)
counts.append(normalised_coefficients_checked(patch))
print(counts)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_every_coefficient_leaves_normalised(hash_seed):
    # at the default memo bound and at 1, under two hash seeds
    tests = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join((source, tests)))
    result = subprocess.run(
        [sys.executable, "-c", NORMALISED_RUNNER], env=env, capture_output=True, text=True,
        cwd=tests,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts[0] == counts[1] > 10_000


# --- radial trees: the kernel under the tree's images ---

def random_radial_seed(spec, rng):
    """A nonzero H(rho) * G(x^2) in the span of the algebra's n1: rho^(2k)
    and rho^(2k) log(rho) for n1 = 2, rho^(2k) and rho^(2k + 2 - n1) else;
    G has a linear part wherever the algebra has a second layer."""
    n1 = spec.dim(1)
    if n1 == 2:
        span = [(2 * k, log) for k in range(4) for log in (True, False)]
    else:
        span = sorted({(a, False) for k in range(4) for a in (2 * k, 2 * k + 2 - n1)})
    radial = RadialFunction(
        n1,
        {
            key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for key in rng.sample(span, rng.randint(1, 3))
        },
    )
    linear = ()
    if spec.m >= 2:
        linear = ((1, Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))),)
    c0 = Fraction(rng.randint(0, 3))
    return RadialSeed(radial=radial, affine=AffinePart(constant=c0, linear=linear))


def radial_cases():
    """(spec, tree) for 25 random radial seeds on each of rh3, ch2 (linear G)
    and rh4 (n1 = 3, no logs)."""
    rng = random.Random(2007)
    for name in ("rh3", "ch2", "rh4"):
        spec = spec_of(name)
        for _ in range(25):
            yield spec, tension_tree_radial(spec, random_radial_seed(spec, rng))


RADIAL_P_MAX = 5


def test_radial_kernel_iterates_match_formal_operator():
    checked = 0
    for spec, tree in radial_cases():
        for family, builder in (("phi", build_phi), ("psi", build_psi)):
            for p in range(1, RADIAL_P_MAX + 1):
                try:
                    built = builder(spec, tree, p)
                except Resonance:
                    continue
                assert built == build_by_branches(spec, tree, p, family)
                # the oracle iterates first: the public build clears ids
                expected = [built]
                for _ in range(p):
                    expected.append(formal_tau(spec, tree, expected[-1]))
                basis = _states_basis(tables_of(spec), tree, tree.scale)
                form = _member(basis, tree, p, family)
                for e in expected:
                    assert _symbols(tree, basis, form) == e
                    assert as_symbols(tree, basis, flat_form(form)) == e
                    form = tau_form(basis, form)
                    checked += 1
    assert checked > 1500


def random_symbol_sum(tree, rng):
    """Random t-powers and logs on some of the tree's symbols and on one
    symbol the tree lacks, which certification drops."""
    symbols = [(), *tree.nodes, (9,)]
    return NodeSymbolExpr(
        {
            alpha: t_power(
                Fraction(rng.randint(-3, 4), rng.randint(1, 2)), rng.randint(0, 2)
            ) * rng.randint(-2, 3)
            for alpha in rng.sample(symbols, rng.randint(1, len(symbols)))
        }
    )


def test_radial_certificate_matches_formal_oracle():
    rng = random.Random(9)
    for spec, tree in radial_cases():
        candidates = [(random_symbol_sum(tree, rng), rng.randint(1, 4))]
        for builder in (build_phi, build_psi):
            for p in range(1, RADIAL_P_MAX + 1):
                try:
                    candidates.append((builder(spec, tree, p), p))
                except Resonance:
                    pass
        for e, p in candidates:
            cert = verify_formal(spec, e, tree, p)
            assert certificate_fields(cert) == formal_certificate(spec, tree, e, p)
            assert type(cert.residual_pminus1) is NodeSymbolExpr
            assert type(cert.residual_p) is NodeSymbolExpr


def test_radial_recurrence_matches_formal_oracle():
    for spec, tree in radial_cases():
        for p in range(1, RADIAL_P_MAX + 1):
            assert recurrence_check(spec, tree, p) == recurrence_by_exprs(spec, tree, p)


# --- every packed result read flat against the flat oracles ---

def as_expr(basis, flat):
    """A form on a basis over packed monomials, read flat (`flat_form`), as
    a MixedExpr."""
    monomial = basis.tables.monomial
    return MixedExpr({
        (monomial(basis.keys[i][0]), Fraction(basis.keys[i][1], basis.q), k): c
        for (i, k), c in flat.items()
    })


def as_symbols(tree, basis, flat):
    """A form on a tree's basis, read flat, as a node-symbol sum."""
    out: dict = {}
    for (i, k), c in flat.items():
        s, e = basis.keys[i]
        out.setdefault(tree.states[s].least, {})[(Monomial.one(), Fraction(e, basis.q), k)] = c
    return NodeSymbolExpr({alpha: MixedExpr(terms) for alpha, terms in out.items()})


def by_state(tree, e):
    """A node-symbol sum with the symbols of one state summed under the
    state's least multi-index, as the tree's basis keys them."""
    out: dict = {}
    for alpha, coeff in e.terms.items():
        s = tree.state_of(alpha)
        if s is not None:
            least = tree.states[s].least
            out[least] = out.get(least, MixedExpr()) + coeff
    return NodeSymbolExpr({alpha: c for alpha, c in out.items() if c.terms})


def oracle_key(tree, f):
    """The key `oracles.node_basis` gives the tree's basis function f: the
    monomial itself, or (a, has_log, slot of the monomial of G) for a
    radial tree."""
    function = tree.integer_nodes[1][f]
    if tree.kind == "polynomial":
        return function
    a, has_log, mono = function
    return a, has_log, mono.exps[0][0].slot if mono.exps else 0


class FlatChecks:
    """`tau_form`, `realize` and `_summed` of `pharmonic`, each result read
    flat and compared with the flat oracles: the operator by partial
    derivatives on a concrete basis and the formal operator on a tree's
    basis, `oracles.realize`, and the sum read off the parts' rows.  `count`
    counts the results checked."""

    def __init__(self, monkeypatch, spec, tree):
        self.spec, self.tree, self.count = spec, tree, 0
        tau_form, realize_form, summed = pharmonic.tau_form, pharmonic.realize, pharmonic._summed

        def checked_tau_form(basis, form, ahead=1):
            out = tau_form(basis, form, ahead)
            if basis.xparts is None:
                expected = tau_by_partials(spec, as_expr(basis, flat_form(form)))
                assert as_expr(basis, flat_form(out)) == expected
            else:
                tree = self.tree
                expected = formal_tau(spec, tree, as_symbols(tree, basis, flat_form(form)))
                assert as_symbols(tree, basis, flat_form(out)) == by_state(tree, expected)
            self.count += 1
            return out

        def checked_realize(tree, basis, form):
            out = realize_form(tree, basis, form)
            expected = realize(tree, as_symbols(tree, basis, flat_form(form)))
            got = {
                (oracle_key(tree, f), Fraction(e, basis.q), k): c
                for ((f, e), k), c in flat_form(out).items()
            }
            assert got == expected
            self.count += 1
            return out

        def checked_summed(basis, parts, headroom, kernel=False):
            # each part as the node-symbol sum of its rows: slot k of state
            # S over w, times k!, on log(t)^k t^(exponent of S)
            out = summed(basis, parts, headroom, kernel)
            tree, one = self.tree, Monomial.one()
            expected = NodeSymbolExpr()
            for index, (rows, (w, _, numerators), c_num, c_den) in enumerate(parts):
                part = NodeSymbolExpr({
                    tree.states[s].least: MixedExpr({
                        (one, Fraction(rows.exponents[s], basis.q), k): Fraction(v, w * factorial(k))
                        for k, v in enumerate(row)
                    })
                    for s, row in enumerate(numerators)
                })
                if kernel and not index:
                    part = formal_tau(spec, tree, part)
                expected = expected + part * Fraction(c_num, c_den)
            assert as_symbols(tree, basis, flat_form(out)) == by_state(tree, expected)
            self.count += 1
            return out

        monkeypatch.setattr(pharmonic, "tau_form", checked_tau_form)
        monkeypatch.setattr(pharmonic, "realize", checked_realize)
        monkeypatch.setattr(pharmonic, "_summed", checked_summed)


# (algebra, seed, highest p): sweep-size seeds, deep trees and the wide seeds
FLAT_CASES = [
    ("ch2", "x^2*z - 1/2*y", 4),
    ("rh4", "x_1^2*x_2^2 - x_3^4", 4),
    ("ch3", "(x_1^2 + y_1^2)*z^2", 4),
    ("ch2", "z^8", 6),
    ("rh2", "x^16", 6),
    ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^4", 3),
    ("ch4", "(x_1*y_2 + z)^4", 4),
    ("ch3", "(x_1*y_2 + x_2*y_1 + z)^3", 4),
    ("odd", "(x1_1^2 + x1_2^2)*x2_1^2", 5),
]


def packed_results_checked(monkeypatch) -> int:
    """Every packed iterate and realization of `verify`, `certify_family`
    (phi, psi and, where both are defined, a combination), `verify_formal`
    and `recurrence_check` on `FLAT_CASES` and on radial trees, read flat
    and checked (`FlatChecks`); the number checked."""
    count = 0
    cases = [(spec_of(name), seed, p_max) for name, seed, p_max in FLAT_CASES]
    cases = [(spec, tree_of(spec, seed), p_max) for spec, seed, p_max in cases]
    cases += [(spec, tree, 3) for spec, tree in list(radial_cases())[::10]]
    for spec, tree, p_max in cases:
        for p in range(1, p_max + 1):
            built = {}
            for family in ("phi", "psi"):
                try:
                    built[family] = build(spec, tree, p, family)
                except Resonance:
                    pass
            with monkeypatch.context() as patch:
                checks = FlatChecks(patch, spec, tree)
                for family, e in built.items():
                    certify_family(spec, tree, p, family)
                    if tree.kind == "polynomial":
                        verify(spec, e, p)
                    else:
                        verify_formal(spec, e, tree, p)
                if len(built) == 2:  # a sum of two members with no kernel
                    certify_family(spec, tree, p, "combo", a=Fraction(1, 2), b=-3)
                recurrence_check(spec, tree, p)
                count += checks.count
    return count


def test_every_packed_result_matches_flat_oracle(monkeypatch):
    assert packed_results_checked(monkeypatch) > 800
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    assert packed_results_checked(monkeypatch) > 800


FLAT_RUNNER = """
import sys
import pytest
from test_integer_form import packed_results_checked
from polyharm import laplacian
patch = pytest.MonkeyPatch()
counts = [packed_results_checked(patch)]
patch.setattr(laplacian, "_MEMO_LIMIT", 1)
counts.append(packed_results_checked(patch))
print(counts)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_packed_results_do_not_depend_on_the_hash_seed(hash_seed):
    tests = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join((source, tests)))
    result = subprocess.run(
        [sys.executable, "-c", FLAT_RUNNER], env=env, capture_output=True, text=True, cwd=tests
    )
    assert result.returncode == 0, result.stderr
    assert all(count > 800 for count in json.loads(result.stdout))


# --- the kernel's scratch row, against the dict accumulation of the oracles ---

def assert_row_zero(basis):
    """`Basis.acc` holds one entry per id, every one zero."""
    assert len(basis.acc) == len(basis.keys) and not any(basis.acc)


def run_public_calls(check) -> None:
    """`build`, `certify_family`, `verify`, `tau`, `verify_formal` and
    `recurrence_check` on `FLAT_CASES`, on every tenth radial tree and on
    the certification sweep's trees (its seed pools, p 1-6, as the sweep
    runs them), with `check(spec, tree)` after each."""
    cases = [(spec_of(name), seed, p_max) for name, seed, p_max in FLAT_CASES]
    cases = [(spec, tree_of(spec, seed), p_max) for spec, seed, p_max in cases]
    cases += [(spec, tree, 3) for spec, tree in list(radial_cases())[::10]]
    sweep = []
    for name in ("rh2", "rh4", "ch2", "ch3", "ch4"):
        spec = spec_of(name)
        sweep += [(spec, tension_tree(spec, seed)) for seed in SWEEP.seed_pool(name, spec, 10, 1)]

    def call(spec, tree, f, *args):
        out = f(spec, *args)
        check(spec, tree)
        return out

    for spec, tree, p_max in cases:
        for p in range(1, p_max + 1):
            for family in ("phi", "psi"):
                try:
                    built = call(spec, tree, build, tree, p, family)
                except Resonance:
                    continue
                call(spec, tree, certify_family, tree, p, family)
                if tree.kind == "polynomial":
                    call(spec, tree, verify, built, p)
                    call(spec, tree, tau, built)
                else:
                    call(spec, tree, verify_formal, built, tree, p)
            call(spec, tree, recurrence_check, tree, p)
    for spec, tree in sweep:
        for p in range(1, 7):
            for family in ("phi", "psi"):
                try:
                    call(spec, tree, certify_family, tree, p, family)
                except Resonance:
                    pass
            call(spec, tree, recurrence_check, tree, p)


def kernel_results_checked(monkeypatch) -> int:
    """Every `tau_form` of `run_public_calls`, checked against
    `tau_form_by_dict`: the denominator, width, bound, every packed int and
    the key order, with the row zero after each; the number checked.
    Whichever kernel runs first makes the images its input lacks, so the
    two orders alternate."""
    count = 0
    kernel = laplacian.tau_form

    def checked(basis, form, ahead=1):
        nonlocal count
        if count % 2:
            expected = tau_form_by_dict(basis, form, ahead)
            out = kernel(basis, form, ahead)
        else:
            out = kernel(basis, form, ahead)
            expected = tau_form_by_dict(basis, form, ahead)
        assert_row_zero(basis)
        assert out[:3] == expected[:3]
        assert list(out[3].items()) == list(expected[3].items())
        count += 1
        return out

    with monkeypatch.context() as patch:
        patch.setattr(laplacian, "tau_form", checked)
        patch.setattr(pharmonic, "tau_form", checked)
        run_public_calls(lambda spec, tree: None)
    return count


def test_kernel_matches_dict_oracle(monkeypatch):
    # at the default memo bound and at 1, where every public call starts
    # from empty bases and rows
    assert kernel_results_checked(monkeypatch) > 3000
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    assert kernel_results_checked(monkeypatch) > 3000


# --- the slot factor, against its formula ---

def factor_results_checked(monkeypatch) -> int:
    """Every `_factor` of `run_public_calls`, on the tables' bases and the
    trees', checked against `factor_by_formula`, and after each public call
    every basis of the tables and the tree holding a norm exactly where it
    holds an image; the number checked."""
    count = 0
    factor = laplacian._factor

    def checked(basis, ids):
        nonlocal count
        out = factor(basis, ids)
        assert out == factor_by_formula(basis, ids)
        count += 1
        return out

    def norms_with_images(spec, tree):
        for basis in [*tables_of(spec).bases.values(), *tree.bases.values()]:
            assert [n is None for n in basis.norms] == [m is None for m in basis.images]

    with monkeypatch.context() as patch:
        patch.setattr(laplacian, "_factor", checked)
        patch.setattr(pharmonic, "_factor", checked)
        run_public_calls(norms_with_images)
    return count


def test_factor_matches_formula_oracle(monkeypatch):
    assert factor_results_checked(monkeypatch) > 3000
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    assert factor_results_checked(monkeypatch) > 3000


class Interrupt(Exception):
    pass


def test_an_interrupted_product_leaves_the_row_zero(monkeypatch):
    # the second product of a certificate is stopped where it reads the log
    # factor of the last id it lowers, with entries of the row summed; the
    # row is zero afterwards, the iterates of the same form on the same
    # basis are the oracle's, and so is the next certificate
    spec = spec_of("ch4")
    e, p = build_psi(spec, tree_of(spec, "(x_1*y_2 + z)^4"), 4), 4
    kernel, calls, summed = laplacian.tau_form, [], []

    def interrupted(basis, form, ahead=1):
        calls.append(basis)
        if len(calls) != 2:
            return kernel(basis, form, ahead)
        _, width, _, terms = form
        target = [i for i, v in terms.items() if len(slots_by_divmod(v, width)) > 1][-1]

        class Raising(list):
            def __getitem__(self, i):
                if i == target:
                    summed.append(sum(map(bool, basis.acc)))
                    raise Interrupt
                return list.__getitem__(self, i)

        logs = basis.logs = Raising(basis.logs)
        try:
            return kernel(basis, form, ahead)
        finally:
            basis.logs = list(logs)

    with monkeypatch.context() as patch:
        patch.setattr(pharmonic, "tau_form", interrupted)
        with pytest.raises(Interrupt):
            verify(spec, e, p)
    basis = calls[0]
    assert calls == [basis, basis] and summed[0] > 0
    assert_row_zero(basis)
    # `to_form` empties no memo, so the form lands on the interrupted basis
    again, form = laplacian.to_form(tables_of(spec), e, p)
    assert again is basis
    iterate = e
    for order in range(p):
        form = tau_form(basis, form, p - order)
        iterate = tau_by_partials(spec, iterate)
        assert as_expr(basis, flat_form(form)) == iterate
        assert_row_zero(basis)
    assert_matches_oracle(spec, e, p)


def reduced_slot_width(iterates) -> int:
    """The least slot width that holds every iterate in its reduced form:
    over the least common denominator D of its numerators of log(t)^k / k!,
    each slot k! c D a balanced residue."""
    width = 1
    for e in iterates:
        if not e.terms:
            continue
        slots = [c * factorial(k) for (_, _, k), c in e.terms.items()]
        d = lcm(*(c.denominator for c in slots))
        for c in slots:
            w = int(c * d)
            width = max(width, (w if w >= 0 else ~w).bit_length() + 1)
    return width


def test_a_width_one_bit_too_narrow_is_caught(monkeypatch):
    # the oracle's iterates of psi_4 of (x_1*y_2 + z)^4 on ch4 fix the least
    # width that holds all of them; forced one bit below it, some iterate
    # `verify` makes reads back wrong, and the flat comparison says so
    spec = spec_of("ch4")
    tree = tree_of(spec, "(x_1*y_2 + z)^4")
    e, p = build_psi(spec, tree, 4), 4
    iterates = [e]
    while len(iterates) <= p and iterates[-1].terms:
        iterates.append(tau_by_partials(spec, iterates[-1]))
    narrow = reduced_slot_width(iterates) - 1
    original, read = pharmonic.tau_form, []

    def recorded(basis, form, ahead=1):
        out = original(basis, form, ahead)
        if not read:
            read.append(as_expr(basis, flat_form(form)))
        read.append(as_expr(basis, flat_form(out)))
        return out

    monkeypatch.setattr(pharmonic, "tau_form", recorded)
    verify(spec, e, p)
    assert read == iterates[: len(read)]
    read.clear()
    monkeypatch.setattr(laplacian, "_width", lambda bound: narrow)
    verify(spec, e, p)
    assert read != iterates[: len(read)]


def test_polynomial_builds_make_no_image_on_states():
    # a polynomial tree's build and certificate leave its basis of states
    # before the operator runs, so no state image is made there; only a
    # recurrence check, which applies the operator on states, makes them
    for name, seed, _ in FLAT_CASES:
        spec = spec_of(name)
        tree = tree_of(spec, seed)
        for p in (1, 3):
            for kind in ("phi", "psi", "combo"):
                try:
                    build(spec, tree, p, kind, Fraction(1, 2), -3)
                    certify_family(spec, tree, p, kind, a=Fraction(1, 2), b=-3)
                except Resonance:
                    continue
                basis = tree.bases[tree.scale]
                assert basis.keys and set(basis.images) == {None}
        assert recurrence_check(spec, tree, 3)
        # the basis the check ran on: a public call may drop a tree's bases
        # (`laplacian.bound_bases`) before it makes its own
        basis = tree.bases[tree.scale]
        ids = [basis.intern(s, e) for s, e in enumerate(tree.rows["psi"].exponents)]
        assert None not in [basis.images[i] for i in ids]


# --- the slot codec, against the divmod reader of the oracles ---

@st.composite
def slot_rows(draw):
    """(slots, width): up to 300 slots of 2 to 300 bits, each a balanced
    residue, the extremes -2^(width - 1) and 2^(width - 1) - 1 drawn often."""
    width = draw(st.integers(2, 300))
    half = 1 << (width - 1)
    slot = st.one_of(st.sampled_from([-half, half - 1, -1, 0, 1]), st.integers(-half, half - 1))
    count = draw(st.integers(0, 300))
    return draw(st.lists(slot, min_size=count, max_size=count)), width


@settings(max_examples=100, deadline=None, derandomize=True)
@given(slot_rows())
# a top slot 1 over slots of -2^(width - 1) packs one bit short of the slots
# below it, at and past the leaf's twelve slots
@example(([-2] * 39 + [1], 2))
@example(([-2] * 11 + [1], 2))
@example(([-4] * 12 + [1], 3))
@example(([-(1 << 63)] * 13, 64))
@example(([-(1 << 299)] * 299 + [1], 300))
@example(([(1 << 299) - 1] * 300, 300))
def test_codec_round_trips_its_slots(row):
    slots, width = row
    assert laplacian._join([-2] * 39 + [1], 2).bit_length() == 77
    packed = laplacian._join(slots, width)
    assert packed == sum(w << width * k for k, w in enumerate(slots))
    top = len(slots)
    while top and not slots[top - 1]:
        top -= 1
    assert laplacian._slots(packed, width) == slots_by_divmod(packed, width) == slots[:top]


@pytest.mark.parametrize("p", [17, 40])
def test_members_past_the_codec_leaf_certify(p, monkeypatch):
    # ids of p slots pass `laplacian._LEAF`, so the codec packs and reads
    # them by halves; the build's packed form, read by the oracles' divmod
    # reader, is the build
    spec = spec_of("ch2")
    tree = tree_of(spec, "z^8")
    converted = []
    to_expr = pharmonic.to_expr
    monkeypatch.setattr(pharmonic, "to_expr", lambda b, f: converted.append((b, f)) or to_expr(b, f))
    e = build_psi(spec, tree, p)
    (basis, form), = converted
    assert max(len(slots_by_divmod(v, form[1])) for v in form[3].values()) == p > laplacian._LEAF
    assert as_expr(basis, flat_form(form)) == e
    assert certify_family(spec, tree, p, "psi").proper
    assert verify(spec, e, p).proper
    assert recurrence_check(spec, tree, p)


def test_log_terms_pack_in_any_order():
    # `_pack_form`, the one packing body of both conversions into a form
    # (`to_form` here, `pharmonic._symbol_form`), gathers each id's log
    # powers from terms met in any order: a power below one already placed,
    # or past the next free slot
    spec = spec_of("ch2")
    tables = tables_of(spec)
    for text in ("x*log(t)^3 + 2*x*log(t) - x", "z*t^2*log(t)^5 + z*t^2*log(t)^2 + 3*z*t^2"):
        e = parse(text, spec)
        for terms in (e.terms, dict(reversed(list(e.terms.items())))):
            basis, form = laplacian.to_form(tables, MixedExpr(terms), 2)
            assert as_expr(basis, flat_form(form)) == e
