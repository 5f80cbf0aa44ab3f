"""The integer form from build to certificate, cross-checked against the
MixedExpr oracles: `recurrence_check` against `recurrence_by_exprs`, `verify`
against a loop of `tau_by_partials`, and every result under the smallest
memo bound.  Radial trees run on the same kernel under their images; there
the oracles are the formal operator `formal_tau` on node-symbol sums and its
certificate loop."""

import random
from fractions import Fraction

import pytest

from polyharm import (
    AffinePart,
    MixedExpr,
    NodeSymbolExpr,
    RadialFunction,
    RadialSeed,
    Resonance,
    build_phi,
    build_psi,
    catalog_short_name,
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
from polyharm import laplacian
from polyharm.laplacian import tables_of, tau_form
from polyharm.pharmonic import _member, _symbols

from conftest import random_mixed_expr
from oracles import (
    build_by_branches,
    certificate_by_partials,
    formal_certificate,
    formal_tau,
    recurrence_by_exprs,
    t_power,
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
]


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


def test_certificate_matches_oracle_on_random_expressions(ch2, ch3):
    rng = random.Random(8)
    for spec in (ch2, ch3, spec_of("odd")):
        for _ in range(6):
            e = random_mixed_expr(spec, rng)
            assert_matches_oracle(spec, e, rng.randint(1, 4))
        assert_matches_oracle(spec, MixedExpr(), 2)


def outcomes(spec, tree, exprs, p_max):
    """Every public result the integer form feeds, for one tree and a few
    expressions."""
    out = []
    for p in range(1, p_max + 1):
        for builder in (build_phi, build_psi):
            try:
                built = builder(spec, tree, p)
            except Resonance:
                out.append(None)
                continue
            out.append(built)
            out.append(certificate_fields(verify(spec, built, p)))
        out.append(recurrence_check(spec, tree, p))
    for e in exprs:
        out.append(tau(spec, e))
        out.append(certificate_fields(verify(spec, e, 4)))
    return out


def test_memo_bound_keeps_every_result(monkeypatch):
    cases = []
    for name, seed in (("ch2", "z^8"), ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^3"), ("odd", "x2_1^3")):
        spec = spec_of(name)
        exprs = [parse(text, spec) for n, text, _ in EXPRESSIONS if n == name]
        cases.append((spec, tree_of(spec, seed), exprs))
    expected = [outcomes(spec, tree, exprs, 5) for spec, tree, exprs in cases]
    monkeypatch.setattr(laplacian, "_MEMO_LIMIT", 1)
    for (spec, tree, exprs), before in zip(cases, expected):
        assert outcomes(spec, tree, exprs, 5) == before
        # ids are cleared only at the entry of a call, so the ids one call
        # interns all stay until it returns
        tables = tables_of(spec)
        verify(spec, build_psi(spec, tree, 5), 5)
        assert len(tables.monomials) > 1 and len(tables.exponents) > 1
        assert set(tables.images) <= set(range(len(tables.monomials)))
        assert set(tables.t_parts) <= set(range(len(tables.exponents)))


def test_exponent_parts_are_made_once(ch2):
    spec = ch2
    tree = tree_of(spec, "z^4")
    verify(spec, build_psi(spec, tree, 4), 4)
    tables = tables_of(spec)
    n = spec.homogeneous_dim
    for e, (t, t2, t1, shifted) in tables.t_parts.items():
        mu = tables.exponents[e]
        assert Fraction(t2, t) == mu * (mu - n) and Fraction(t1, t) == 2 * mu - n
        assert [tables.exponents[s] for s in shifted] == [mu + s for s in tables.shifts]


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
        images = tree.images
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
                tables = tables_of(spec)
                form = _member(spec, tables, tree, p, family)
                for e in expected:
                    assert _symbols(tables, tree, form) == e
                    form = tau_form(tables, form, images)
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
