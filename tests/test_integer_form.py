"""The integer form from build to certificate, cross-checked against the
MixedExpr oracles: `recurrence_check` against `recurrence_by_exprs`, `verify`
against a loop of `tau_by_partials`, and every result under the smallest
memo bound."""

import random
from fractions import Fraction

import pytest

from polyharm import (
    MixedExpr,
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
    verify,
)
from polyharm import laplacian
from polyharm.laplacian import tables_of

from conftest import random_mixed_expr
from oracles import certificate_by_partials, recurrence_by_exprs
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
