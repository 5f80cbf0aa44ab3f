"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and the two non-gating probe reports.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from polyharm import (
    GradingViolation,
    JacobiViolation,
    MixedExpr,
    NonIncreasingEigenvalues,
    Polynomial,
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
    validate,
    verify,
    verify_formal,
)
from polyharm.algebra import VarIndex
from polyharm.cli import parse_radial_seed
from polyharm.laplacian import tables_of

from conftest import SWEEP, random_mixed_expr, random_polynomial
from oracles import (
    brute_ad_power,
    ch2_display_tau,
    ch2_display_tau_as_printed,
    composition_identity_holds,
    kappa,
    log_t,
    radial_polynomial,
    t_power,
    tau_fast_x1,
    tau_fast_x1x2,
    tau_frame,
)

ALGEBRAS = ("rh2", "rh4", "ch2", "ch3")
POOL_RNG_SEED = 20250810

GOLDEN_PHI2_RH2 = (
    "x^6*log(t) - 15*x^4*t^2*(log(t) - 2) + 5*x^2*t^4*(3*log(t) - 8)"
    " - 1/15*t^6*(15*log(t) - 46)"
)

# previously published closed-form candidate for a proper biharmonic function
# on the complex hyperbolic plane; probed, never assumed correct (criterion 10)
REFERENCE_CANDIDATE_CH2 = (
    "z^4*t^2*log(t)"
    " - 1/3*(x^2 + y^2)*z^2*t^3*(3*log(t) - 20)"
    " - 1/4*z^2*t^4*(2*log(t) - 1)"
    " + 1/96*((x^2 + y^2)^2 + 8*z^2)*t^4*(6*log(t) - 70)"
    " + 1/300*(x^2 + y^2)*t^5*(30*log(t) - 17)"
    " + 1/75*t^6*(5*log(t) - 2)"
)


def report(num: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {num}: {status} - {description}{suffix}")


def spec_of(name):
    return catalog_short_name(name)


def seed_pool(name):
    """The sweep script's pool: its named seeds, then 10 random ones."""
    spec = spec_of(name)
    return spec, SWEEP.seed_pool(name, spec, 10, POOL_RNG_SEED)


@pytest.fixture(scope="module")
def sweep():
    """Criteria 4 and 5 share one timed pass over the pool; each certificate
    is checked against the public route, `verify` on the built function."""
    cert_failures: list[str] = []
    route_mismatches: list[str] = []
    rec_failures: list[str] = []
    cases = 0
    resonance_skips = 0
    start = time.perf_counter()
    for name in ALGEBRAS:
        spec, seeds = seed_pool(name)
        for seed in seeds:
            tree = tension_tree(spec, seed)
            for p in range(1, 6):
                for family in ("phi", "psi"):
                    try:
                        cert = certify_family(spec, tree, p, family)
                    except Resonance:
                        if family == "phi":
                            resonance_skips += 1
                            continue
                        raise
                    cases += 1
                    if cert != verify(spec, build(spec, tree, p, family), p, family):
                        route_mismatches.append(f"{name} seed={seed.render()} p={p} {family}")
                    if not (cert.verified_order == p and cert.proper):
                        cert_failures.append(
                            f"{name} seed={seed.render()} p={p} {family}: "
                            f"order={cert.verified_order}"
                        )
                if not recurrence_check(spec, tree, p):
                    rec_failures.append(f"{name} seed={seed.render()} p={p}")
    elapsed = time.perf_counter() - start
    return {
        "cert_failures": cert_failures,
        "route_mismatches": route_mismatches,
        "rec_failures": rec_failures,
        "cases": cases,
        "resonance_skips": resonance_skips,
        "elapsed": elapsed,
    }


def test_criterion_1_golden_phi():
    spec = spec_of("rh2")
    start = time.perf_counter()
    tree = tension_tree(spec, parse_polynomial("x^6", spec))
    phi2 = build_phi(spec, tree, 2)
    elapsed = time.perf_counter() - start
    golden = parse(GOLDEN_PHI2_RH2, spec)
    ok = phi2 == golden and elapsed < 1.0
    report(1, "phi_2 for x^6 on rh2 equals the published closed form", ok,
           f"{elapsed * 1000:.0f} ms")
    assert phi2 == golden
    assert elapsed < 1.0


def test_criterion_2_golden_trees():
    spec = spec_of("rh2")
    start = time.perf_counter()
    tree = tension_tree(spec, parse_polynomial("x^6", spec))
    elapsed_rh2 = time.perf_counter() - start
    expected_rh2 = {
        (1,): "30*x^4",
        (1, 1): "360*x^2",
        (1, 1, 1): "720",
    }
    ok_rh2 = tree.degree == 3 and tree.nodes == {
        alpha: parse_polynomial(text, spec) for alpha, text in expected_rh2.items()
    }

    ch2 = spec_of("ch2")
    start = time.perf_counter()
    ztree = tension_tree(ch2, parse_polynomial("z^4", ch2))
    elapsed_ch2 = time.perf_counter() - start
    expected_ch2 = {
        (1,): "3*(x^2+y^2)*z^2",
        (2,): "12*z^2",
        (1, 1): "3/2*((x^2+y^2)^2 + 8*z^2)",
        (1, 2): "6*(x^2+y^2)",
        (2, 1): "6*(x^2+y^2)",
        (2, 2): "24",
        (1, 1, 1): "30*(x^2+y^2)",
        (1, 1, 2): "24",
        (1, 2, 1): "24",
        (2, 1, 1): "24",
        (1, 1, 1, 1): "120",
    }
    ok_ch2 = ztree.degree == 4 and ztree.nodes == {
        alpha: parse_polynomial(text, ch2) for alpha, text in expected_ch2.items()
    }
    ok = ok_rh2 and ok_ch2 and elapsed_rh2 < 1.0 and elapsed_ch2 < 1.0
    report(2, "tension trees of x^6 (rh2) and z^4 (ch2) match node-for-node", ok,
           f"{(elapsed_rh2 + elapsed_ch2) * 1000:.0f} ms")
    assert ok_rh2 and ok_ch2
    assert elapsed_rh2 < 1.0 and elapsed_ch2 < 1.0


def _display_basis(ch2):
    x, y, z = VarIndex(1, 1), VarIndex(1, 2), VarIndex(2, 1)
    t_factors = (
        MixedExpr.one(),
        t_power(1),
        t_power(2),
        log_t(),
    )
    for dx in range(4):
        for dy in range(4 - dx):
            for dz in range(4 - dx - dy):
                mono = (
                    Polynomial.variable(x, dx) if dx else Polynomial.one()
                ) * (
                    Polynomial.variable(y, dy) if dy else Polynomial.one()
                ) * (
                    Polynomial.variable(z, dz) if dz else Polynomial.one()
                )
                for tf in t_factors:
                    yield MixedExpr.from_polynomial(mono) * tf


def test_criterion_3_golden_operator():
    ch2 = spec_of("ch2")
    start = time.perf_counter()
    mismatches = []
    printed_mismatches = 0
    count = 0
    for e in _display_basis(ch2):
        count += 1
        image = tau(ch2, e)
        if image != ch2_display_tau(e):
            mismatches.append(e.render(lambda v: ch2.var_name(v)))
        if image != ch2_display_tau_as_printed(e):
            printed_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    report(
        3,
        "operator on ch2 matches the five-term closed-form display "
        "(eigenvalue-consistent t-powers) on the full basis",
        ok,
        f"{count} basis elements, {elapsed * 1000:.0f} ms",
    )
    # non-gating probe: the display as PRINTED (x-sector t-powers doubled)
    # disagrees with the operator; report the observed count without gating.
    print(
        f"probe (non-gating): as-printed display disagrees with the operator on "
        f"{printed_mismatches}/{count} basis elements (x-sector t-powers doubled "
        f"in print; the eigenvalue-consistent form is used for the golden test)"
    )
    assert not mismatches
    assert elapsed < 5.0


def test_criterion_4_certification_sweep(sweep):
    ok = not sweep["cert_failures"] and not sweep["route_mismatches"] and sweep["elapsed"] < 120.0
    report(
        4,
        "both families certify proper with verified_order = p across the pool",
        ok,
        f"{sweep['cases']} cases, {sweep['resonance_skips']} phi resonance skips, "
        f"{sweep['elapsed']:.2f} s",
    )
    assert not sweep["cert_failures"], sweep["cert_failures"][:5]
    assert not sweep["route_mismatches"], sweep["route_mismatches"][:5]
    assert sweep["elapsed"] < 120.0


def test_criterion_5_recurrence_identities(sweep):
    ok = not sweep["rec_failures"]
    report(5, "two-step iteration identities hold exactly for p <= 5 on the pool", ok)
    assert not sweep["rec_failures"], sweep["rec_failures"][:5]


def test_criterion_6_composition_identity():
    rng = random.Random(POOL_RNG_SEED)
    failures = 0
    for _ in range(200):
        i = rng.randint(1, 4)
        j = rng.randint(0, 5)
        a = []
        while len(a) < i:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if q:
                a.append(q)
        if not composition_identity_holds(a, j):
            failures += 1
    ok = failures == 0
    report(6, "composition identity holds on 200 random instances", ok)
    assert failures == 0


def test_criterion_7_oracle_equivalences():
    discrepancies = []
    for name in ALGEBRAS:
        spec = spec_of(name)
        rows = tables_of(spec).ad_rows
        for v in spec.variables():
            for r in range(1, spec.m + 1):
                row = rows[r - 1][v] if r < spec.m else {}
                if row != brute_ad_power(spec, v.layer, v.slot, r):
                    discrepancies.append(f"ad_power {name} {v} r={r}")
        rng = random.Random(POOL_RNG_SEED)
        for _ in range(100):
            e = random_mixed_expr(spec, rng)
            if tau(spec, e) != tau_frame(spec, e):
                discrepancies.append(f"tau-vs-frame {name}: {e.render()}")
        for _ in range(25):
            h1 = random_polynomial(spec, rng, layers={1})
            if tau_fast_x1(spec, h1) != tau(spec, MixedExpr.from_polynomial(h1)):
                discrepancies.append(f"fast-x1 {name}: {h1.render()}")
            h12 = random_polynomial(
                spec, rng, layers={1, 2} & set(range(1, spec.m + 1))
            )
            if tau_fast_x1x2(spec, h12) != tau(spec, MixedExpr.from_polynomial(h12)):
                discrepancies.append(f"fast-x1x2 {name}: {h12.render()}")
    ok = not discrepancies
    report(
        7,
        "ad-power vs bracket iteration, coordinate vs frame operator, fast paths",
        ok,
        "100 random inputs per algebra",
    )
    assert not discrepancies, discrepancies[:5]


def test_criterion_8_product_rule():
    failures = []
    for name in ALGEBRAS:
        spec = spec_of(name)
        rng = random.Random(POOL_RNG_SEED + 8)
        for _ in range(100):
            f = random_mixed_expr(spec, rng, max_degree=2)
            h = random_mixed_expr(spec, rng, max_degree=2)
            lhs = tau(spec, f * h)
            rhs = tau(spec, f) * h + kappa(spec, f, h) * 2 + f * tau(spec, h)
            if lhs != rhs:
                failures.append(name)
    ok = not failures
    report(8, "product rule tau(fh) = tau(f)h + 2 kappa(f,h) + f tau(h)", ok,
           "100 random pairs per algebra")
    assert not failures


def test_criterion_9_radial_path():
    rh3 = spec_of("rh3")
    seed = parse_radial_seed(
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}'
    )
    tree = tension_tree_radial(rh3, seed)
    # the log-family is blocked here: 2*Lambda^1 = 2 = n (side condition)
    phi_blocked = False
    try:
        build_phi(rh3, tree, 2)
    except Resonance:
        phi_blocked = True
    psi2 = build_psi(rh3, tree, 2)
    cert = verify_formal(rh3, psi2, tree, 2, kind="psi", seed="rho^2*log(rho)")
    ok_rh3 = phi_blocked and cert.verified_order == 2 and cert.proper

    # on ch2 the same radial seed admits the log family (no resonance)
    ch2 = spec_of("ch2")
    tree_ch2 = tension_tree_radial(ch2, parse_radial_seed(
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}'
    ))
    phi2 = build_phi(ch2, tree_ch2, 2)
    cert_phi = verify_formal(ch2, phi2, tree_ch2, 2, kind="phi")
    ok_phi = cert_phi.verified_order == 2 and cert_phi.proper

    # radial/polynomial agreement for H = rho^2 on ch2
    rtree = tension_tree_radial(ch2, parse_radial_seed(
        '{"n1":2,"terms":[{"k":1,"a":"0","b":"1"}],"G":{"c0":"1"}}'
    ))
    ptree = tension_tree(ch2, parse_polynomial("x^2 + y^2", ch2))
    agree = set(rtree.nodes) == set(ptree.nodes) and all(
        radial_polynomial(ch2, node.radial) * node.affine.constant == ptree.nodes[alpha]
        for alpha, node in rtree.nodes.items()
    )
    ok = ok_rh3 and ok_phi and agree
    report(
        9,
        "radial seeds: formal certification (psi_2 on rh3, phi_2 on ch2) and "
        "radial/polynomial agreement",
        ok,
        "phi on rh3 blocked by the 2*Lambda = n side condition, as required",
    )
    assert ok_rh3 and ok_phi and agree


def test_criterion_10_reference_candidate_probe():
    ch2 = spec_of("ch2")
    candidate = parse(REFERENCE_CANDIDATE_CH2, ch2)
    cert = verify(ch2, candidate, 2, kind="reference-candidate", seed="z^4 (printed)")
    payload = cert.to_json_dict()
    print("probe (non-gating) reference biharmonic candidate on ch2:")
    print("  " + json.dumps(payload, sort_keys=True))
    if cert.verified_order == 2:
        print("  outcome: candidate confirmed proper biharmonic")
    else:
        residual = cert.residual_p
        print(
            "  outcome: tau^2 residual is NONZERO "
            f"({len(residual.terms)} canonical terms); "
            "the construction built here is certified independently (criterion 4)"
        )
    # the acceptance condition is the existence of the report, not its direction
    ok = payload["verified_order"] in (2, "exceeds p", 1)
    report(10, "reference-candidate probe ran and emitted a certificate", ok,
           f"verified_order={payload['verified_order']}")
    assert ok


def test_criterion_11_validator_negatives():
    base = {
        "name": "bad",
        "lambdas": ["1/2", "1"],
        "dims": [2, 1],
        "brackets": [{"i": 1, "j": 1, "k": 1, "l": 2, "alpha": 2, "beta": 1, "c": "1"}],
    }
    results = []
    grading = dict(base)
    grading["brackets"] = base["brackets"] + [
        {"i": 1, "j": 2, "k": 2, "l": 1, "alpha": 1, "beta": 1, "c": "1"}
    ]
    try:
        from_json_dict(grading)
        results.append("grading not rejected")
    except GradingViolation:
        pass
    try:
        validate(
            "bad-jacobi",
            [Fraction(1), Fraction(2), Fraction(3)],
            [3, 1, 1],
            [
                ((1, 1, 1, 2, 2, 1), Fraction(1)),
                ((1, 2, 1, 3, 2, 1), Fraction(1)),
                ((1, 1, 2, 1, 3, 1), Fraction(1)),
            ],
        )
        results.append("jacobi not rejected")
    except JacobiViolation:
        pass
    try:
        validate("bad-order", [Fraction(1), Fraction(1, 2)], [1, 1])
        results.append("ordering not rejected")
    except NonIncreasingEigenvalues:
        pass
    ok = not results
    report(11, "grading, Jacobi and ordering violations are each rejected", ok)
    assert not results, results
