import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import ParseError, RadialFunction, UnsupportedSpan, parse, tension_tree
from polyharm.cli import main, parse_radial_seed, resolve_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    assert "real-hyperbolic" in out and "complex-hyperbolic" in out


def test_validate_catalog(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "ch2")
    assert code == 0
    assert "homogeneous_dim=2" in out


CH2_FILE = {
    "name": "ch2-file",
    "lambdas": ["1/2", "1"],
    "dims": [2, 1],
    "brackets": [{"i": 1, "j": 1, "k": 1, "l": 2, "alpha": 2, "beta": 1, "c": "1"}],
}


def test_validate_file_ok(capsys, tmp_path):
    path = tmp_path / "ch2.json"
    path.write_text(json.dumps(CH2_FILE))
    code, out, _ = run(capsys, "validate", "--algebra", str(path))
    assert code == 0 and "ch2-file" in out


def test_validate_broken_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "name": "broken",
                "lambdas": ["1/2", "1"],
                "dims": [2, 1],
                "brackets": [
                    # claims [X^1_2, X^2_1] lands back in layer 1: grading violation
                    {"i": 1, "j": 2, "k": 2, "l": 1, "alpha": 1, "beta": 1, "c": "1"}
                ],
            }
        )
    )
    code, out, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 1
    assert "GradingViolation" in err


@pytest.mark.parametrize(
    "change, code",
    [
        # a float index is refused, not truncated to beta = 1
        ({"brackets": [dict(CH2_FILE["brackets"][0], beta=1.9)]}, 1),
        # a bool is not a dimension
        ({"lambdas": ["1"], "dims": [True], "brackets": []}, 1),
        # a decimal-integer string is an integer
        ({"brackets": [dict(CH2_FILE["brackets"][0], i="1")]}, 0),
        # brackets that are not a list
        ({"brackets": 5}, 1),
        ({"brackets": None}, 1),
    ],
)
def test_validate_file_integer_fields(capsys, tmp_path, change, code):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({**CH2_FILE, **change}))
    got, _, err = run(capsys, "validate", "--algebra", str(path))
    assert got == code
    assert ("error[ParseError]" in err) == bool(code)


def test_validate_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    code, _, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 1 and "error[ParseError]" in err


def test_validate_deeply_nested_file(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 1 and "error[ParseError]" in err


def test_tree_text_nodes(capsys):
    code, out, _ = run(capsys, "tree", "--algebra", "ch2", "--seed", "z^4")
    assert code == 0
    assert "h^2_(1,1) = 3/2*x^4 + 3*x^2*y^2 + 3/2*y^4 + 12*z^2" in out
    assert "degree = 4" in out


def test_tree_deep_seed(capsys):
    code, out, _ = run(capsys, "tree", "--algebra", "rh2", "--seed", "x^130")
    assert code == 0
    assert out.rstrip().endswith("degree = 65")


def test_tree_json_round_trip(capsys):
    code, out, _ = run(capsys, "tree", "--algebra", "ch2", "--seed", "z^4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    spec = resolve_algebra("ch2")
    tree = tension_tree(spec, parse("z^4", spec).as_polynomial())
    assert parse(payload["seed"], spec).as_polynomial() == tree.seed
    assert payload["degree"] == tree.degree
    nodes = {tuple(e["alpha"]): parse(e["node"], spec).as_polynomial() for e in payload["nodes"]}
    assert list(nodes) == list(tree.nodes) and nodes == tree.nodes


def test_build_latex_golden(capsys):
    code, out, _ = run(
        capsys,
        "build", "--algebra", "rh2", "--seed", "x1_1^6", "--kind", "phi", "--p", "2",
        "--format", "latex",
    )
    assert code == 0
    assert r"\log(t)" in out
    # canonical-form comparison: rebuild the same function and compare its
    # non-latex canonical rendering against the published closed form
    code2, out2, _ = run(
        capsys,
        "build", "--algebra", "rh2", "--seed", "x1_1^6", "--kind", "phi", "--p", "2",
        "--format", "json",
    )
    spec = resolve_algebra("rh2")
    built = parse(json.loads(out2)["expr"], spec)
    golden = parse(
        "x^6*log(t) - 15*x^4*t^2*(log(t) - 2) + 5*x^2*t^4*(3*log(t) - 8)"
        " - 1/15*t^6*(15*log(t) - 46)",
        spec,
    )
    assert built == golden


def test_build_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "build", "--algebra", "ch2", "--seed", "z^4", "--kind", "psi", "--p", "2",
        "--format", "json",
    )
    assert code == 0
    spec = resolve_algebra("ch2")
    expr = parse(json.loads(out)["expr"], spec)
    assert not expr.is_zero()
    assert json.loads(out) == json.loads(out)


def test_build_deterministic(capsys):
    args = (
        "build", "--algebra", "ch3", "--seed", "z^2*x_1", "--kind", "psi", "--p", "3",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_build_resonance_exit_code(capsys):
    code, out, err = run(
        capsys, "build", "--algebra", "ch2", "--seed", "z^4", "--kind", "phi", "--p", "2"
    )
    assert code == 1
    assert "Resonance" in err


def test_build_combo(capsys):
    code, out, _ = run(
        capsys,
        "build", "--algebra", "rh2", "--seed", "x", "--kind", "combo",
        "--a", "1", "--b", "1", "--p", "2",
    )
    assert code == 0
    spec = resolve_algebra("rh2")
    assert parse(out.strip(), spec) == parse("(1 + t)*log(t)*x", spec)


def test_combo_zero_rejected(capsys):
    code, _, err = run(
        capsys,
        "build", "--algebra", "rh2", "--seed", "x", "--kind", "combo",
        "--a", "0", "--b", "0", "--p", "2",
    )
    assert code == 1 and "ZeroCombination" in err


def test_verify_expression(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--algebra", "rh2", "--expr", "x^2 - t^2", "--p", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_order"] == 1 and payload["proper"] is True


def test_build_formal_json_round_trip(capsys):
    from polyharm import NodeSymbolExpr, build_psi, tension_tree_radial

    code, out, _ = run(
        capsys,
        "build", "--algebra", "rh3", "--radial-seed",
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}',
        "--kind", "psi", "--p", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    rebuilt = NodeSymbolExpr(
        {
            tuple(entry["alpha"]): parse(entry["coefficient"])
            for entry in payload["formal"]
        }
    )
    spec = resolve_algebra("rh3")
    seed = parse_radial_seed('{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}')
    assert rebuilt == build_psi(spec, tension_tree_radial(spec, seed), 2)


def test_verify_built_radial(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--algebra", "rh3", "--radial-seed",
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}',
        "--kind", "psi", "--p", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_order"] == 2 and payload["proper"] is True


def test_verify_radial_combination(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--algebra", "rh4", "--radial-seed",
        '{"n1":3,"terms":[{"k":2,"a":"1","b":"3"}],"G":{"c0":"2","c":["0"]}}',
        "--kind", "combo", "--a", "2", "--b=-1/3", "--p", "3",
    )
    assert code == 0
    assert "proper: true" in out


@pytest.mark.parametrize(
    "radial_seed",
    [
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"0"}}',
        '{"n1":2,"terms":[{"k":1,"a":"0","b":"0"}],"G":{"c0":"1"}}',
    ],
    ids=["G-zero", "H-zero"],
)
def test_verify_zero_radial_seed(capsys, radial_seed):
    # the zero function certifies like --seed "0": order 0, not proper
    argv = ("verify", "--algebra", "rh3", "--kind", "psi", "--p", "2",
            "--radial-seed", radial_seed)
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert "verified_order: 0\nproper: false" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_order"] == 0 and payload["proper"] is False
    assert payload["residual_pminus1_nonzero"] is False


# --- radial output pinned byte for byte ---

RH3_RHO2_LOG = '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}'
# case -> (algebra, radial seed, build/verify arguments)
RADIAL_CASES = {
    "rh3-psi": ("rh3", RH3_RHO2_LOG, ("--kind", "psi", "--p", "3")),
    "ch2-phi-linear-G": (
        "ch2",
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"-1/2"}],"G":{"c0":"1","c":["3/2"]}}',
        ("--kind", "phi", "--p", "3"),
    ),
    "rh4-combo": (
        "rh4",
        '{"n1":3,"terms":[{"k":2,"a":"1","b":"3"}],"G":{"c0":"2","c":["0"]}}',
        ("--kind", "combo", "--a", "2", "--b=-1/3", "--p", "3"),
    ),
    "rh3-phi-resonance": ("rh3", RH3_RHO2_LOG, ("--kind", "phi", "--p", "2")),
    "G-zero": (
        "rh3",
        '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"0"}}',
        ("--kind", "psi", "--p", "2"),
    ),
}
# (case, command, format, exit code, sha256 of stdout); the resonance case's
# tree is the rh3-psi tree
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
RADIAL_DIGESTS = [
    ("rh3-psi", "tree", "text", 0, 'b88106717e789e2f6a20f6f76d0b5c07290f7fa0f32f2cca11cfc8bcb0dc0c07'),
    ("rh3-psi", "tree", "latex", 0, '460c8ca6393f58e443cd7808b041ad6b06db2fbbc002a4fc12e6c1b9a2d35886'),
    ("rh3-psi", "tree", "json", 0, '1498b1c57d61896c50835a97da5a5b022a0d00afd88f8a53a9d789174288e944'),
    ("rh3-psi", "build", "text", 0, '16c65a6205ad02691c859c655c66bb1a14ee7eccc8a155acead64fb62e88d99d'),
    ("rh3-psi", "build", "latex", 0, '75c0c2d41eb05e044ef81a8d7449c712b4e4feccced1667eae568edc1ee26d19'),
    ("rh3-psi", "build", "json", 0, '14907fa22a83791ab956d00af796ea82e2a38cc55ff66aabaebd3487fd6d9a22'),
    ("rh3-psi", "verify", "text", 0, 'e0f5a3ed33618352c77d6ba34e17b1b74fffc1a60d3d43032a3666cfba683b08'),
    ("rh3-psi", "verify", "json", 0, 'c3ed8e5206042f7abf0d534edb0b8b4d835f7f9fa8eb3dd798b3d509947abb81'),
    ("ch2-phi-linear-G", "tree", "text", 0, '157323dc77053bf9a25353aeb25e791c7cc7eb87faf3ffa1538c53b090236201'),
    ("ch2-phi-linear-G", "tree", "latex", 0, '04051b9736d90037883e9df6394667a235e3f7ab92b46888db1176969a064916'),
    ("ch2-phi-linear-G", "tree", "json", 0, '6c9b01b60f2b0e8850e318b9c04759fc213444916fb0494662dfbeb3a8104dbc'),
    ("ch2-phi-linear-G", "build", "text", 0, 'c554e89ea1111f0aab2d7ee2764269eb01f71dc0b351207fce933b3110547b6a'),
    ("ch2-phi-linear-G", "build", "latex", 0, 'de58c5e7bfe9e32730ccaed87b7c11cda7cf25360c7d151f88577dc47c707ae4'),
    ("ch2-phi-linear-G", "build", "json", 0, '4c97f467d1ac7b779668b970a51b533f174012b2f82ba07c6498cdeb0a25244a'),
    ("ch2-phi-linear-G", "verify", "text", 0, 'bf0268f98f9839b779e0395d4a24e8d4a5d7e2f855246bb16766a050a0efc351'),
    ("ch2-phi-linear-G", "verify", "json", 0, '6a2c2754766f9c108ac5459565a50ab3097f5e86949de1669a39ee086f5e800b'),
    ("rh4-combo", "tree", "text", 0, '6aff72459a76f75e2ee3ab0ca728219bb5b2b9746a7dee1b9b9562917c2059b4'),
    ("rh4-combo", "tree", "latex", 0, '342235172d4455702919069a7e3cd345101a169ed3437fb88721f0d1a1feef15'),
    ("rh4-combo", "tree", "json", 0, '8127cec24441867abc31458f1fd59e973b8de283d9c7a2abc8b955f9f705834b'),
    ("rh4-combo", "build", "text", 0, 'eb6076e13b4d4b3569865b2fd0c9960e48892ec339b0e2a34fb6489b113545b6'),
    ("rh4-combo", "build", "latex", 0, 'f60eb6b385d67e88b74bea8d011bdb1372a2e297a0094330a8582517075b2028'),
    ("rh4-combo", "build", "json", 0, '6775015043fd6a3488ab8eaab32416e247011571dccf6ae63d481b5e9fd8c114'),
    ("rh4-combo", "verify", "text", 0, '2c46e0a774cd9424b6982d69633dd127b1770459a0015418c3e4668bc992f5d8'),
    ("rh4-combo", "verify", "json", 0, '96325a3ce57097f3c90e3f8a970a23b6e40bc8ce01dff4d86cbd023edea3199f'),
    ("rh3-phi-resonance", "build", "text", 1, EMPTY),
    ("rh3-phi-resonance", "build", "latex", 1, EMPTY),
    ("rh3-phi-resonance", "build", "json", 1, EMPTY),
    ("rh3-phi-resonance", "verify", "text", 1, EMPTY),
    ("rh3-phi-resonance", "verify", "json", 1, EMPTY),
    ("G-zero", "tree", "text", 0, 'a32a49221ccf0bd3fadf45a35be044e1d5f6ee320ef3ee739ecc5d2f50d6545c'),
    ("G-zero", "tree", "latex", 0, '3a8b5ab436184293f66a1321230caace4e3351fd2b26249a580b7987941bfa64'),
    ("G-zero", "tree", "json", 0, '71eb55fe26a6caa0bd05ed40a65d64af9a63db649adcfcce621d41f9f41f0f2f'),
    ("G-zero", "build", "text", 0, 'c770ad62058bf4ce339e5bea878207aa8fd402b2b374e16188f5f28282dd5451'),
    ("G-zero", "build", "latex", 0, '8e7d0e09eae282cae8354d658be3514f17afe33f2c8067256d08c91c4185098b'),
    ("G-zero", "build", "json", 0, '1bb887741689da931649ddb144612dc6219aa9a5550e5e6fb8f511de559edbc5'),
    ("G-zero", "verify", "text", 0, '45c59c20e65d97dca87d9acecb28c53828cfa7f5ef5112d75f9fa870a24ede88'),
    ("G-zero", "verify", "json", 0, '8cdf80ce454b35aa83b7279fb1c124e0fb2a7ef0ceda191a4e8ddeef4f1fc2fc'),
]


@pytest.mark.parametrize(
    "case, command, fmt, code, digest",
    RADIAL_DIGESTS,
    ids=[":".join(entry[:3]) for entry in RADIAL_DIGESTS],
)
def test_radial_output_is_pinned(capsys, case, command, fmt, code, digest):
    algebra, seed, family = RADIAL_CASES[case]
    argv = [command, "--algebra", algebra, "--radial-seed", seed, "--format", fmt]
    if command != "tree":
        argv += family
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# polynomial trees pinned byte for byte: (algebra, seed, format, sha256 of
# stdout); ch2 z^16 has 4,179 nodes and only 79 distinct polynomials
TREE_DIGESTS = [
    ("ch2", "z^16", "json", "e742e06a9f50732d1f1f8590acd8848d33be1cfc6cf8877570f07722389b206e"),
]


@pytest.mark.parametrize(
    "algebra, seed, fmt, digest",
    TREE_DIGESTS,
    ids=[":".join(entry[:3]) for entry in TREE_DIGESTS],
)
def test_tree_output_is_pinned(capsys, algebra, seed, fmt, digest):
    got, out, _ = run(capsys, "tree", "--algebra", algebra, "--seed", seed, "--format", fmt)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_verify_seed_exceeds(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--algebra", "rh2", "--expr", "x^6", "--p", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verified_order"] == "exceeds p"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--algebra", "rh2", "--seed", "x"])  # missing --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "--algebra", "rh2", "--seed", "x", "--p", "0"])
    assert exc.value.code == 2


def test_parse_radial_seed_spec_examples():
    seed = parse_radial_seed('{"n1":2, "terms":[{"k":1,"a":"1","b":"0"}], "G":{"c0":"1"}}')
    assert seed.radial == RadialFunction(2, {(2, True): Fraction(1)})
    assert seed.affine.constant == 1 and not seed.affine.linear
    seed = parse_radial_seed('{"n1":3, "terms":[{"k":0,"a":"1","b":"0"}], "G":{"c0":"1"}}')
    assert seed.radial == RadialFunction(3, {(-1, False): Fraction(1)})
    with pytest.raises(ParseError):
        parse_radial_seed('{"n1":2, "terms":[], "G":{"c0":"1"}}')
    with pytest.raises(UnsupportedSpan):
        parse_radial_seed('{"n1":2, "terms":[{"k":-1,"a":"1","b":"0"}], "G":{"c0":"1"}}')
    with pytest.raises(ParseError):  # a string is not a coefficient list
        parse_radial_seed('{"n1":2, "terms":[{"k":1,"a":"1"}], "G":{"c0":"1","c":"12"}}')
    # integer fields may also be decimal-integer strings
    seed = parse_radial_seed('{"n1":"2", "terms":[{"k":"1","a":"1","b":"0"}]}')
    assert seed.radial == RadialFunction(2, {(2, True): Fraction(1)})


def test_radial_seed_with_linear_G(capsys):
    code, out, _ = run(
        capsys,
        "tree", "--algebra", "ch2", "--radial-seed",
        '{"n1":2,"terms":[{"k":1,"a":"0","b":"1"}],"G":{"c0":"0","c":["1"]}}',
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 1
    assert payload["nodes"][0]["node"]["affine"] == {"c0": "0", "c": ["1"]}


def test_unknown_algebra(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "qh7")
    assert code == 1 and "UnknownCatalogName" in err


# Integers past the interpreter's limit on decimal digits end in ParseError
# like any other malformed input; where no limit refuses them, they are skipped.
BIG = "1" * 5_000
HAS_DIGIT_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(BIG)
DIGIT_LIMIT = pytest.mark.skipif(
    not HAS_DIGIT_LIMIT,
    reason="no limit on the digits of an integer refuses 5,000",
)
BIG_RADIAL_K = '{"n1":2,"terms":[{"k":%s,"a":"1","b":"0"}]}' % BIG
BIG_RADIAL_A = '{"n1":2,"terms":[{"k":1,"a":"%s","b":"0"}]}' % BIG


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--algebra", "ch2", "--expr", "2/0", "--p", "2"),
        ("verify", "--algebra", "ch2", "--expr", "t^(1/0)", "--p", "2"),
        ("validate", "--algebra", "missing.json"),
        (
            "tree", "--algebra", "rh3",
            "--radial-seed", '{"n1":2,"terms":[{"k":"a","a":"1","b":"0"}]}',
        ),
        (
            "tree", "--algebra", "ch2",
            "--radial-seed", '{"n1":2,"terms":[{"k":1,"a":"0","b":"1"}],"G":{"c0":"0","c":"1"}}',
        ),
        (
            "tree", "--algebra", "rh3",
            "--radial-seed", '{"n1":2,"terms":[{"k":1.5,"a":"1","b":"0"}]}',
        ),
        (
            "tree", "--algebra", "rh3",
            "--radial-seed", '{"n1":2.7,"terms":[{"k":1,"a":"1","b":"0"}]}',
        ),
        (
            "tree", "--algebra", "rh3",
            "--radial-seed", '{"n1":2,"terms":[{"k":true,"a":"1","b":"0"}]}',
        ),
        ("build", "--algebra", "rh2", "--seed", "x^99999999999", "--p", "2"),
        # no iterate of t^(1/2) vanishes, and a build makes rows of length p
        ("verify", "--algebra", "rh2", "--expr", "t^(1/2)", "--p", "10000000000"),
        ("build", "--algebra", "rh2", "--seed", "x^2", "--kind", "psi", "--p", "100000000"),
        # depth bound 200, within budget, but C(206, 6) ~ 10^11 terms
        ("tree", "--algebra", "ch4", "--seed", "(x_1+x_2+x_3+y_1+y_2+y_3+z)^200"),
        ("verify", "--algebra", "ch2", "--expr", "(" * 10_000 + "x" + ")" * 10_000, "--p", "2"),
        ("tree", "--algebra", "ch2", "--seed", "(" * 10_000 + "z" + ")" * 10_000),
        ("tree", "--algebra", "rh3", "--radial-seed", "[" * 5_000),
        *(
            pytest.param(argv, marks=DIGIT_LIMIT)
            for argv in (
                ("verify", "--algebra", "ch2", "--expr", BIG, "--p", "2"),
                ("verify", "--algebra", "ch2", "--expr", f"t^(1/{BIG})", "--p", "2"),
                ("tree", "--algebra", "ch2", "--seed", f"z^{BIG}"),
                ("tree", "--algebra", "ch2", "--seed", f"x1_{BIG}"),
                ("tree", "--algebra", "rh3", "--radial-seed", BIG_RADIAL_K),
                ("tree", "--algebra", "rh3", "--radial-seed", BIG_RADIAL_A),
                ("build", "--algebra", "ch2", "--seed", "z", "--kind", "combo", "--p", "2",
                 "--a", BIG),
                ("validate", "--algebra", "big-dims.json"),
                ("validate", "--algebra", "big-dims-text.json"),
            )
        ),
    ],
    ids=[
        "zero-denominator", "zero-exponent-denominator", "missing-file", "radial-k-not-int",
        "radial-G-c-string", "radial-k-float", "radial-n1-float", "radial-k-bool",
        "seed-past-depth-budget", "verify-p-past-budget", "build-p-past-budget",
        "power-past-term-budget", "expr-nested-10000", "seed-nested-10000",
        "radial-seed-nested-5000", "expr-big-integer", "expr-big-denominator",
        "seed-big-exponent", "seed-big-variable-index", "radial-big-k", "radial-big-a",
        "combo-big-a", "algebra-big-dims", "algebra-big-dims-text",
    ],
)
def test_bad_input_is_domain_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big-dims.json").write_text(
        json.dumps(CH2_FILE).replace('"dims": [2, 1]', f'"dims": [{BIG}, 1]')
    )
    (tmp_path / "big-dims-text.json").write_text(json.dumps({**CH2_FILE, "dims": [BIG, "1"]}))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error[" in err and "Traceback" not in err


def test_tree_view_past_budget_is_refused_but_builds(capsys, monkeypatch):
    # ch2 z^28 has 1,346,267 multi-indices in 224 states: listing them is
    # refused before any is made, while the build runs on the states
    import polyharm.tension as tension

    def no_view(tree):
        raise AssertionError("the multi-index view was listed")

    code, out, err = run(capsys, "tree", "--algebra", "ch2", "--seed", "z^28")
    assert (code, out) == (1, "") and "error[BudgetExceeded]" in err
    monkeypatch.setattr(tension.TensionTree, "nodes", property(no_view))
    code, out, err = run(capsys, "build", "--algebra", "ch2", "--seed", "z^28", "--kind", "psi", "--p", "2")
    assert code == 0 and err == "" and " + z^28*t^2*log(t)" in out


# --- argv fuzz: every input ends in exit 0, 1 or 2, never a traceback ---

FUZZ_SEEDS = ("x^4", "z^2", "x_1*y_2 + z", "x^2*z - 1/3*y", "x1_1^3", "0", "7")
FUZZ_MALFORMED = (
    "", "x^", "((z", "z^-1", "x*t", "1/0", "x_9", "t^(1/0)", "--p", "nan", "1e3",
    "\x00", "é", "x^99999999999", "{", '{"n1":2,"terms":[]}', "-", "3/-2",
) + ((BIG, f"x^{BIG}", BIG_RADIAL_K, BIG_RADIAL_A) if HAS_DIGIT_LIMIT else ())
FUZZ_RADIAL = (
    '{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}',
    '{"n1":2,"terms":[{"k":2,"a":"0","b":"1/2"}]}',
    '{"n1":3,"terms":[{"k":1,"a":"-1","b":"2"}]}',
)


@st.composite
def expr_texts(draw):
    """--expr text: sums of coefficient * variable power * t^(a/b) * log(t)^k."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        factors = [f"({coeff})"]
        if draw(st.booleans()):
            factors.append(f"{draw(st.sampled_from(('x', 'y', 'z', 'x_1')))}^{draw(st.integers(1, 3))}")
        num, den = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        if num:
            factors.append(f"t^({num}/{den})")
        logpow = draw(st.integers(0, 3))
        if logpow:
            factors.append(f"log(t)^{logpow}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(("tree", "build", "verify", "validate")))
    argv = [command, "--algebra", draw(st.sampled_from(("rh2", "ch2", "ch3", "rh3", "zz9", "none.json")))]
    if command != "validate":
        source = draw(st.sampled_from(("seed", "radial", "expr", "malformed")))
        if source == "expr" and command == "verify":
            argv += ["--expr", draw(expr_texts())]
        elif source == "radial":
            argv += ["--radial-seed", draw(st.sampled_from(FUZZ_RADIAL + FUZZ_MALFORMED))]
        elif source == "malformed":
            argv += ["--seed", draw(st.sampled_from(FUZZ_MALFORMED))]
        else:
            argv += ["--seed", draw(st.sampled_from(FUZZ_SEEDS))]
    if command in ("build", "verify"):
        argv += ["--p", str(draw(st.integers(-2, 5) | st.just(10000000000)))]
        argv += ["--kind", draw(st.sampled_from(("phi", "psi", "combo", "chi")))]
        if draw(st.booleans()):
            argv += ["--a", draw(st.sampled_from(("2/3", "-1", "0", "x", "1/0"))), "--b", "0"]
    if command != "validate" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "json", "latex", "xml")))]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FUZZ_MALFORMED)))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=cli_argvs())
def test_cli_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
