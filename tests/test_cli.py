import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import ParseError, RadialFunction, UnsupportedSpan, parse, tension_tree
from polyharm import laplacian
from polyharm.cli import main, parse_radial_seed, resolve_algebra

ROOT = Path(__file__).resolve().parent.parent


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


def test_validate_refuses_an_algebra_past_the_dimension_budget(capsys, tmp_path, monkeypatch):
    # refused before the cubic Jacobi scan, which fails the test if reached
    import polyharm.algebra as algebra

    def reached(spec):
        raise AssertionError(f"the Jacobi scan ran on dimension {sum(spec.dims)}")

    monkeypatch.setattr(algebra, "_check_jacobi", reached)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**CH2_FILE, "dims": ["1000000000000", 1]}))
    for label in ("ch1000", "rh300", str(path)):
        code, out, err = run(capsys, "validate", "--algebra", label)
        assert (code, out) == (1, "") and err.startswith("error[BudgetExceeded]")


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
    # n1 = 4: the shifted power rho^(2k + 2 - n1) is negative, rho^(-2)
    "ch3-n1-4": (
        "ch3",
        '{"n1":4,"terms":[{"k":0,"a":"1","b":"0"},{"k":2,"a":"1","b":"1"}],"G":{"c0":"1","c":["2"]}}',
        ("--kind", "phi", "--p", "3"),
    ),
    # G with no constant term: a node's H is read off G's first monomial, z
    "ch2-G-no-constant": (
        "ch2",
        '{"n1":2,"terms":[{"k":2,"a":"1","b":"1"}],"G":{"c0":"0","c":["-3/2"]}}',
        ("--kind", "psi", "--p", "4"),
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
    ("ch3-n1-4", "tree", "text", 0, 'a829168ed6f9379d56afea54a43a3d6c5df058d42e6aa2099daf8b75ee55f62d'),
    ("ch3-n1-4", "tree", "latex", 0, 'd6bb6382628aa6c8a6cadd59bc9e3b721c68befbc8dcb119f6827780e93c558e'),
    ("ch3-n1-4", "tree", "json", 0, '75e21e2c9f3c750efbdbe088d4112a09cd3504f1693614042fca29535fe0495b'),
    ("ch3-n1-4", "build", "text", 0, '76412c476c3c77479ffcaf60cc09c8c7c16f3685028284c531a268c17dc608ef'),
    ("ch3-n1-4", "build", "latex", 0, '57dfbc292713be2e30c9b7f2b6bc2db10689a36aa70a57b99d2f73c4c540d69a'),
    ("ch3-n1-4", "build", "json", 0, 'f5f34a10d8ac9ff811db5a960fb1353be084828eb1afb1745be9fc3991e53352'),
    ("ch3-n1-4", "verify", "text", 0, 'e5286537e3fbeb08ccf2c716d54f0ed55cddfb36682ea3825484a7a349c1b6e0'),
    ("ch3-n1-4", "verify", "json", 0, '4d8775bca0d4fafd31ddf5682b101a6af8a8a8eb6e8826e14e59b47ffec59a6b'),
    ("ch2-G-no-constant", "tree", "text", 0, '67a11a1f21ffdd194eabc1456967b17f50e0f49a210aaa6ceb8ab50cf774b5b0'),
    ("ch2-G-no-constant", "tree", "latex", 0, '798166e8f00f8231e0acce708a44cba5f7b26b03e843c5b6fd424870e3641c4b'),
    ("ch2-G-no-constant", "tree", "json", 0, '2e39cfab3d60d19bf9a1ac9e8b8fb69a16c941d4c4fa502aec3c03cab423b745'),
    ("ch2-G-no-constant", "build", "text", 0, '9acbb8b5d4335dc411fdd0d0f42ed6b6d8ece414a23d1c259da372715c992798'),
    ("ch2-G-no-constant", "build", "latex", 0, '9044c9c0e342f64321ac08167cd1bd771a6f6097e2ff654a5dcdcd938304d536'),
    ("ch2-G-no-constant", "build", "json", 0, 'f6493b273de9d613f681d4d8b3e4934057872627da1324923d25e7f91271247d'),
    ("ch2-G-no-constant", "verify", "text", 0, 'bc83f0846056ebc5a475741635ce2b983e4bf4fa65512733e5b4e726237d0328'),
    ("ch2-G-no-constant", "verify", "json", 0, '11d3155e1638ae7228ffe4b286dbe8b76432c0704e184bae517fb25b644e960a'),
]


def memo_limits(rows, ids):
    """Each pinned row at the default memo bound under its own id, then at
    the smallest bound, where every public call clears the tables' ids."""
    return [
        pytest.param(*row, limit, id=name + suffix)
        for limit, suffix in ((None, ""), (1, ":memo-1"))
        for row, name in zip(rows, ids)
    ]


def radial_argv(case, command, fmt):
    algebra, seed, family = RADIAL_CASES[case]
    argv = [command, "--algebra", algebra, "--radial-seed", seed, "--format", fmt]
    return argv + list(family) if command != "tree" else argv


@pytest.mark.parametrize(
    "case, command, fmt, code, digest, memo_limit",
    memo_limits(RADIAL_DIGESTS, [":".join(entry[:3]) for entry in RADIAL_DIGESTS]),
)
def test_radial_output_is_pinned(capsys, monkeypatch, case, command, fmt, code, digest, memo_limit):
    if memo_limit:
        monkeypatch.setattr(laplacian, "_MEMO_LIMIT", memo_limit)
    got, out, _ = run(capsys, *radial_argv(case, command, fmt))
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# polynomial output pinned byte for byte.  `tree` rows: (algebra, seed,
# format, sha256 of stdout); ch2 z^16 has 4,179 nodes and only 79 distinct
# polynomials.  `build` and `verify` rows: (family, format, sha256 of stdout)
# of BUILD_SEED on ch2, each family at p = 3 with BUILD_FAMILIES' arguments.
TREE_DIGESTS = [
    ("ch2", "z^16", "json", "e742e06a9f50732d1f1f8590acd8848d33be1cfc6cf8877570f07722389b206e"),
    ("ch2", "z^8", "text", "b9aa0e589d667516673cb402d8eb5856b20ece2810def3412ca5d1282bb16768"),
    ("ch2", "z^8", "latex", "ba8a5240bc84e03b3714a08a1578aa3d5f37f7084637cc1ddd2eee29fd571a4c"),
    ("ch4", "(x_1*y_2+z)^4", "text", "0b0c2ad82df532abe67c0b51c426a4049eca295d9aab18e866abbfbecf92814c"),
    ("ch4", "(x_1*y_2+z)^4", "latex", "70b02a91b4d32641b54a589cc15892cc7f40111cc9f6bcb9cd01becd381f866c"),
]
BUILD_SEED = "x^2*z - 1/3*y"
BUILD_FAMILIES = {
    "phi": ("--kind", "phi"),
    "psi": ("--kind", "psi"),
    "combo": ("--kind", "combo", "--a", "2/3", "--b=-5/7"),
}
BUILD_DIGESTS = [
    ("phi", "text", "9c9e7e501fdfd3b99abf56b8ef47e09cc44940e19cecc3e152c5130c869008e6"),
    ("phi", "latex", "763ae5d5eddc23f09747d8bdb9823296ed9d96d60a0e9f919d2e462adc71ad9a"),
    ("phi", "json", "87f2131fe097c666477e7d26d4f982831f64ed8e460e4870f852da2ececc8cdf"),
    ("psi", "text", "bd00d5be023d818929574e1009fd350634acceda9738b753ce6317a066d056c0"),
    ("psi", "latex", "03fca1d62ccc3ae97554f068c15097de9db2645efd7470f5eae4a416a9f28168"),
    ("psi", "json", "7178a4f4ffcc19a96269f42e30c0b26671f701d1eeb263a56ee20ba234f52c65"),
    ("combo", "text", "947ff507cd3042da0a9f2fb655bfc7321307f3b48bb39756306401b6f71af08f"),
    ("combo", "latex", "07027fc6c6061964769ea9e2441b5e8518d88cca032061c21b8498f4a0ad706b"),
    ("combo", "json", "6e0da610db9291e6f39712e5a7b48e5761fe99d7db9c73f42b98e1e02453e0f2"),
]
VERIFY_DIGESTS = [
    ("phi", "text", "d690fa4aa6d917e7d18ecdb7f858bf66b96a1b8c9c6969b6ebb62306c7d5b7c0"),
    ("phi", "json", "71632e5e304fe4104d29d097d7aabadbb750793b3eaf945221cf94c27894701c"),
    ("psi", "text", "50a9de22c8c471db17a9a2244b5970e9660cfd42095981bb5ec682b146348c60"),
    ("psi", "json", "c082d4c5ee277e5d463ac29f9fb0f7e72429c170dec7af3437bc412d1cc50f32"),
    ("combo", "text", "e21b8eae52190b47c66eac9ecb65e37165836f98287d6286e8d33acc5717060f"),
    ("combo", "json", "a78ec49218ac1c61f9e527afba106500ff19ad52bbdeb1007af84ad016a09437"),
]
# The order of a combination's errors on ch2 at p = 2: --a, then --b are
# read (ParseError), then phi and psi are built (Resonance at z^4), then the
# zero combination is refused; --a is read only for a combination.  Rows:
# (id, seed, family arguments, exit code, sha256 of stdout, error class).
COMBO_ERRORS = [
    ("resonance-first", "z^4", ("--kind", "combo", "--a", "0", "--b", "0"), 1, EMPTY, "Resonance"),
    ("zero-combination", "x^2", ("--kind", "combo", "--a", "0", "--b", "0"), 1, EMPTY,
     "ZeroCombination"),
    ("parse-first", "z^4", ("--kind", "combo", "--a", "junk"), 1, EMPTY, "ParseError"),
    ("a-unread-for-phi", BUILD_SEED, ("--kind", "phi", "--a", "junk"), 0,
     "a14f59bc79e7f06f21598fa60c7a971cda9ee6f4cfd28b6d3b84f2db93fe2a4d", ""),
]
# `verify --expr` rows: (format, sha256 of stdout) of EXPR on ch2 at p = 3,
# whose t-exponents have the unit 42, not ch2's eigenvalue scale 2
EXPR = "t^(1/3)*x + z^2*t^(2/7)*log(t)^2"
EXPR_DIGESTS = [
    ("text", "d1c320ec66d46eed76bda4a20a4655413a9bf0e7b58fa165550d90a4602b6977"),
    ("json", "da1c4f793024ffa372ea0120a058d01783a780cf01961d49be4a1f6ffc09f5ec"),
]
# (command, algebra, seed, format, exit code, sha256 of stdout, error class)
POLYNOMIAL_PINS = (
    [(("tree",), algebra, seed, fmt, 0, digest, "") for algebra, seed, fmt, digest in TREE_DIGESTS]
    + [
        ((command, *BUILD_FAMILIES[family], "--p", "3"), "ch2", BUILD_SEED, fmt, 0, digest, "")
        for command, rows in (("build", BUILD_DIGESTS), ("verify", VERIFY_DIGESTS))
        for family, fmt, digest in rows
    ]
    + [
        (("verify", *family, "--p", "2"), "ch2", seed, "text", code, digest, error)
        for _, seed, family, code, digest, error in COMBO_ERRORS
    ]
)
POLYNOMIAL_IDS = (
    [":".join(entry[:3]) for entry in TREE_DIGESTS]
    + [f"{command}:{family}:{fmt}" for command, rows in (("build", BUILD_DIGESTS),
       ("verify", VERIFY_DIGESTS)) for family, fmt, _ in rows]
    + [f"verify:{entry[0]}" for entry in COMBO_ERRORS]
)


def polynomial_argv(command, algebra, seed, fmt):
    return [command[0], "--algebra", algebra, "--seed", seed, "--format", fmt, *command[1:]]


@pytest.mark.parametrize(
    "command, algebra, seed, fmt, code, digest, error, memo_limit",
    memo_limits(POLYNOMIAL_PINS, POLYNOMIAL_IDS),
)
def test_tree_output_is_pinned(
    capsys, monkeypatch, command, algebra, seed, fmt, code, digest, error, memo_limit
):
    if memo_limit:
        monkeypatch.setattr(laplacian, "_MEMO_LIMIT", memo_limit)
    got, out, err = run(capsys, *polynomial_argv(command, algebra, seed, fmt))
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert err.startswith(f"error[{error}]") if error else err == ""


def expr_argv(fmt):
    return ["verify", "--algebra", "ch2", "--expr", EXPR, "--p", "3", "--format", fmt]


@pytest.mark.parametrize(
    "fmt, digest, memo_limit", memo_limits(EXPR_DIGESTS, [f"expr:{fmt}" for fmt, _ in EXPR_DIGESTS])
)
def test_expr_output_is_pinned(capsys, monkeypatch, fmt, digest, memo_limit):
    if memo_limit:
        monkeypatch.setattr(laplacian, "_MEMO_LIMIT", memo_limit)
    got, out, err = run(capsys, *expr_argv(fmt))
    assert (got, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


# Every pinned row again in a fresh interpreter under two hash seeds: no
# output may depend on the order of a set or dict of hashed keys.
PIN_RUNNER = """
import contextlib, hashlib, io, json, sys
from polyharm.cli import main
out = []
for argv in json.load(sys.stdin):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out.append([code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_pinned_output_does_not_depend_on_the_hash_seed(hash_seed):
    pins = (
        [(radial_argv(*row[:3]), *row[3:]) for row in RADIAL_DIGESTS]
        + [(polynomial_argv(*row[:4]), *row[4:6]) for row in POLYNOMIAL_PINS]
        + [(expr_argv(fmt), 0, digest) for fmt, digest in EXPR_DIGESTS]
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PIN_RUNNER], input=json.dumps([argv for argv, *_ in pins]),
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[code, digest] for _, code, digest in pins]


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



# 2^15000 has 4,516 digits, past the interpreter's default limit of 4,300
# on the digits of a printed integer
@DIGIT_LIMIT
@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "--format", "text"),
        ("tree", "--format", "latex"),
        ("tree", "--format", "json"),
        ("build", "--kind", "psi", "--p", "2"),
    ],
    ids=["tree-text", "tree-latex", "tree-json", "build-psi"],
)
def test_coefficient_too_long_to_print_is_budget_exceeded(capsys, argv):
    code, out, err = run(capsys, argv[0], "--algebra", "ch2", "--seed", "2^15000*z^2", *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error[BudgetExceeded]") and "Traceback" not in err


def test_log_power_past_the_budget_is_budget_exceeded(capsys, monkeypatch):
    # log(t)^1000000 is refused at the budget as it is read, before a form
    # is packed; the boundary is checked at a small budget, so that no large
    # form is built here
    argv = ("verify", "--algebra", "ch2", "--p", "2", "--expr")
    code, out, err = run(capsys, *argv, "log(t)^1000000")
    assert (code, out) == (1, "")
    assert err.startswith("error[BudgetExceeded]") and "Traceback" not in err
    monkeypatch.setattr(laplacian, "_LOG_BUDGET", 3)
    code, out, err = run(capsys, *argv, "z*log(t)^4")
    assert (code, out) == (1, "") and err.startswith("error[BudgetExceeded]")
    code, out, err = run(capsys, *argv, "z*log(t)^3")
    assert (code, err) == (0, "") and "verified_order" in out

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
