import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import ParseError, RadialFunction, UnsupportedSpan, parse
from polyharm.cli import main, parse_radial_seed, resolve_algebra
from polyharm.tension import tree_from_json


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
    from polyharm import tension_tree

    rebuilt = tree_from_json(spec, payload)
    assert rebuilt == tension_tree(spec, parse("z^4", spec).as_polynomial())


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
    rebuilt = NodeSymbolExpr.build(
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
    ],
    ids=[
        "zero-denominator", "zero-exponent-denominator", "missing-file", "radial-k-not-int",
        "radial-G-c-string", "radial-k-float", "radial-n1-float", "radial-k-bool",
        "seed-past-depth-budget",
    ],
)
def test_bad_input_is_domain_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error[" in err and "Traceback" not in err


# --- argv fuzz: every input ends in exit 0, 1 or 2, never a traceback ---

FUZZ_SEEDS = ("x^4", "z^2", "x_1*y_2 + z", "x^2*z - 1/3*y", "x1_1^3", "0", "7")
FUZZ_MALFORMED = (
    "", "x^", "((z", "z^-1", "x*t", "1/0", "x_9", "t^(1/0)", "--p", "nan", "1e3",
    "\x00", "é", "x^99999999999", "{", '{"n1":2,"terms":[]}', "-", "3/-2",
)
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
        argv += ["--p", str(draw(st.integers(-2, 5)))]
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
