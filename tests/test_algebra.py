import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from polyharm import (
    BadParams,
    BudgetExceeded,
    DuplicateBracket,
    GradingViolation,
    IndexOutOfRange,
    JacobiViolation,
    NonIncreasingEigenvalues,
    NonPositiveEigenvalue,
    UnknownCatalogName,
    VarIndex,
    build_psi,
    catalog,
    catalog_short_name,
    from_json_dict,
    parse_polynomial,
    tension_tree,
    validate,
    verify,
)
from polyharm import algebra
from polyharm.laplacian import tables_of

from oracles import jacobi_violation, structure_constant

CH2_JSON = {
    "name": "ch2",
    "lambdas": ["1/2", "1"],
    "dims": [2, 1],
    "brackets": [{"i": 1, "j": 1, "k": 1, "l": 2, "alpha": 2, "beta": 1, "c": "1"}],
}


def filiform():
    """Three-layer algebra exercising the r=2 Bernoulli term:
    [X^1_1, X^1_2] = X^2_1, [X^1_1, X^2_1] = X^3_1."""
    return validate(
        "fil3",
        [Fraction(1), Fraction(2), Fraction(3)],
        [2, 1, 1],
        [
            ((1, 1, 1, 2, 2, 1), Fraction(1)),
            ((1, 1, 2, 1, 3, 1), Fraction(1)),
        ],
    )


def test_catalog_rh(rh2, rh3):
    assert rh2.m == 1 and rh2.lambdas == (1,) and rh2.dims == (1,)
    assert rh2.brackets == ()
    assert rh2.homogeneous_dim == 1
    assert rh3.homogeneous_dim == 2


def test_catalog_ch2(ch2):
    assert ch2.m == 2
    assert ch2.lambdas == (Fraction(1, 2), Fraction(1))
    assert ch2.dims == (2, 1)
    assert ch2.homogeneous_dim == 2
    assert structure_constant(ch2, 1, 1, 1, 2, 2, 1) == 1
    assert structure_constant(ch2, 1, 2, 1, 1, 2, 1) == -1  # synthesized mirror


def test_catalog_ch3_homogeneous_dim(ch3):
    # sum n_i * lambda_i = 4 * 1/2 + 1 * 1, computed by hand
    assert ch3.homogeneous_dim == 3
    assert ch3.dims == (4, 1)
    assert len(ch3.brackets) == 2


def test_catalog_errors():
    with pytest.raises(UnknownCatalogName):
        catalog("octonionic-hyperbolic", [1])
    with pytest.raises(BadParams):
        catalog("real-hyperbolic", [0])
    with pytest.raises(BadParams):
        catalog("real-hyperbolic", [1, 2])


def test_validate_refuses_bool_dimension():
    with pytest.raises(BadParams):
        validate("x", [Fraction(1)], [True])


def test_catalog_refuses_bool_parameter():
    with pytest.raises(BadParams):
        catalog("real-hyperbolic", [True])


def test_dimension_budget_refuses_a_large_algebra_before_its_jacobi_scan(monkeypatch):
    # the Jacobi scan is cubic in the dimension: an algebra past the budget is
    # refused before it runs, here made to fail if it is reached at all
    def reached(spec):
        raise AssertionError(f"the Jacobi scan ran on dimension {sum(spec.dims)}")

    monkeypatch.setattr(algebra, "_check_jacobi", reached)
    with pytest.raises(BudgetExceeded):
        catalog_short_name("ch1000")
    with pytest.raises(BudgetExceeded):
        catalog("real-hyperbolic", [algebra._DIMENSION_BUDGET + 1])
    with pytest.raises(BudgetExceeded):
        from_json_dict({**CH2_JSON, "dims": ["1000000000000", 1]})
    with pytest.raises(AssertionError):
        catalog("real-hyperbolic", [algebra._DIMENSION_BUDGET])


def test_catalog_short_names(ch3):
    assert catalog_short_name("rh2").name == "rh2"
    assert catalog_short_name("ch3") == ch3
    with pytest.raises(UnknownCatalogName):
        catalog_short_name("qh2")


def test_json_round_trip(ch2):
    spec = from_json_dict(CH2_JSON)
    assert spec.lambdas == ch2.lambdas
    assert spec.dims == ch2.dims
    assert spec.brackets == ch2.brackets


def test_grading_violation():
    bad = dict(CH2_JSON)
    bad["brackets"] = CH2_JSON["brackets"] + [
        {"i": 1, "j": 2, "k": 2, "l": 1, "alpha": 1, "beta": 1, "c": "1"}
    ]
    with pytest.raises(GradingViolation):
        from_json_dict(bad)


def test_non_positive_eigenvalue():
    with pytest.raises(NonPositiveEigenvalue):
        validate("bad", [Fraction(0)], [1])
    with pytest.raises(NonPositiveEigenvalue):
        validate("bad", [Fraction(-1), Fraction(1)], [1, 1])


def test_non_increasing_eigenvalues():
    with pytest.raises(NonIncreasingEigenvalues):
        validate("bad", [Fraction(1), Fraction(1)], [1, 1])
    with pytest.raises(NonIncreasingEigenvalues):
        validate("bad", [Fraction(2), Fraction(1)], [1, 1])


def test_jacobi_violation():
    # [X^1_1,X^1_2]=X^2_1, [X^1_2,X^1_3]=X^2_1, [X^1_1,X^2_1]=X^3_1;
    # the cyclic sum over (X^1_1, X^1_2, X^1_3) leaves -X^3_1.
    with pytest.raises(JacobiViolation):
        validate(
            "bad",
            [Fraction(1), Fraction(2), Fraction(3)],
            [3, 1, 1],
            [
                ((1, 1, 1, 2, 2, 1), Fraction(1)),
                ((1, 2, 1, 3, 2, 1), Fraction(1)),
                ((1, 1, 2, 1, 3, 1), Fraction(1)),
            ],
        )


def random_brackets(rng, dims):
    """Random brackets graded for lambda = (1, 2, 3): some [X^1_a, X^1_b] =
    c X^2_e and [X^1_a, X^2_e] = c X^3_f, which often break Jacobi, as in
    `test_jacobi_violation`."""
    pairs = [
        ((1, a, 1, b), (2, e))
        for a in range(1, dims[0] + 1) for b in range(a + 1, dims[0] + 1)
        for e in range(1, dims[1] + 1)
    ]
    pairs += [
        ((1, a, 2, e), (3, f))
        for a in range(1, dims[0] + 1) for e in range(1, dims[1] + 1)
        for f in range(1, dims[2] + 1)
    ]
    return [
        (pair + target, Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)))
        for pair, target in rng.sample(pairs, rng.randint(0, min(len(pairs), 8)))
    ]


@pytest.mark.parametrize("dims", [(3, 1, 1), (4, 2, 2)])
def test_jacobi_check_matches_the_full_scan(monkeypatch, dims):
    # the check scans only triples holding a bracketed pair; the oracle scans
    # every triple, and both must name the same least violating triple
    rng = random.Random(31)
    outcomes = []
    for _ in range(300):
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_check_jacobi", lambda spec: None)
            spec = validate("random", [Fraction(1), Fraction(2), Fraction(3)], dims,
                            random_brackets(rng, dims))
        least = jacobi_violation(spec)
        if least is None:
            algebra._check_jacobi(spec)
        else:
            with pytest.raises(JacobiViolation, match=re.escape("triple (%s, %s, %s)" % least)):
                algebra._check_jacobi(spec)
        outcomes.append(least is None)
    assert 30 < sum(outcomes) < 270  # both valid and violating sets were drawn


def test_filiform_valid():
    spec = filiform()
    assert spec.homogeneous_dim == 7
    assert spec.m == 3


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate(
            "bad",
            [Fraction(1, 2), Fraction(1)],
            [2, 1],
            [((1, 1, 1, 3, 2, 1), Fraction(1))],
        )


def test_duplicate_bracket():
    both = dict(CH2_JSON)
    both["brackets"] = CH2_JSON["brackets"] + [
        {"i": 1, "j": 2, "k": 1, "l": 1, "alpha": 2, "beta": 1, "c": "-1"}
    ]
    with pytest.raises(DuplicateBracket):
        from_json_dict(both)
    selfpair = dict(CH2_JSON)
    selfpair["brackets"] = [
        {"i": 1, "j": 1, "k": 1, "l": 1, "alpha": 2, "beta": 1, "c": "1"}
    ]
    with pytest.raises(DuplicateBracket):
        from_json_dict(selfpair)


def test_antisymmetry_everywhere(ch2, ch3):
    for spec in (ch2, ch3, filiform()):
        for u in spec.variables():
            for v in spec.variables():
                fwd = spec.bracket(u, v)
                bwd = spec.bracket(v, u)
                assert set(fwd) == set(bwd)
                for w, c in fwd.items():
                    assert bwd[w] == -c


def test_grading_scan(ch2, ch3):
    for spec in (ch2, ch3, filiform()):
        for e in spec.brackets:
            assert spec.lam(e.alpha) == spec.lam(e.i) + spec.lam(e.k)
            assert e.alpha > max(e.i, e.k)


def _bracket_depth(spec) -> int:
    """Length of the lower central series computed from the sparse map only."""
    current = {(v,): {v: Fraction(1)} for v in spec.variables()}
    layer = [dict(d) for d in current.values()]
    depth = 0
    while layer:
        depth += 1
        next_layer = []
        for elem in layer:
            for u in spec.variables():
                acc: dict[VarIndex, Fraction] = {}
                for w, c in elem.items():
                    for target, ct in spec.bracket(u, w).items():
                        acc[target] = acc.get(target, Fraction(0)) + c * ct
                acc = {k: v for k, v in acc.items() if v}
                if acc:
                    next_layer.append(acc)
        layer = next_layer
        if depth > spec.m + 1:
            break
    return depth


def test_nilpotency_depth(rh2, ch2, ch3):
    for spec in (rh2, ch2, ch3, filiform()):
        assert _bracket_depth(spec) <= spec.m


def test_variables_and_aliases(ch2, ch3):
    assert ch2.variables() == [VarIndex(1, 1), VarIndex(1, 2), VarIndex(2, 1)]
    assert ch2.alias_to_var["z"] == VarIndex(2, 1)
    assert ch2.var_name(VarIndex(1, 2)) == "y"
    assert ch3.alias_to_var["y_2"] == VarIndex(1, 4)
    with pytest.raises(IndexOutOfRange):
        ch2.check_index(VarIndex(3, 1))


def test_pickle_and_copy_carry_only_the_fields():
    spec = catalog_short_name("ch3")
    fresh = pickle.dumps(spec)

    def certify(s):
        tree = tension_tree(s, parse_polynomial("(x_1*y_2+z)^4", s))
        return verify(s, build_psi(s, tree, 5), 5)

    cert = certify(spec)
    assert tables_of(spec).images  # the spec now holds filled memos
    assert pickle.dumps(spec) == fresh
    for clone in (pickle.loads(fresh), copy.deepcopy(spec), copy.copy(spec)):
        assert clone == spec and "_tables" not in clone.__dict__
        assert certify(clone) == cert
        rebuilt, original = tables_of(clone), tables_of(spec)
        assert rebuilt is not original
        assert rebuilt.operator == original.operator
        assert rebuilt.struct.entries == original.struct.entries


def test_spec_is_an_immutable_value():
    spec, again = catalog_short_name("ch3"), catalog_short_name("ch3")
    other = catalog_short_name("ch2")
    tables_of(spec)  # cached state takes no part in equality or hashing
    assert spec == again and hash(spec) == hash(again)
    assert spec != other and spec != spec.name
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert clone == spec and hash(clone) == hash(spec)
        assert clone.lambdas == spec.lambdas and clone.aliases == spec.aliases
    with pytest.raises(AttributeError):
        spec.name = "other"
    with pytest.raises(AttributeError):
        del spec.m
    assert spec.name == "ch3" and spec.m == 2
