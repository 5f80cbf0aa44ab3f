import random
import warnings
from fractions import Fraction

import pytest

from polyharm import (
    AffinePart,
    BudgetExceeded,
    InternalClosureError,
    MixedExpr,
    Polynomial,
    RadialFunction,
    RadialSeed,
    UnsupportedSpan,
    VarIndex,
    build_psi,
    parse_polynomial,
    render_tree_text,
    tau,
    tension_tree,
    tension_tree_radial,
    tree_to_json,
    validate,
)
from polyharm import catalog_short_name, laplacian, tension
from polyharm.poly import Monomial

from conftest import random_polynomial
from oracles import (
    node_view,
    radial_laplacian,
    radial_polynomial,
    sum_trees,
    tau_by_partials,
    total_degree,
)
from test_algebra import filiform

X = VarIndex(1, 1)


def poly(text, spec=None):
    return parse_polynomial(text, spec)


def test_single_variable_tree(rh2):
    tree = tension_tree(rh2, poly("x^6", rh2))
    assert tree.degree == 3
    assert tree.nodes == {
        (1,): poly("30*x^4", rh2),
        (1, 1): poly("360*x^2", rh2),
        (1, 1, 1): poly("720", rh2),
    }


def test_full_tree_ch2(ch2):
    tree = tension_tree(ch2, poly("z^4", ch2))
    assert tree.degree == 4
    expected = {
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
    assert set(tree.nodes) == set(expected)
    for alpha, text in expected.items():
        assert tree.nodes[alpha] == poly(text, ch2)


def test_constant_seed(ch2):
    tree = tension_tree(ch2, Polynomial.constant(9))
    assert tree.degree == 0 and not tree.nodes


def test_defining_recursion(rh2, rh3, ch2, ch3):
    # tau(h_alpha) = sum_k h_(alpha,k) t^(2 lambda_k) on every node, against
    # production `tau` and against the independent `tau_by_partials`, which
    # shares no code with the kernel the tree is expanded by
    rng = random.Random(31)
    ch4 = catalog_short_name("ch4")
    fil3 = filiform()
    for spec, seed in (
        (rh2, poly("x^6", rh2)),
        (ch2, poly("z^4", ch2)),
        (ch2, random_polynomial(ch2, rng)),
        (ch3, random_polynomial(ch3, rng)),
        (ch2, poly("z^8", ch2)),
        (ch4, poly("(x_1*y_2+z)^4", ch4)),
        (fil3, poly("(x1_1*x1_2+x2_1+x3_1)^4", fil3)),
        (rh3, poly("(x1_1^2+x1_2^2)^6", rh3)),
    ):
        tree = tension_tree(spec, seed)
        oracle: dict = {}  # by node polynomial, so a repeated node is expanded once
        for alpha, node in [((), seed)] + list(tree.nodes.items()):
            e = MixedExpr.from_polynomial(node)
            if node not in oracle:
                oracle[node] = tau_by_partials(spec, e)
            rebuilt = MixedExpr.zero()
            for k in range(1, spec.m + 1):
                child = tree.nodes.get(alpha + (k,))
                if child is not None:
                    rebuilt = rebuilt + MixedExpr.from_polynomial(
                        child, mu=2 * spec.lam(k)
                    )
            assert oracle[node] == rebuilt
            assert tau(spec, e) == rebuilt


def test_each_distinct_node_is_expanded_once(ch2, monkeypatch):
    # 4,179 nodes but 79 distinct polynomials: one kernel application each,
    # plus the seed's, not one per multi-index; counted on every route to
    # the kernel, through `tau` too
    calls = []
    kernel = laplacian.tau_form

    def counting(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(laplacian, "tau_form", counting)
    monkeypatch.setattr(tension, "tau_form", counting)
    seed = poly("z^16", ch2)
    tree = tension_tree(ch2, seed)
    assert tree.node_count() == 4179
    assert len(calls) == len(set(tree.nodes.values()) | {seed}) == 80


def test_closure_check_refuses_a_stray_image_term(rh2, monkeypatch):
    # an image term at a t-power that is no 2 lambda_k, or with a log power,
    # cannot be read as a child
    for shift, logpow in ((Fraction(5, 2), 0), (Fraction(2), 1)):
        def stray(tables, form, images=None, shift=shift, logpow=logpow):
            d, terms = form
            e = tables.exponent_id(shift)
            return d, {(m, e, logpow): v for (m, _, _), v in terms.items()}

        monkeypatch.setattr(tension, "tau_form", stray)
        with pytest.raises(InternalClosureError):
            tension_tree(rh2, poly("x^6", rh2))


def test_depth_bound_comes_from_the_seed(rh2):
    # depth 65: a fixed depth limit of 64 would refuse this finite tree
    assert tension_tree(rh2, poly("x^130", rh2)).degree == 65


def test_depth_budget_refuses_a_huge_seed_up_front(rh2, rh3, monkeypatch):
    # x^(10^11) would be expanded one level at a time for hours
    calls = []
    monkeypatch.setattr(tension, "tau_form", lambda tables, form, images=None: calls.append(form))
    with pytest.raises(BudgetExceeded):
        tension_tree(rh2, poly("x^99999999999", rh2))
    seed = RadialSeed(RadialFunction(2, {(10**9, False): Fraction(1)}), AffinePart(Fraction(1)))
    with pytest.raises(BudgetExceeded):
        tension_tree_radial(rh3, seed)
    assert not calls
    monkeypatch.undo()
    assert tension_tree(rh2, poly(f"x^{2 * tension._DEPTH_BUDGET}", rh2)).degree == tension._DEPTH_BUDGET


def test_depth_guard_stops_a_looping_operator(rh2, rh3, monkeypatch):
    # operators that make a node its own child would never terminate
    def looping(tables, form, images=None):
        d, terms = form
        e = tables.exponent_id(tables.shifts[0])
        return d, {(m, e, k): v for (m, _, k), v in terms.items()}

    monkeypatch.setattr(tension, "tau_form", looping)
    with pytest.raises(InternalClosureError):
        tension_tree(rh2, poly("x^6", rh2))
    monkeypatch.setattr(tension, "_radial_child", lambda n1, node: {1: node})
    seed = RadialSeed(RadialFunction(2, {(4, False): Fraction(1)}), AffinePart(Fraction(1)))
    with pytest.raises(InternalClosureError):
        tension_tree_radial(rh3, seed)


def test_degree_bound_heuristic(rh2, ch2, ch3):
    # degree <= total degree of the seed holds empirically; report, don't fail
    rng = random.Random(17)
    for spec in (rh2, ch2, ch3):
        for _ in range(10):
            seed = random_polynomial(spec, rng)
            tree = tension_tree(spec, seed)
            if tree.degree > total_degree(seed):
                warnings.warn(
                    f"tree degree {tree.degree} exceeded seed degree "
                    f"{total_degree(seed)} on {spec.name}"
                )


def test_sum_trees_linear(rh2, ch2):
    rng = random.Random(23)
    for spec in (rh2, ch2):
        for _ in range(10):
            h = random_polynomial(spec, rng)
            u = random_polynomial(spec, rng)
            assert sum_trees(tension_tree(spec, h), tension_tree(spec, u)) == \
                node_view(tension_tree(spec, h + u))


def test_sum_trees_examples(rh2):
    t_x6 = tension_tree(rh2, poly("x^6", rh2))
    cancel = sum_trees(t_x6, tension_tree(rh2, poly("-x^6", rh2)))
    assert cancel.degree == 0 and not cancel.nodes
    combo = sum_trees(t_x6, tension_tree(rh2, poly("x^2", rh2)))
    assert combo.nodes[(1,)] == poly("30*x^4 + 2", rh2)
    assert combo.nodes[(1, 1)] == poly("360*x^2", rh2)
    assert combo.degree == 3
    zero_tree = tension_tree(rh2, Polynomial.zero())
    assert sum_trees(t_x6, zero_tree) == node_view(t_x6)


def test_sum_trees_kind_mismatch(rh2, ch2):
    with pytest.raises(ValueError):
        sum_trees(tension_tree(rh2, poly("x^2", rh2)), tension_tree(ch2, poly("x", ch2)))


# --- radial seeds ---

def radial(n1, terms, c0="1", linear=()):
    return RadialSeed(
        radial=RadialFunction(n1, {k: Fraction(v) for k, v in terms.items()}),
        affine=AffinePart(
            constant=Fraction(c0), linear=tuple((s, Fraction(c)) for s, c in linear)
        ),
    )


def test_radial_seed_and_affine_part_are_values():
    seed = radial(2, {(2, True): 1}, c0="2", linear=((1, "1/2"),))
    again = radial(2, {(2, True): 1}, c0="2", linear=((1, "1/2"),))
    assert seed == again and hash(seed) == hash(again)
    assert seed.affine == again.affine and hash(seed.affine) == hash(again.affine)
    assert seed != radial(2, {(2, True): 1}, c0="2")
    assert seed.affine != AffinePart(Fraction(2))
    assert AffinePart(Fraction(2)).linear == ()


def test_tree_equality_ignores_its_rows(ch2):
    seed = poly("x^2*z", ch2)
    tree, again = tension_tree(ch2, seed), tension_tree(ch2, seed)
    build_psi(ch2, tree, 3)  # fills the branch-row memo of one tree only
    assert tree.rows and not again.rows
    assert tree == again
    assert tree != tension_tree(ch2, poly("x^2*z^2", ch2))
    with pytest.raises(AttributeError):
        tree.degree = 0


def test_log_rho_harmonic(rh3):
    seed = radial(2, {(0, True): 1})
    tree = tension_tree_radial(rh3, seed)
    assert tree.degree == 0 and not tree.nodes


def test_rho2_log_rho(rh3):
    seed = radial(2, {(2, True): 1})
    tree = tension_tree_radial(rh3, seed)
    assert tree.degree == 1
    node = tree.nodes[(1,)]
    assert node.radial == RadialFunction(2, {(0, True): Fraction(4), (0, False): Fraction(4)})


def test_radial_matches_polynomial_path(ch2):
    c0 = Fraction(3, 2)
    seed = radial(2, {(2, False): 1}, c0=c0)
    rtree = tension_tree_radial(ch2, seed)
    ptree = tension_tree(ch2, poly("x^2 + y^2", ch2) * c0)
    assert rtree.degree == ptree.degree == 1
    assert set(rtree.nodes) == set(ptree.nodes) == {(1,)}
    node = rtree.nodes[(1,)]
    assert radial_polynomial(ch2, node.radial) * node.affine.constant == ptree.nodes[(1,)]
    assert ptree.nodes[(1,)] == Polynomial.constant(4 * c0)


def test_radial_matches_polynomial_path_deeper(ch2):
    seed = radial(2, {(4, False): 1})
    rtree = tension_tree_radial(ch2, seed)
    ptree = tension_tree(ch2, poly("(x^2 + y^2)^2", ch2))
    # the polynomial tree may have extra branches; the radial path only covers
    # seeds where those vanish, which holds here
    assert set(ptree.nodes) == set(rtree.nodes)
    for alpha, node in rtree.nodes.items():
        assert radial_polynomial(ch2, node.radial) == ptree.nodes[alpha]


def test_radial_affine_linear_part(ch2):
    seed = radial(2, {(2, False): 1}, c0="0", linear=((1, "2"),))
    tree = tension_tree_radial(ch2, seed)
    assert tree.degree == 1
    ptree = tension_tree(ch2, poly("(x^2 + y^2)*2*z", ch2))
    node = tree.nodes[(1,)]
    as_poly = radial_polynomial(ch2, node.radial) * node.affine.to_polynomial()
    assert as_poly == ptree.nodes[(1,)]
    assert set(ptree.nodes) == {(1,)}


def test_unsupported_span():
    with pytest.raises(UnsupportedSpan):
        RadialFunction(2, {(3, False): Fraction(1)})
    with pytest.raises(UnsupportedSpan):
        RadialFunction(3, {(0, True): Fraction(1)})
    with pytest.raises(UnsupportedSpan):
        RadialFunction(2, {(-2, False): Fraction(1)})
    # rho^(2-n1) is admissible for n1 != 2
    RadialFunction(3, {(-1, False): Fraction(1)})
    RadialFunction(4, {(-2, False): Fraction(1)})


def test_radial_laplacian_closed_form():
    # Lap(rho^a) = a(a + n1 - 2) rho^(a-2)
    f = RadialFunction(4, {(-2, False): Fraction(1), (2, False): Fraction(1)})
    lap = radial_laplacian(f)
    assert lap == RadialFunction(4, {(0, False): Fraction(8)})  # rho^-2 harmonic
    g = RadialFunction(2, {(4, True): Fraction(1)})
    assert radial_laplacian(g) == RadialFunction(
        2, {(2, True): Fraction(16), (2, False): Fraction(8)}
    )
    # the tree's child on integer keys (a, has_log, monomial of G), here
    # rho^4 log(rho) * z / 3, reduced by its own gcd
    z = Monomial.variable(VarIndex(2, 1))
    assert tension._radial_child(2, (3, frozenset({((4, True, z), 1)}))) == {
        1: (3, frozenset({((2, True, z), 16), ((2, False, z), 8)}))
    }
    assert tension._radial_child(4, (1, frozenset({((-2, False, z), 5)}))) == {}


def random_radial(rng, n1):
    """A random H in the span of n1 (logs only for n1 = 2), as RadialFunction."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, 4)
        if n1 == 2:
            key = (2 * k, rng.random() < 0.5)
        else:
            key = (2 * k if rng.random() < 0.5 else 2 * k + 2 - n1, False)
        terms[key] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return RadialFunction(n1, terms)


def test_radial_nodes_are_iterated_laplacians_times_g():
    # every node of the view is Lap^i(H) * G, with Lap^i from the oracle's
    # closed form and G the seed's, over n1 = 1..5 and G constant-only,
    # linear-only and both; layer 1 of dimension n1, layer 2 of dimension 2
    rng = random.Random(71)
    for n1 in range(1, 6):
        spec = validate(f"flat{n1}", [Fraction(1, 2), Fraction(1)], [n1, 2])
        for constant, linear in ((1, False), (0, True), (1, True)):
            for _ in range(4):
                c0 = Fraction(rng.randint(1, 7), rng.randint(1, 5)) if constant else Fraction(0)
                slots = ((1, Fraction(rng.randint(-5, 5) or 1, 3)), (2, Fraction(2))) if linear else ()
                seed = RadialSeed(random_radial(rng, n1), AffinePart(c0, slots[:rng.randint(1, 2)]))
                tree = tension_tree_radial(spec, seed)
                h = seed.radial
                for alpha, node in tree.nodes.items():
                    assert alpha == (1,) * len(alpha)
                    h = radial_laplacian(h)
                    assert node == RadialSeed(h, seed.affine)
                assert not radial_laplacian(h).terms


def test_tree_text_render(ch2):
    tree = tension_tree(ch2, poly("z^4", ch2))
    text = render_tree_text(tree)
    assert text.splitlines()[0] == "h = z^4"
    assert "h^1_(2) = 12*z^2" in text
    assert "h^4_(1,1,1,1) = 120" in text
    assert text.splitlines()[-1] == "degree = 4"


def test_tree_latex_render(ch2, rh3):
    from polyharm import render_tree_latex

    tex = render_tree_latex(tension_tree(ch2, poly("z^2", ch2)))
    assert tex.splitlines()[0] == r"h &= z^{2} \\"
    assert r"h^{1}_{(1)} &= \frac{1}{2} \, x^{2} + \frac{1}{2} \, y^{2} \\" in tex
    rtex = render_tree_latex(tension_tree_radial(rh3, radial(2, {(2, True): 1})))
    assert r"\rho" in rtex and r"\log(\rho)" in rtex


def test_tree_json_round_trip(rh2, ch2, rh3):
    for tree in (
        tension_tree(ch2, poly("z^4", ch2)),
        tension_tree(rh2, poly("x^6", rh2)),
        tension_tree_radial(rh3, radial(2, {(2, True): 1})),
        tension_tree_radial(ch2, radial(2, {(2, False): 1}, c0="2", linear=((1, "1/3"),))),
    ):
        obj = tree_to_json(tree)
        assert (obj["algebra"], obj["kind"], obj["degree"]) == (
            tree.spec.name, tree.kind, tree.degree
        )
        assert [tuple(entry["alpha"]) for entry in obj["nodes"]] == list(tree.nodes)
