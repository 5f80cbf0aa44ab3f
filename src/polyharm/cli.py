"""Command-line front end.

Commands: catalog-list, validate, tree, build, verify.  Algebras come from the
built-in catalog (rh2, rh4, ch2, ch3, ... by total dimension label) or from a
JSON file; seeds are expression text or a radial-seed JSON object.  Exit codes:
0 success, 1 domain error (reported with the originating error class name),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Mapping

from . import algebra as algebra_mod
from .algebra import AlgebraSpec
from .errors import ParseError, PolyharmError, UnsupportedSpan
from .expr import parse, parse_polynomial
from .pharmonic import Built, HarmonicCertificate, build, certify_family, verify
from .scalar import _acc, format_rational, int_field, parse_rational
from .tension import (
    AffinePart,
    RadialFunction,
    RadialSeed,
    TensionTree,
    render_tree_latex,
    render_tree_text,
    tension_tree,
    tension_tree_radial,
    tree_to_json,
)


def resolve_algebra(source: str) -> AlgebraSpec:
    """Catalog shorthand (rh2, ch3, ...) or a JSON file path."""
    if source.endswith(".json") or "/" in source or os.path.exists(source):
        return algebra_mod.load_file(source)
    return algebra_mod.catalog_short_name(source)


def parse_radial_seed(text: str | Mapping) -> RadialSeed:
    """Radial-seed JSON: {"n1": int, "terms": [{"k", "a", "b"}...], "G": {...}}.

    For n1 = 2 the coefficient a_k multiplies rho^(2k) log(rho); otherwise it
    multiplies rho^(2k + 2 - n1).  b_k always multiplies rho^(2k).
    """
    if isinstance(text, str):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer past the digit limit
            raise ParseError(f"radial seed is not valid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("radial seed is not valid JSON: nested too deeply") from None
    else:
        obj = text
    if not isinstance(obj, Mapping):
        raise ParseError("radial seed must be a JSON object")
    try:
        n1 = int_field(obj, "n1")
        raw_terms = obj["terms"]
    except KeyError as exc:
        raise ParseError(f"radial seed is missing key {exc.args[0]!r}") from None
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ParseError("radial seed needs a non-empty 'terms' list")
    accum: dict[tuple[int, bool], Fraction] = {}
    for term in raw_terms:
        if not isinstance(term, Mapping) or "k" not in term:
            raise ParseError("each radial term needs fields k, a, b")
        k = int_field(term, "k")
        if k < 0:
            raise UnsupportedSpan(f"rho-power index k={k} is outside the span (k >= 0)")
        a = parse_rational(str(term.get("a", "0")))
        b = parse_rational(str(term.get("b", "0")))
        if a:
            key = (2 * k, True) if n1 == 2 else (2 * k + 2 - n1, False)
            _acc(accum, key, a)
        if b:
            _acc(accum, (2 * k, False), b)
    gobj = obj.get("G", {})
    if not isinstance(gobj, Mapping):
        raise ParseError("'G' must be an object with c0 and optional c list")
    constant = parse_rational(str(gobj.get("c0", "0")))
    raw_linear = gobj.get("c", [])
    if not isinstance(raw_linear, list):
        raise ParseError("'G.c' must be a list of coefficients")
    linear = []
    for idx, c in enumerate(raw_linear):
        value = parse_rational(str(c))
        if value:
            linear.append((idx + 1, value))
    return RadialSeed(
        radial=RadialFunction(n1, accum),
        affine=AffinePart(constant=constant, linear=tuple(linear)),
    )


def _emit_built(built: Built, tree: TensionTree, fmt: str) -> str:
    """A built family in text or LaTeX, or as JSON: the expression of a
    polynomial tree's build, the node-symbol terms of a radial one's."""
    namer = tree.spec.var_name
    if fmt == "latex":
        return built.latex(namer)
    if fmt == "text":
        return built.render(namer)
    if tree.kind == "polynomial":
        return json.dumps({"expr": built.render(namer)}, sort_keys=True)
    formal = [
        {"alpha": list(alpha), "coefficient": coeff.render()}
        for alpha, coeff in built.sorted_terms()
    ]
    return json.dumps({"formal": formal}, sort_keys=True)


def _emit_certificate(cert: HarmonicCertificate, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(cert.to_json_dict(), sort_keys=True)
    order = cert.verified_order if cert.verified_order is not None else "exceeds p"
    lines = [
        f"kind: {cert.kind}",
        f"p: {cert.p}",
        f"verified_order: {order}",
        f"proper: {str(cert.proper).lower()}",
    ]
    if cert.seed:
        lines.insert(0, f"seed: {cert.seed}")
    return "\n".join(lines)


def _load_tree(spec: AlgebraSpec, args) -> TensionTree:
    if args.radial_seed is not None:
        seed = parse_radial_seed(args.radial_seed)
        return tension_tree_radial(spec, seed)
    return tension_tree(spec, parse_polynomial(args.seed, spec))


def _cmd_catalog_list(args) -> int:
    for name, (_, description) in sorted(algebra_mod.CATALOG.items()):
        print(f"{name}(n): {description}")
    print("shorthand: rhN / chN picks the space of total dimension N (e.g. rh2, ch3)")
    return 0


def _cmd_validate(args) -> int:
    spec = resolve_algebra(args.algebra)
    lambdas = ", ".join(format_rational(q) for q in spec.lambdas)
    print(
        f"{spec.name}: valid; m={spec.m}, lambdas=({lambdas}), dims={list(spec.dims)}, "
        f"homogeneous_dim={format_rational(spec.homogeneous_dim)}, "
        f"brackets={len(spec.brackets)}"
    )
    return 0


def _cmd_tree(args) -> int:
    spec = resolve_algebra(args.algebra)
    tree = _load_tree(spec, args)
    if args.format == "json":
        print(json.dumps(tree_to_json(tree), sort_keys=True))
    elif args.format == "latex":
        print(render_tree_latex(tree))
    else:
        print(render_tree_text(tree))
    return 0


def _combo_coefficients(args) -> tuple[Fraction, Fraction]:
    """--a and --b, read only for a combination."""
    if args.kind != "combo":
        return Fraction(1), Fraction(1)
    return parse_rational(args.a), parse_rational(args.b)


def _cmd_build(args) -> int:
    spec = resolve_algebra(args.algebra)
    tree = _load_tree(spec, args)
    built = build(spec, tree, args.p, args.kind, *_combo_coefficients(args))
    print(_emit_built(built, tree, args.format))
    return 0


def _cmd_verify(args) -> int:
    spec = resolve_algebra(args.algebra)
    if args.expr is not None:
        e = parse(args.expr, spec)
        cert = verify(spec, e, args.p, kind="expression", seed=args.expr)
    else:
        tree = _load_tree(spec, args)
        seed_text = args.seed if args.seed is not None else args.radial_seed
        cert = certify_family(
            spec, tree, args.p, args.kind, seed_text, *_combo_coefficients(args)
        )
    print(_emit_certificate(cert, args.format))
    return 0


def _add_algebra_arg(sub) -> None:
    sub.add_argument(
        "--algebra",
        required=True,
        help="catalog shorthand (rh2, ch3, ...) or path to an algebra JSON file",
    )


def _add_seed_args(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", help="polynomial seed expression, e.g. 'x1_1^6' or 'z^4'")
    group.add_argument(
        "--radial-seed",
        help='radial seed JSON, e.g. \'{"n1":2,"terms":[{"k":1,"a":"1","b":"0"}],"G":{"c0":"1"}}\'',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyharm",
        description=(
            "Exact Laplace-Beltrami calculus on rank-one solvable Lie groups: "
            "tension trees, explicit p-harmonic functions and certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog-list", help="list built-in algebras").set_defaults(
        func=_cmd_catalog_list
    )

    p_validate = sub.add_parser("validate", help="validate an algebra specification")
    _add_algebra_arg(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_tree = sub.add_parser("tree", help="print the tension tree of a seed")
    _add_algebra_arg(p_tree)
    _add_seed_args(p_tree)
    p_tree.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_tree.set_defaults(func=_cmd_tree)

    p_build = sub.add_parser("build", help="build phi_p / psi_p / a combination")
    _add_algebra_arg(p_build)
    _add_seed_args(p_build)
    p_build.add_argument("--kind", choices=("phi", "psi", "combo"), default="phi")
    p_build.add_argument("--p", type=int, required=True)
    p_build.add_argument("--a", default="1", help="combo coefficient on phi")
    p_build.add_argument("--b", default="1", help="combo coefficient on psi")
    p_build.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser(
        "verify", help="certify the p-harmonic order of an expression or built family"
    )
    _add_algebra_arg(p_verify)
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression to verify directly")
    group.add_argument("--seed", help="polynomial seed (build then verify)")
    group.add_argument("--radial-seed", help="radial seed JSON (build then verify formally)")
    p_verify.add_argument("--kind", choices=("phi", "psi", "combo"), default="phi")
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--a", default="1")
    p_verify.add_argument("--b", default="1")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", 1) < 1:
        parser.error("--p must be >= 1")
    try:
        return args.func(args)
    except PolyharmError as exc:
        print(f"error[{exc.error_name}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
