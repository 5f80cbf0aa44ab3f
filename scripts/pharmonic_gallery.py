#!/usr/bin/env python3
"""Build a small gallery of certified proper p-harmonic functions and print
them in text and LaTeX form.

Example:
    python3 scripts/pharmonic_gallery.py --algebra ch2 --seed z^4 --max-p 3
"""

import argparse
import sys

from polyharm import (
    Resonance,
    build,
    catalog_short_name,
    certify_family,
    parse_polynomial,
    render_tree_text,
    tension_tree,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebra", default="ch2")
    parser.add_argument("--seed", default="z^4")
    parser.add_argument("--max-p", type=int, default=3)
    parser.add_argument("--latex", action="store_true")
    args = parser.parse_args(argv)

    spec = catalog_short_name(args.algebra)
    namer = spec.var_name
    seed = parse_polynomial(args.seed, spec)
    tree = tension_tree(spec, seed)
    print(render_tree_text(tree))
    print()
    for p in range(1, args.max_p + 1):
        for family in ("phi", "psi"):
            try:
                cert = certify_family(spec, tree, p, family, args.seed)
            except Resonance as exc:
                print(f"{family}_{p}: undefined ({exc})")
                continue
            built = build(spec, tree, p, family)
            status = "proper" if cert.proper else f"order={cert.verified_order}"
            rendered = built.latex(namer) if args.latex else built.render(namer)
            print(f"{family}_{p} ({status}): {rendered}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
