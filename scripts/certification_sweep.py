#!/usr/bin/env python3
"""Certification sweep: build phi_p / psi_p for a pool of seeds and certify
every one by exact operator iteration.

Example:
    python3 scripts/certification_sweep.py --algebras rh2 rh4 ch2 ch3 --max-p 5
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from polyharm import (
    Polynomial,
    Resonance,
    catalog_short_name,
    certify_family,
    parse_polynomial,
    recurrence_check,
    tension_tree,
)
from polyharm.poly import Monomial

# The sweep's pool is these seeds of each algebra, then random ones; the
# acceptance tests load this module and certify the same pool.
NAMED_SEEDS = {"rh2": ["x^6"], "rh4": [], "ch2": ["z^4", "x^2*z^2", "x^4"], "ch3": []}


def random_polynomial(variables, rng, max_degree=4, max_terms=4):
    """A small random polynomial over `variables`, never zero."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = {}
            for _ in range(rng.randint(0, max_degree)):
                v = rng.choice(variables)
                exps[v] = exps.get(v, 0) + 1
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if coeff:
                mono = Monomial(exps.items())
                terms[mono] = terms.get(mono, Fraction(0)) + coeff
        p = Polynomial(terms)
        if not p.is_zero():
            return p


def seed_pool(name, spec, count, rng_seed):
    """The named seeds of algebra `name`, then `count` random ones drawn
    from `random.Random(rng_seed)`."""
    rng = random.Random(rng_seed)
    seeds = [parse_polynomial(s, spec) for s in NAMED_SEEDS.get(name, [])]
    return seeds + [random_polynomial(spec.variables(), rng) for _ in range(count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--algebras", nargs="+", default=["rh2", "rh4", "ch2", "ch3"])
    parser.add_argument("--max-p", type=int, default=5)
    parser.add_argument("--random-seeds", type=int, default=10)
    parser.add_argument("--rng-seed", type=int, default=20250810)
    parser.add_argument("--check-recurrences", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    total = failures = skips = 0
    for name in args.algebras:
        spec = catalog_short_name(name)
        seeds = seed_pool(name, spec, args.random_seeds, args.rng_seed)
        for seed in seeds:
            tree = tension_tree(spec, seed)
            for p in range(1, args.max_p + 1):
                for family in ("phi", "psi"):
                    try:
                        cert = certify_family(spec, tree, p, family, seed=seed.render())
                    except Resonance as exc:
                        skips += 1
                        print(f"  skip {name} p={p} phi: {exc}")
                        continue
                    total += 1
                    if not (cert.proper and cert.verified_order == p):
                        failures += 1
                        print(
                            f"  FAIL {name} p={p} {family} seed={seed.render()}: "
                            f"order={cert.verified_order}"
                        )
                if args.check_recurrences and not recurrence_check(spec, tree, p):
                    failures += 1
                    print(f"  FAIL recurrence {name} p={p} seed={seed.render()}")
        print(f"{name}: {len(seeds)} seeds done")
    elapsed = time.perf_counter() - start
    print(
        f"\n{total} certificates, {failures} failures, {skips} phi resonance skips, "
        f"{elapsed:.2f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
