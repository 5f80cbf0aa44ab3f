"""The benchmark's inputs: four workloads, each a fixed plan of work per round.

A round is one fresh interpreter doing one pass over its workload's plan. No
(algebra, seed, p, family) repeats within a round, because polyharm caches
branch coefficients and operator tables per algebra for the life of the
process; repeating an input in-process would time cache lookups. Rounds of
one run repeat the same plan, so every round does identical work and the
exact counters of one round repeat in the next.

This module imports nothing from polyharm: it only describes inputs as text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Algebras given as JSON files (the rest are catalog shorthands), as paths
# relative to the checkout root, which is the working directory of every
# process the benchmark starts.
ALGEBRA_FILES = {"fil3": "perfbench/inputs/fil3.json"}

# Variable names the random sweep pool draws from, per catalog algebra.
SWEEP_VARIABLES = {
    "rh2": ("x",),
    "rh4": ("x_1", "x_2", "x_3"),
    "ch2": ("x", "y", "z"),
    "ch3": ("x_1", "x_2", "y_1", "y_2", "z"),
    "ch4": ("x_1", "x_2", "x_3", "y_1", "y_2", "y_3", "z"),
}
SWEEP_NAMED = {
    "rh2": ("x^6",),
    "rh4": ("x_1^2*x_2^2 - x_3^4",),
    "ch2": ("z^4", "x^2*z^2", "x^4"),
    "ch3": ("(x_1^2 + y_1^2)*z^2",),
    "ch4": ("x_1*y_2*z + y_3^3",),
}
# (degree, terms) of each random seed drawn per algebra; degree <= 4.
SWEEP_SLOTS = tuple((d, t) for d in (1, 2, 3, 4) for t in (1, 2, 3))


@dataclass(frozen=True)
class Plan:
    """One round of an in-process workload."""

    algebras: tuple[str, ...]
    seeds: tuple[tuple[str, str], ...]  # (algebra, polynomial seed text)
    ps: tuple[int, ...]
    recurrence: bool
    # Rounds repeat the same operations, so latencies cluster by operation.
    # Each workload's tail percentile is fixed where it falls inside one
    # cluster, or between two of about equal latency, and keeps at least 10
    # samples beyond it in a 25 s run; fixed, so that a faster program,
    # with more samples, is not measured at a higher percentile.
    tail_percentile: float


def random_support(
    rng: random.Random, names: tuple[str, ...], degree: int, terms: int
) -> list[tuple[int, ...]]:
    """Up to `terms` distinct exponent vectors: the first of total degree
    `degree`, the others of any lower degree."""
    support: list[tuple[int, ...]] = []
    for index in range(terms):
        exps = [0] * len(names)
        for _ in range(degree if index == 0 else rng.randint(0, degree)):
            exps[rng.randrange(len(names))] += 1
        if tuple(exps) not in support:
            support.append(tuple(exps))
    return support


def polynomial_text(
    names: tuple[str, ...], support: list[tuple[int, ...]], rng: random.Random
) -> str:
    """The support with small nonzero rational coefficients, as polyharm
    expression text."""
    parts = []
    for exps in sorted(support, reverse=True):
        coeff = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
        factors = [str(abs(coeff))] + [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        ]
        parts.append(f"{'-' if coeff < 0 else '+'} {'*'.join(factors)}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def sweep_seeds(seed: int) -> tuple[tuple[str, str], ...]:
    """Named seeds plus a random pool; texts are unique per algebra.

    The pool has one polynomial per (degree, terms) slot. Which monomials a
    slot holds is fixed; `seed` draws their coefficients. Pools drawn from
    different seeds then build the same trees and cost about the same to
    certify, where random monomials made the cost of a pool vary by a fifth
    from one seed to the next."""
    out = []
    for algebra, names in SWEEP_VARIABLES.items():
        rng = random.Random(f"perfbench-sweep:{seed}:{algebra}")
        texts = list(SWEEP_NAMED[algebra])
        for degree, terms in SWEEP_SLOTS:
            support = random_support(
                random.Random(f"perfbench-support:{algebra}:{degree}:{terms}"),
                names, degree, terms,
            )
            text = polynomial_text(names, support, rng)
            while text in texts:
                text = polynomial_text(names, support, rng)
            texts.append(text)
        out.extend((algebra, text) for text in texts)
    return tuple(out)


def plan(workload: str, seed: int) -> Plan:
    """The round plan of an in-process workload. Only `sweep` draws from the
    seed; the other two are fixed lists chosen for the layer they stress."""
    if workload == "sweep":
        return Plan(
            algebras=tuple(SWEEP_VARIABLES),
            seeds=sweep_seeds(seed),
            ps=(1, 2, 3, 4, 5, 6),
            recurrence=True,
            tail_percentile=95.0,
        )
    if workload == "deep-build":
        return Plan(
            algebras=("ch2", "rh2", "rh3"),
            seeds=(
                ("ch2", "z^8"),
                ("ch2", "z^9"),
                ("rh2", "x^16"),
                ("rh3", "(x1_1^2 + x1_2^2)^6"),
            ),
            ps=(1, 2, 3, 4, 5, 6),
            recurrence=False,
            tail_percentile=90.0,
        )
    if workload == "wide-verify":
        return Plan(
            algebras=("fil3", "ch4", "ch3"),
            seeds=(
                ("fil3", "(x1_1*x1_2 + x2_1 + x3_1)^4"),
                ("ch4", "(x_1*y_2 + z)^4"),
                ("ch3", "(x_1*y_2 + x_2*y_1 + z)^3"),
            ),
            ps=(3, 4, 5, 6),
            recurrence=False,
            tail_percentile=80.0,
        )
    raise ValueError(f"{workload!r} is not an in-process workload")


# --- cli-cold: one polyharm command per fresh interpreter ---

RADIAL_SEED = '{"n1":2,"terms":[{"k":3,"a":"1","b":"2"}],"G":{"c0":"1"}}'
EXPR_FILE = "perfbench/inputs/ch2_z8_psi6.txt"  # psi_6 of z^8 on ch2, as `build` prints it
CLI_ALGEBRAS = ("ch2", "ch3", "ch4", "fil3")
CLI_TAIL_PERCENTILE = 85.0
CLI_GUARD = "build-json"  # the command whose output is re-parsed and certified in-process

CLI_COMMANDS: tuple[dict, ...] = (
    {"name": "validate-json", "command": "validate", "algebra": "fil3"},
    {"name": "tree-text", "command": "tree", "algebra": "ch2", "seed": "z^8",
     "format": "text"},
    {"name": "tree-latex", "command": "tree", "algebra": "fil3",
     "seed": "(x1_1*x1_2+x2_1+x3_1)^4", "format": "latex"},
    {"name": "tree-json", "command": "tree", "algebra": "ch4", "seed": "(x_1*y_2+z)^4",
     "format": "json"},
    {"name": "build-latex", "command": "build", "algebra": "ch2", "seed": "x^2*z^2",
     "kind": "psi", "p": 4, "format": "latex"},
    {"name": "build-json", "command": "build", "algebra": "ch3", "seed": "(x_1*y_2+z)^2",
     "kind": "phi", "p": 3, "format": "json"},
    {"name": "verify-seed", "command": "verify", "algebra": "ch4", "seed": "(x_1*y_2+z)^2",
     "kind": "psi", "p": 4},
    {"name": "verify-radial", "command": "verify", "algebra": "ch2",
     "radial_seed": RADIAL_SEED, "kind": "psi", "p": 4},
    {"name": "verify-expr", "command": "verify", "algebra": "ch2", "expr_file": EXPR_FILE,
     "p": 6},
)


def algebra_arg(name: str) -> str:
    return ALGEBRA_FILES.get(name, name)


def read_expr(root: Path, relpath: str) -> str:
    return (root / relpath).read_text(encoding="utf-8").strip()


def cli_argv(root: Path, cmd: dict) -> list[str]:
    """Arguments after `polyharm` for one cli-cold command."""
    argv = [cmd["command"], "--algebra", algebra_arg(cmd["algebra"])]
    if "seed" in cmd:
        argv += ["--seed", cmd["seed"]]
    if "radial_seed" in cmd:
        argv += ["--radial-seed", cmd["radial_seed"]]
    if "expr_file" in cmd:
        argv += ["--expr", read_expr(root, cmd["expr_file"])]
    if "kind" in cmd:
        argv += ["--kind", cmd["kind"]]
    if "p" in cmd:
        argv += ["--p", str(cmd["p"])]
    if "format" in cmd:
        argv += ["--format", cmd["format"]]
    return argv


WORKLOADS = ("sweep", "deep-build", "wide-verify", "cli-cold")


def algebras(workload: str) -> tuple[str, ...]:
    if workload == "cli-cold":
        return CLI_ALGEBRAS
    return plan(workload, 0).algebras
