"""Shared fixtures: catalog algebras and deterministic random generators."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polyharm import MixedExpr, Polynomial, catalog

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="session")
def rh2():
    return catalog("real-hyperbolic", [1])


@pytest.fixture(scope="session")
def rh3():
    return catalog("real-hyperbolic", [2])


@pytest.fixture(scope="session")
def rh4():
    return catalog("real-hyperbolic", [3])


@pytest.fixture(scope="session")
def ch2():
    return catalog("complex-hyperbolic", [1])


@pytest.fixture(scope="session")
def ch3():
    return catalog("complex-hyperbolic", [2])


def load_script(name: str):
    """The module of scripts/<name>.py, loaded from its file."""
    loader = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


SWEEP = load_script("certification_sweep")


def random_polynomial(
    spec,
    rng: random.Random,
    max_degree: int = 4,
    max_terms: int = 4,
    layers: set[int] | None = None,
) -> Polynomial:
    """The sweep script's random polynomial over the algebra's coordinates,
    or over those of `layers` when given; never zero."""
    variables = [v for v in spec.variables() if layers is None or v.layer in layers]
    return SWEEP.random_polynomial(variables, rng, max_degree, max_terms)


def random_mixed_expr(spec, rng: random.Random, max_degree: int = 3) -> MixedExpr:
    """Random member of the closed class with half-integer t-powers and logs."""
    out = MixedExpr.zero()
    for _ in range(rng.randint(1, 3)):
        poly = random_polynomial(spec, rng, max_degree=max_degree, max_terms=3)
        mu = Fraction(rng.randint(-2, 4), rng.choice((1, 2)))
        logpow = rng.randint(0, 2)
        out = out + MixedExpr.from_polynomial(poly, mu=mu, logpow=logpow)
    if out.is_zero():
        return MixedExpr.one()
    return out
