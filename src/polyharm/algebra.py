"""Rank-one graded solvable Lie algebra specifications.

An algebra is given in a diagonalized basis: eigenvalues 0 < lambda_1 < ... <
lambda_m of the grading derivation, eigenspace dimensions n_1..n_m, and sparse
structure constants

    A^{ik alpha}_{j l beta} = <[X^i_j, X^k_l], X^alpha_beta>.

Only one orientation of each bracket pair is stored ((i,j) lexicographically
before (k,l)); the antisymmetric mirror is synthesized on lookup.  Validation
enforces the eigenvalue ordering, the grading rule lambda_alpha = lambda_i +
lambda_k on every stored constant, and the Jacobi identity on every basis
triple that holds a bracketed pair (the others satisfy it trivially); an
algebra past the dimension budget `_DIMENSION_BUDGET` is refused before its
brackets are checked.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadParams,
    BudgetExceeded,
    DuplicateBracket,
    GradingViolation,
    IndexOutOfRange,
    JacobiViolation,
    NonIncreasingEigenvalues,
    NonPositiveEigenvalue,
    ParseError,
    UnknownCatalogName,
)
from .scalar import _acc, format_rational, int_field, parse_rational


class VarIndex(NamedTuple):
    """Index (layer, slot) of a basis vector X^layer_slot / coordinate x^layer_slot."""

    layer: int
    slot: int

    def __str__(self) -> str:
        return f"x{self.layer}_{self.slot}"


class BracketEntry(NamedTuple):
    """One stored structure constant <[X^i_j, X^k_l], X^alpha_beta> = c."""

    i: int
    j: int
    k: int
    l: int
    alpha: int
    beta: int
    c: Fraction


class Record:
    """An immutable record whose instance dict may also hold cached state.

    The constructor sets the `_fields`; they alone are compared, hashed,
    shown and pickled, so a copy or pickle leaves the cached state behind
    (cached properties rebuild it on use).  Assigning to any attribute
    raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple(fields[name] for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __getstate__(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"


class AlgebraSpec(Record):
    """A validated algebra.  Immutable; safe for concurrent reads.  Its
    cached lookups and tables (`laplacian.tables_of`) are left out of
    equality, copies and pickles."""

    _fields = ("name", "m", "lambdas", "dims", "brackets", "homogeneous_dim", "aliases")

    def __init__(
        self,
        name: str,
        m: int,
        lambdas: tuple[Fraction, ...],
        dims: tuple[int, ...],
        brackets: tuple[BracketEntry, ...],
        homogeneous_dim: Fraction,
        aliases: tuple[tuple[str, VarIndex], ...] = (),
    ) -> None:
        self.__dict__.update(
            name=name, m=m, lambdas=lambdas, dims=dims, brackets=brackets,
            homogeneous_dim=homogeneous_dim, aliases=aliases,
        )

    # --- index helpers ---

    def lam(self, layer: int) -> Fraction:
        return self.lambdas[layer - 1]

    def dim(self, layer: int) -> int:
        return self.dims[layer - 1]

    def variables(self) -> list[VarIndex]:
        return [
            VarIndex(i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.dims[i - 1] + 1)
        ]

    def check_index(self, v: VarIndex) -> None:
        if not (1 <= v.layer <= self.m and 1 <= v.slot <= self.dims[v.layer - 1]):
            raise IndexOutOfRange(f"{v} out of range for algebra {self.name!r}")

    @cached_property
    def integer_eigenvalues(self) -> tuple[int, tuple[int, ...], int]:
        """(scale, lambda_k * scale per layer, n * scale), scale the lcm of
        the eigenvalue denominators."""
        scale = lcm(*(lam.denominator for lam in self.lambdas))
        n = self.homogeneous_dim
        return scale, tuple(
            lam.numerator * (scale // lam.denominator) for lam in self.lambdas
        ), n.numerator * (scale // n.denominator)

    # --- bracket lookup (antisymmetry-completed) ---

    @cached_property
    def _pair_map(self) -> dict[tuple[VarIndex, VarIndex], dict[VarIndex, Fraction]]:
        table: dict[tuple[VarIndex, VarIndex], dict[VarIndex, Fraction]] = {}
        for e in self.brackets:
            u, v, w = VarIndex(e.i, e.j), VarIndex(e.k, e.l), VarIndex(e.alpha, e.beta)
            table.setdefault((u, v), {})[w] = e.c
            table.setdefault((v, u), {})[w] = -e.c
        return table

    def bracket(self, u: VarIndex, v: VarIndex) -> dict[VarIndex, Fraction]:
        """[X_u, X_v] expanded in the basis, as a sparse map."""
        return self._pair_map.get((u, v), {})

    # --- naming ---

    @cached_property
    def alias_to_var(self) -> dict[str, VarIndex]:
        return {name: v for name, v in self.aliases}

    @cached_property
    def var_to_alias(self) -> dict[VarIndex, str]:
        return {v: name for name, v in self.aliases}

    def var_name(self, v: VarIndex) -> str:
        if v in self.var_to_alias:
            return self.var_to_alias[v]
        return str(v)


# The largest total dimension sum(dims) validation accepts: the Jacobi check is
# cubic in the dimension when most pairs bracket, and a catalog label like
# ch99999999999 would make 10^11 bracket entries first.
_DIMENSION_BUDGET = 256


def _check_dimension(dims: Sequence[int]) -> None:
    total = sum(dims)
    if total > _DIMENSION_BUDGET:
        raise BudgetExceeded(
            f"the algebra has dimension {total}; the dimension budget is {_DIMENSION_BUDGET}"
        )


def _canonical_entries(
    raw: Iterable[tuple[tuple[int, int, int, int, int, int], Fraction]],
    m: int,
    dims: Sequence[int],
) -> tuple[BracketEntry, ...]:
    """Orient, deduplicate and bound-check raw bracket data."""
    seen: dict[tuple[tuple[int, int], tuple[int, int]], tuple] = {}
    out: list[BracketEntry] = []
    for (i, j, k, l, alpha, beta), c in raw:
        for layer, slot in ((i, j), (k, l), (alpha, beta)):
            if not (1 <= layer <= m and 1 <= slot <= dims[layer - 1]):
                raise IndexOutOfRange(
                    f"bracket entry ({i},{j},{k},{l},{alpha},{beta}) references x{layer}_{slot}"
                )
        if c == 0:
            raise BadParams(f"bracket entry ({i},{j},{k},{l},{alpha},{beta}) has zero constant")
        if (i, j) == (k, l):
            raise DuplicateBracket(
                f"bracket of x{i}_{j} with itself must vanish (antisymmetry)"
            )
        if (i, j) > (k, l):
            i, j, k, l, c = k, l, i, j, -c
        pair = ((i, j), (k, l))
        key = (pair, (alpha, beta))
        if key in seen:
            raise DuplicateBracket(
                f"both orientations / duplicate data for [x{i}_{j}, x{k}_{l}] -> x{alpha}_{beta}"
            )
        seen[key] = key
        out.append(BracketEntry(i, j, k, l, alpha, beta, c))
    out.sort()
    return tuple(out)


def validate(
    name: str,
    lambdas: Sequence[Fraction],
    dims: Sequence[int],
    brackets: Iterable[tuple[tuple[int, int, int, int, int, int], Fraction]] = (),
    aliases: Sequence[tuple[str, VarIndex]] = (),
) -> AlgebraSpec:
    """Check every structural invariant and return the immutable spec.

    Raises NonPositiveEigenvalue, NonIncreasingEigenvalues, GradingViolation,
    JacobiViolation, IndexOutOfRange, DuplicateBracket, BadParams or
    BudgetExceeded.
    """
    m = len(lambdas)
    if m == 0:
        raise BadParams("at least one eigenvalue layer is required")
    if len(dims) != m:
        raise BadParams(f"{m} eigenvalues but {len(dims)} dimensions")
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in dims):
        raise BadParams(f"eigenspace dimensions must be positive integers: {dims}")
    _check_dimension(dims)
    lambdas = tuple(Fraction(q) for q in lambdas)
    for q in lambdas:
        if q <= 0:
            raise NonPositiveEigenvalue(f"eigenvalue {format_rational(q)} is not positive")
    for a, b in zip(lambdas, lambdas[1:]):
        if not a < b:
            raise NonIncreasingEigenvalues(
                f"eigenvalues must be strictly increasing, got {format_rational(a)} "
                f"then {format_rational(b)}"
            )

    entries = _canonical_entries(brackets, m, dims)
    for e in entries:
        expected = lambdas[e.i - 1] + lambdas[e.k - 1]
        actual = lambdas[e.alpha - 1]
        if actual != expected:
            raise GradingViolation(
                f"entry ({e.i},{e.j},{e.k},{e.l},{e.alpha},{e.beta}): "
                f"lambda_{e.i}+lambda_{e.k} = {format_rational(expected)} but "
                f"lambda_{e.alpha} = {format_rational(actual)}"
            )

    spec = AlgebraSpec(
        name=name,
        m=m,
        lambdas=lambdas,
        dims=tuple(dims),
        brackets=entries,
        homogeneous_dim=sum(
            (Fraction(n) * q for n, q in zip(dims, lambdas)), Fraction(0)
        ),
        aliases=tuple(aliases),
    )
    _check_jacobi(spec)
    return spec


def _check_jacobi(spec: AlgebraSpec) -> None:
    """JacobiViolation naming the least basis triple u < v < w with a nonzero
    cyclic sum; only triples holding a bracketed pair can have one, so only
    those are scanned, in order."""
    pairs = {(VarIndex(e.i, e.j), VarIndex(e.k, e.l)) for e in spec.brackets}
    triples = sorted({
        tuple(sorted((u, v, w))) for u, v in pairs for w in spec.variables() if w not in (u, v)
    })
    for u, v, w in triples:
        acc: dict[VarIndex, Fraction] = {}
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            for mid, c_mid in spec.bracket(x, y).items():
                for target, c_t in spec.bracket(mid, z).items():
                    _acc(acc, target, c_mid * c_t)
        if acc:
            raise JacobiViolation(f"Jacobi identity fails on triple ({u}, {v}, {w})")


# --- built-in catalog ---

# Each catalog family checks its dimension before it lists a bracket.

def _real_hyperbolic(n: int) -> AlgebraSpec:
    _check_dimension([n])
    aliases: list[tuple[str, VarIndex]] = [(f"x_{j}", VarIndex(1, j)) for j in range(1, n + 1)]
    if n == 1:
        aliases.append(("x", VarIndex(1, 1)))
    return validate(f"rh{n + 1}", [Fraction(1)], [n], (), aliases)


def _complex_hyperbolic(n: int) -> AlgebraSpec:
    _check_dimension([2 * n, 1])
    brackets = [((1, i, 1, n + i, 2, 1), Fraction(1)) for i in range(1, n + 1)]
    if n == 1:
        aliases = [("x", VarIndex(1, 1)), ("y", VarIndex(1, 2)), ("z", VarIndex(2, 1))]
    else:
        aliases = [(f"x_{i}", VarIndex(1, i)) for i in range(1, n + 1)]
        aliases += [(f"y_{i}", VarIndex(1, n + i)) for i in range(1, n + 1)]
        aliases += [("z", VarIndex(2, 1))]
    return validate(
        f"ch{n + 1}", [Fraction(1, 2), Fraction(1)], [2 * n, 1], brackets, aliases
    )


CATALOG = {
    "real-hyperbolic": (
        _real_hyperbolic,
        "real hyperbolic space of dimension n+1 (abelian nilradical R^n)",
    ),
    "complex-hyperbolic": (
        _complex_hyperbolic,
        "complex hyperbolic space of complex dimension n+1 (Heisenberg nilradical H^(2n+1))",
    ),
}


def catalog(name: str, params: Sequence[int]) -> AlgebraSpec:
    """Build a named model algebra; params = [n] with n >= 1."""
    if name not in CATALOG:
        raise UnknownCatalogName(
            f"unknown catalog algebra {name!r}; known: {sorted(CATALOG)}"
        )
    if (
        len(params) != 1
        or isinstance(params[0], bool)
        or not isinstance(params[0], int)
        or params[0] < 1
    ):
        raise BadParams(f"{name} expects a single integer parameter n >= 1, got {params!r}")
    return CATALOG[name][0](params[0])


def catalog_short_name(short: str) -> AlgebraSpec:
    """Resolve shorthand like "rh2" / "ch3" (total dimension labels) to a spec."""
    short = short.strip().lower()
    for prefix, long_name in (("rh", "real-hyperbolic"), ("ch", "complex-hyperbolic")):
        if short.startswith(prefix) and short[len(prefix):].isdigit():
            total = int(short[len(prefix):])
            if total < 2:
                raise BadParams(f"{short!r}: dimension label must be >= 2")
            return catalog(long_name, [total - 1])
    raise UnknownCatalogName(
        f"unknown algebra shorthand {short!r}; use rhN / chN or a JSON file path"
    )


# --- JSON interface ---

def from_json_dict(obj: Mapping) -> AlgebraSpec:
    """Validate the JSON algebra format (rationals as decimal-free strings,
    dims and bracket indices as integers read by `int_field`)."""
    if not isinstance(obj, Mapping):
        raise ParseError("algebra JSON must be an object")
    try:
        name = obj["name"]
        raw_lambdas = obj["lambdas"]
        raw_dims = obj["dims"]
    except KeyError as exc:
        raise ParseError(f"algebra JSON is missing key {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if not isinstance(raw_lambdas, list) or not raw_lambdas:
        raise ParseError("'lambdas' must be a non-empty list of rational strings")
    if not isinstance(raw_dims, list):
        raise ParseError("'dims' must be a list of positive integers")
    lambdas = [parse_rational(s) for s in raw_lambdas]
    try:
        dims = [int_field(raw_dims, i) for i in range(len(raw_dims))]
    except ParseError:
        raise ParseError(f"'dims' must be a list of positive integers, got {raw_dims!r}") from None
    raw_brackets = obj.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise ParseError(
            f"'brackets' must be a list of bracket entries, got {type(raw_brackets).__name__}"
        )
    brackets = []
    for entry in raw_brackets:
        if not isinstance(entry, Mapping):
            raise ParseError("each bracket entry must be an object")
        try:
            idx = tuple(int_field(entry, key) for key in ("i", "j", "k", "l", "alpha", "beta"))
            c = parse_rational(entry["c"])
        except KeyError as exc:
            raise ParseError(f"bracket entry is missing key {exc.args[0]!r}") from None
        brackets.append((idx, c))
    return validate(name, lambdas, dims, brackets)


def load_file(path: str) -> AlgebraSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past the digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None
    return from_json_dict(obj)
