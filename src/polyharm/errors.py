"""Exception hierarchy.

Every domain error raised by this package derives from PolyharmError, so the
CLI can map them to exit code 1 and report the concrete class name.
"""

from __future__ import annotations


class PolyharmError(Exception):
    """Base class for all domain errors."""

    @property
    def error_name(self) -> str:
        return type(self).__name__


# --- algebra validation ---

class NonPositiveEigenvalue(PolyharmError):
    pass


class NonIncreasingEigenvalues(PolyharmError):
    pass


class GradingViolation(PolyharmError):
    pass


class JacobiViolation(PolyharmError):
    pass


class IndexOutOfRange(PolyharmError):
    pass


class DuplicateBracket(PolyharmError):
    """Both orientations (or a repeat) of the same bracket pair were supplied."""


class UnknownCatalogName(PolyharmError):
    pass


class BadParams(PolyharmError):
    pass


# --- polynomial / expression layer ---

class ParseError(PolyharmError):
    """Syntax error in an expression or seed description.

    `position` is a 0-based offset into the input text when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# --- operator / tension layer ---

class InternalClosureError(PolyharmError):
    """A tension tree left its expected shape: a term of the kernel's image of
    a node has an exponent id that is not that of some t^(2*lambda_k), or a
    log power, or a node lies past the seed's depth bound.  Indicates an
    operator bug, never user error."""


class UnsupportedSpan(PolyharmError):
    """A radial function falls outside the admissible power/log span."""


class BudgetExceeded(PolyharmError):
    """An input asks for more work or output than a budget allows, and is
    refused before the work is done:

    - dimension: an algebra whose total dimension passes
      `algebra._DIMENSION_BUDGET`, refused before its brackets are listed or
      its Jacobi identity scanned;
    - depth: a seed's tension tree may be deeper than `tension._DEPTH_BUDGET`
      levels, refused before any level is expanded;
    - order: an order p past `pharmonic._P_BUDGET`, refused before a row is
      made or the operator applied;
    - term: a power of a sum that may expand past `expr._TERM_BUDGET` terms;
    - view: a tree whose multi-index view would list more than
      `tension._VIEW_BUDGET` nodes (its states still build and certify);
    - coefficient: a power of a constant past `expr._BIT_BUDGET` bits, a
      power of a sum whose term bound times the bits of its longest
      coefficient's power passes 100 times that, or a coefficient with more
      digits than the interpreter prints (`scalar.format_rational`)."""


# --- construction / certification layer ---

class Resonance(PolyharmError):
    """2*Lambda^k = n on a branch with a nonzero node: the log-family coefficient
    is undefined there.  Callers should fall back to the t^n-family."""

    def __init__(self, alpha: tuple[int, ...], k: int):
        super().__init__(
            f"branch {alpha}: 2*Lambda^{k} equals the homogeneous dimension; "
            "the log-family function is undefined (use the t^n family)"
        )
        self.alpha = alpha
        self.k = k


class ZeroCombination(PolyharmError):
    pass
