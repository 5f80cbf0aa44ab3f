"""Exact symbolic calculus on rank-one graded solvable Lie groups:
structure polynomials, the Laplace-Beltrami operator, tension trees, and
explicit proper p-harmonic functions with exact certification."""

from .algebra import (
    AlgebraSpec,
    BracketEntry,
    VarIndex,
    catalog,
    catalog_short_name,
    from_json_dict,
    load_file,
    validate,
)
from .errors import (
    BadParams,
    BudgetExceeded,
    DuplicateBracket,
    GradingViolation,
    IndexOutOfRange,
    InternalClosureError,
    JacobiViolation,
    NonIncreasingEigenvalues,
    NonPositiveEigenvalue,
    ParseError,
    PolyharmError,
    Resonance,
    UnknownCatalogName,
    UnsupportedSpan,
    ZeroCombination,
)
from .expr import MixedExpr, parse, parse_polynomial
from .laplacian import (
    StructPolyTable,
    bernoulli,
    struct_polys,
    tau,
)
from .pharmonic import (
    HarmonicCertificate,
    NodeSymbolExpr,
    build,
    build_phi,
    build_psi,
    certify_family,
    recurrence_check,
    verify,
    verify_formal,
)
from .poly import Monomial, Polynomial
from .scalar import format_rational, parse_rational
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

__version__ = "0.1.0"
