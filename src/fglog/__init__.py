"""Exact-arithmetic kernel for formal group laws over graded connected
Hopf algebras: axiom verification, invariant differential and logarithm,
cobar 2-cocycle extraction and the reconstruction of the group law from
its cocycle."""

from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    AxiomViolation,
    CocycleViolation,
    DegreeOverflow,
    FglError,
    MathViolation,
    NoInverse,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    NonZeroConstantTerm,
    NotAugmented,
    ParseError,
    ResidualNonConstant,
    ShapeMismatch,
    SpecError,
    TruncationInsufficient,
)
from .hopf import (
    BUILTIN_ALGEBRAS,
    HopfAlgebra,
    HopfElement,
    TensorElement,
    algebra_description,
    build_hopf_algebra,
    builtin_algebra,
    verify_hopf_axioms,
)
from .fgl import (
    additive_law,
    associativity_defect,
    check_axioms,
    check_cocycle,
    check_log,
    coboundary,
    cocycle_defect,
    extract_cocycle,
    invariant_differential,
    inverse_series,
    lemma_law,
    logarithm,
    reconstruct,
    specialize,
    strict_grading_defect,
    symmetry_defect,
    unit_defects,
)
from .report import Report, Violation
from .scalars import Q, format_rational, parse_rational, rational
from .series import INF, Series

__version__ = "0.1.0"

# Scalars are always fractions.Fraction. The flag of the former optional
# gmpy2 backend stays, always False, for code that reports the backend.
HAVE_GMPY2 = False

__all__ = [name for name in dir() if not name.startswith("_")]
