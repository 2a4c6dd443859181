"""Exact arithmetic for bilinear and quadratic Pfister forms over GF(2)(a1..an).

The package builds the rational function field in characteristic 2,
represents squared-coefficient subspaces through the Frobenius coordinate
map, and uses them to decide anisotropy, isometry and slot membership of
Pfister forms, to extract common factors, and to certify the parity
obstructions that separate quadratic forms and quaternion algebras.
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraMismatch,
    BadRank,
    CompletionNotFound,
    ContextMismatch,
    DivisionByZero,
    EliminationInvariant,
    EmptyInput,
    HypothesisFailed,
    IdentityFailed,
    IsotropicInput,
    NotASquare,
    NotDivisible,
    ParseError,
    PflabError,
    PreconditionFailed,
    ValuationOfZero,
    ZeroSlot,
    ZeroW,
)
from .field import FieldContext, FieldElement, Poly
from .linalg import SqSubspace
from .valuation import ParitySet, dominant_term_hypothesis, parity, parity_sums, val
from .bilinear import (
    BilinearPfister,
    FactorWitness,
    build_no_common_slot_family,
    common_factor,
    common_slot_space,
    factor_out,
    verify_no_common_slot_family,
)
from .quadratic import (
    InsepObstructionCertificate,
    QuadraticPfister,
    build_quadratic_family,
    insep_obstruction,
    necessary_insep_split,
    right_slot_from_value,
    unit_vector,
    verify_quadratic_family,
    zero_parity_diagonal_count,
)
from .quaternion import (
    QuaternionAlgebra,
    QuaternionElement,
    build_quat_triple,
    quat_triple_obstruction,
)

__all__ = [
    "__version__",
    "AlgebraMismatch",
    "BadRank",
    "BilinearPfister",
    "CompletionNotFound",
    "ContextMismatch",
    "DivisionByZero",
    "EliminationInvariant",
    "EmptyInput",
    "FactorWitness",
    "FieldContext",
    "FieldElement",
    "HypothesisFailed",
    "IdentityFailed",
    "InsepObstructionCertificate",
    "IsotropicInput",
    "NotASquare",
    "NotDivisible",
    "ParseError",
    "ParitySet",
    "PflabError",
    "Poly",
    "PreconditionFailed",
    "QuadraticPfister",
    "QuaternionAlgebra",
    "QuaternionElement",
    "SqSubspace",
    "ValuationOfZero",
    "ZeroSlot",
    "ZeroW",
    "build_no_common_slot_family",
    "build_quadratic_family",
    "build_quat_triple",
    "common_factor",
    "common_slot_space",
    "dominant_term_hypothesis",
    "factor_out",
    "insep_obstruction",
    "necessary_insep_split",
    "parity",
    "parity_sums",
    "quat_triple_obstruction",
    "right_slot_from_value",
    "unit_vector",
    "val",
    "verify_no_common_slot_family",
    "verify_quadratic_family",
    "zero_parity_diagonal_count",
]
