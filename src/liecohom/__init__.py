"""Exact Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras.

Everything is computed over the rationals with exact arithmetic: Lie
algebras by structure constants, their modules, cochain complexes and
cohomology, derivation algebras, invariant subcomplexes under a
semisimple subalgebra, central extensions, and a Hochschild-Serre
dimension cross-check.
"""

__version__ = "0.1.0"

from .exact_linalg import SparseMatrix, Subspace, kernel_basis, rank_dense
from .lie_core import LieAlgebra, JacobiViolation, NotAnIdeal, NotASubalgebra
from .representations import Representation, trivial_rep, adjoint_rep
from .cochain import CochainSpace, CohomologyResult, cohomology, differential
from .invariants import InvariantSetup, invariant_cohomology
from .factorization import ExtensionInput, NotACocycle, central_extension, hs_crosscheck

__all__ = [
    "SparseMatrix",
    "Subspace",
    "kernel_basis",
    "rank_dense",
    "LieAlgebra",
    "JacobiViolation",
    "NotAnIdeal",
    "NotASubalgebra",
    "Representation",
    "trivial_rep",
    "adjoint_rep",
    "CochainSpace",
    "CohomologyResult",
    "cohomology",
    "differential",
    "InvariantSetup",
    "invariant_cohomology",
    "ExtensionInput",
    "NotACocycle",
    "central_extension",
    "hs_crosscheck",
]
