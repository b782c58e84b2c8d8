"""Finite measured groupoids and their twisted von Neumann algebras.

The package models finite discrete measured groupoids as explicit tables,
realizes their (projective) regular representations as concrete matrices,
and cross-checks the structural factoriality deciders (conjugacy-class
condition, central sets, phase symmetry) against numerical center
computations.
"""

from .groupoid import (
    Arrow,
    BadInverse,
    BadUnit,
    DanglingReference,
    EmptyRestriction,
    GroupoidError,
    MeasuredGroupoid,
    NonAssociative,
    check_isomorphism,
    validate_groupoid,
)
from .basis import Basis, build_basis, check_basis, conjugate_basis, extend_iso_basis
from .conjugacy import (
    ConjugacyClass,
    IccVerdict,
    NonUniformFiber,
    NotErgodic,
    NotIsotropy,
    conjugacy_class,
    ergodic_class_decomposition,
    is_icc,
)
from .cocycle import (
    CentralSetCertificate,
    Cocycle,
    CocycleIdentityViolated,
    KleppnerVerdict,
    NotUnitModulus,
    RegularityVerdict,
    TwistedIccVerdict,
    apply_coboundary,
    central_set_search,
    is_omega_regular,
    kleppner_holds,
    normalize_cocycle,
    trivial_cocycle,
    twisted_icc,
    validate_cocycle,
)
from .vna import (
    AsymmetricBasis,
    FactorialityReport,
    FourierData,
    L2Space,
    MatrixStarAlgebra,
    NotInAlgebra,
    TranslationAlgebra,
    algebra,
    center,
    conditional_expectation,
    factoriality_report,
    fourier,
    invariant_subalgebra,
    j_map,
    l2_space,
    multiplication_operator,
    phi_and_sharp,
    subspace_leq,
    subspaces_equal,
)
from .textio import ParseError, parse_file, parse_text, serialize, write_file

__version__ = "0.1.0"
