"""Finite measured groupoids and their twisted von Neumann algebras.

The package models finite discrete measured groupoids as explicit tables,
realizes their (projective) regular representations as concrete matrices,
and cross-checks the structural factoriality deciders (conjugacy-class
condition, central sets, phase symmetry) against numerical center
computations.

Each public name is imported from its submodule on first access (PEP 562),
so importing one submodule runs only that submodule and what it imports.
A report (``factoroid report``, ``validate``, ``center``, ``icc``,
``twisted-icc``, ``kleppner``) loads ``groupoid``, ``conjugacy``,
``cocycle``, ``textio``, ``vna`` and ``cli``; the instance builders in
``constructors`` load only for ``gen``, ``corpus``, ``globalize`` and
``dr-scan``, and ``basis`` only for ``fourier``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at the package level
_EXPORTS = {
    "groupoid": (
        "Arrow", "BadInverse", "BadUnit", "DanglingReference", "EmptyRestriction",
        "GroupoidError", "MeasuredGroupoid", "NonAssociative", "check_isomorphism",
        "validate_groupoid",
    ),
    "basis": ("Basis", "build_basis", "check_basis", "conjugate_basis", "extend_iso_basis"),
    "conjugacy": (
        "ConjugacyClass", "IccVerdict", "NotErgodic", "NotIsotropy",
        "conjugacy_class", "ergodic_class_decomposition", "is_icc",
    ),
    "cocycle": (
        "CentralSetCertificate", "Cocycle", "CocycleIdentityViolated", "KleppnerVerdict",
        "NotUnitModulus", "RegularityVerdict", "TwistedIccVerdict", "apply_coboundary",
        "central_set_search", "is_omega_regular", "kleppner_holds", "normalize_cocycle",
        "trivial_cocycle", "twisted_icc", "validate_cocycle",
    ),
    "vna": (
        "AsymmetricBasis", "FactorialityReport", "FourierData", "L2Space",
        "MatrixStarAlgebra", "NotInAlgebra", "TranslationAlgebra", "algebra", "center",
        "conditional_expectation", "factoriality_report", "fourier",
        "invariant_subalgebra", "j_map", "l2_space", "multiplication_operator",
        "phi_and_sharp", "subspace_leq", "subspaces_equal",
    ),
    "textio": ("ParseError", "parse_file", "parse_text", "serialize", "write_file"),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
