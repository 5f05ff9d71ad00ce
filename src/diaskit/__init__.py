"""Exact-arithmetic workbench for finite-dimensional diassociative algebras.

A diassociative algebra (dialgebra) carries two associative products,
written ``vdash`` (left action absorbed) and ``dashv`` (right action
absorbed), tied together by three compatibility axioms.  Everything in
this package computes over the rationals with :class:`fractions.Fraction`
entries, so results are exact: kernels, invariant subspaces, and the
operator identities that characterise derivations and diderivations.

Modules
-------
ratlin
    Exact rational linear algebra: matrices and one sparse elimination
    core behind RREF, kernels, determinants and subspaces.
core
    The ``Dialgebra`` structure-constant container, axiom checking,
    multiplication operators, and the text file format.
spaces
    Derivation and diderivation solvers plus the operator-commutator
    cross-checks and Lie-closure reports.
invariants
    Annihilator, bar-center, halo, the associated Leibniz bracket, and
    the combined derivation/diderivation bracket.
poly
    The one sparse exact polynomial type, in several variables: ring
    operations, renaming variables, the degree in one variable, an
    optional total-degree bound, and a division-free determinant of
    polynomial entries.
catalog
    Built-in low-dimensional dialgebra classes with reference dimension
    tables and the parametric family ``Dias3_16`` branch analysis.
kxy
    The dialgebra of polynomials in two variables with evaluation
    products, on ``poly`` polynomials under a degree bound, exact.
cli
    Command line entry points; ``diaskit --help`` lists them.
"""

from .core import Dialgebra, DialgebraError, parse_dialgebra, serialize_dialgebra
from .ratlin import Matrix, Subspace

__all__ = [
    "Dialgebra",
    "DialgebraError",
    "Matrix",
    "Subspace",
    "parse_dialgebra",
    "serialize_dialgebra",
]

__version__ = "0.1.0"
