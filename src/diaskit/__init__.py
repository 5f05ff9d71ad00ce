"""Exact-arithmetic workbench for finite-dimensional diassociative algebras.

A diassociative algebra (dialgebra) carries two associative products,
written ``vdash`` (left action absorbed) and ``dashv`` (right action
absorbed), tied together by three compatibility axioms.  Everything in
this package computes over the rationals with :class:`fractions.Fraction`
entries, so results are exact: kernels, invariant subspaces, and the
operator identities that characterise derivations and diderivations.

Modules
-------
base
    The exact-scalar grammar (``parse_rational``, ``frac``,
    ``int_or_fraction``) and the rule tables ``PRODUCTS``,
    ``AXIOM_NAMES`` and ``RULES``, standard library only.
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
entries
    The published table of two- and three-dimensional dialgebra classes,
    their relation lists, and ``instantiate``, which builds one.
catalog
    The tabled diderivation bases, the check of every entry against the
    solver, and the case analysis of the parametric family ``Dias3_16``.
kxy
    The dialgebra of polynomials in two variables with evaluation
    products, on ``poly`` polynomials under a degree bound, exact.
cli
    Command line entry points; ``diaskit --help`` lists them.

Importing the package loads none of them.  Each name of ``__all__``
loads its module on first use (``Matrix`` and ``Subspace`` from
``ratlin``, the rest from ``core``), so a command that never reads a
dialgebra, such as ``diaskit kxy``, compiles neither.
"""

__all__ = [
    "Dialgebra",
    "DialgebraError",
    "Matrix",
    "Subspace",
    "parse_dialgebra",
    "serialize_dialgebra",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The ``__all__`` name ``name``, imported from its module on first use
    and kept in the package namespace after that."""
    if name in ("Matrix", "Subspace"):
        from . import ratlin as home
    elif name in __all__:
        from . import core as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
