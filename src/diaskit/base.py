"""Exact scalars and the rule tables, the names every layer shares.

An exact scalar is an ``int``, a :class:`fractions.Fraction` or a string
in the grammar of ``parse_rational``: an optional ``-``, digits, and an
optional ``/`` with a nonzero denominator, at most ``MAX_RATIONAL_DIGITS``
digits in all.  ``frac`` reads any of them as a ``Fraction``, and
``int_or_fraction`` as sparse rows and polynomials store it, an ``int``
when integral.  ``PRODUCTS`` names the two products, ``AXIOM_NAMES`` the
five axioms in the order ``core`` checks them, and ``RULES`` the
Leibniz-type rules of derivations and diderivations.

``ratlin`` and ``core`` re-export these names.  They live here, standard
library only, so that ``poly`` and ``kxy`` load without the linear
algebra and the dialgebra container: where bytecode is not written, every
start compiles each module it loads.
"""

from __future__ import annotations

import re
from fractions import Fraction

Scalar = int | str | Fraction
Exact = int | Fraction

# Most digits of a rational in the input, numerator and denominator
# together: a short text such as 1e2000000 must not become a huge number.
MAX_RATIONAL_DIGITS = 40
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """An integer or a fraction such as ``-2/3``: an optional ``-``, digits,
    and an optional ``/`` with a nonzero denominator, at most
    ``MAX_RATIONAL_DIGITS`` digits in all.  Anything else raises
    ``ValueError`` before a ``Fraction`` is built."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError("expected an integer or a fraction like -2/3")
    num, den = match.group(1, 2)
    if len(num.lstrip("-")) + len(den or "") > MAX_RATIONAL_DIGITS:
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits")
    if den is not None and not den.strip("0"):
        raise ValueError("zero denominator")
    return Fraction(int(num), int(den or 1))


def frac(x: Scalar) -> Fraction:
    """Coerce ints, Fractions and strings in the ``parse_rational`` grammar
    to Fraction.  Anything else, a float included, is not an exact input
    and raises ``TypeError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"expected an int, a Fraction or a string, not {type(x).__name__}")


def int_or_fraction(x: Scalar) -> Exact:
    """An exact scalar as sparse rows store it: an ``int`` when it is
    integral, else a ``Fraction``.  Other inputs are read as by ``frac``."""
    if type(x) is int:
        return x
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


PRODUCTS = ("dashv", "vdash")

AXIOM_NAMES = (
    "assoc_dashv",
    "absorb_dashv",
    "inner",
    "absorb_vdash",
    "assoc_vdash",
)

# The Leibniz-type rules ``T(a * b) = T(a) o1 b + a o2 T(b)``, one
# ``(*, o1, o2)`` per product ``*``.  Every solver and evaluator of a rule
# reads its products from here.
RULES = {
    "der": (("dashv", "dashv", "dashv"), ("vdash", "vdash", "vdash")),
    "dider": (("dashv", "dashv", "vdash"), ("vdash", "dashv", "vdash")),
}
