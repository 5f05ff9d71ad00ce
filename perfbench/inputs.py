"""Seeded input generators for the benchmark workloads.

Everything here is plain data (integers, ``Fraction``s, nested lists) built
from the workload seed alone; nothing imports diaskit.  The workloads hand
these values to diaskit's public constructors, so the program under test
receives only the generated inputs.

Choices that would change how much work an input costs (which catalog
entries a direct sum uses, how many terms a polynomial has, whether a
weight is zero) are fixed; the seed picks values and orderings.  That keeps
the cost of one workload nearly the same for every seed, so run-to-run
spread measures the program and the machine rather than the inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

Cube = list[list[list[Fraction]]]
# (dim, vdash cube, dashv cube), indexed [i][j][k] for e_i * e_j -> coefficient of e_k.
Structure = tuple[int, Cube, Cube]

WEIGHTS = (-3, -2, -1, 1, 2, 3)

# Three-dimensional catalog entries whose diderivation space is nonzero;
# the direct sums are built from these so that diderivation elimination
# runs on a nonzero kernel at dimensions 9 and 12.
SUM3_PARTS = ("Dias3_10", "Dias3_13", "Dias3_16")
SUM4_PARTS = ("Dias3_10", "Dias3_13", "Dias3_14", "Dias3_16")

CATALOG_PARAM_NAMES = {
    "Dias2_3": ("lam",),
    "Dias3_16": ("k", "m", "n", "p", "q"),
    "Dias3_17": ("l", "m", "n", "p", "q"),
}


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, so adding one draw elsewhere
    does not shift the others."""
    return random.Random(f"perfbench:{purpose}:{seed}")


def phi_weights(seed: int, n: int) -> list[int]:
    """Weights of the functional phi on Q^n: every weight nonzero.

    Zero weights make the rule system sparser and cheaper, so they are
    excluded to keep cost independent of the seed (the closed forms
    Der = n^2 - n and Dider = 0 hold for any nonzero functional).
    """
    rng = rng_for(seed, f"phi{n}")
    return [rng.choice(WEIGHTS) for _ in range(n)]


# Kernel dimensions (Der, Dider) at a generic point of each parametric
# entry.  About a third of random points lie on a special locus with larger
# kernels, which enlarges the combined-bracket basis b and bider's b^3 work;
# the workloads keep only generic points so cost does not depend on the seed.
GENERIC_DIMS = {"Dias2_3": (2, 1), "Dias3_16": (3, 2), "Dias3_17": (3, 2)}


def catalog_points(seed: int, name: str) -> Iterator[dict[str, Fraction]]:
    """Seeded candidate parameter points for a parametric catalog entry.

    ``m`` is kept nonzero for the five-parameter families so every point
    lies on the case table's ``m != 0`` side.
    """
    rng = rng_for(seed, f"point:{name}")
    while True:
        if name == "Dias2_3":
            yield {"lam": Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
            continue
        values = {key: Fraction(rng.randint(-3, 3)) for key in CATALOG_PARAM_NAMES[name]}
        values["m"] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        yield values


def selector(name: str, params: dict[str, Fraction] | None) -> str:
    """The CLI selector ``catalog:<Name>?k=v,...`` for a catalog point."""
    if not params:
        return f"catalog:{name}"
    query = ",".join(f"{k}={v}" for k, v in params.items())
    return f"catalog:{name}?{query}"


def summand_order(seed: int, parts: tuple[str, ...]) -> list[str]:
    """A seeded ordering of the direct-sum summands."""
    order = list(parts)
    rng_for(seed, f"sum{len(parts)}").shuffle(order)
    return order


def direct_sum(parts: list[Structure]) -> Structure:
    """Block structure constants of A_1 + ... + A_k.

    Products are taken inside each summand; a product of elements from
    different summands is zero.  The result is a dialgebra whenever every
    summand is one, and its dimension is the sum of theirs.
    """
    n = sum(dim for dim, _v, _d in parts)
    vd = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    dv = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for dim, pv, pd in parts:
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    vd[off + i][off + j][off + k] = Fraction(pv[i][j][k])
                    dv[off + i][off + j][off + k] = Fraction(pd[i][j][k])
        off += dim
    return n, vd, dv


def phi_structure(weights: list[int]) -> Structure:
    """Structure constants of the phi dialgebra, written from its definition
    ``e_i |- e_j = phi_i e_j`` and ``e_i -| e_j = phi_j e_i``.  Used by the
    independent checks; the workloads build phi through diaskit."""
    n = len(weights)
    vd = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    dv = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            vd[i][j][j] += weights[i]
            dv[i][j][i] += weights[j]
    return n, vd, dv


def kxy_terms(seed: int) -> dict[str, dict[tuple[int, int], Fraction]]:
    """Seeded coefficient maps ``{(deg_x, deg_y): c}`` for the closed-form
    operators.

    ``der_f`` is f = a0 + a1 x + a2 x^2 (univariate, as the derivation form
    requires), ``der_g`` is g = b0 + b1 x + b2 y, and ``dider_f`` is
    f = c0 + c1 x + c2 y for the diderivation form with f = g.  Every
    coefficient is nonzero and the term sets are fixed, so the number of
    monomial pairs checked does not depend on the seed.
    """
    rng = rng_for(seed, "kxy")
    shapes = {
        "der_f": ((0, 0), (1, 0), (2, 0)),
        "der_g": ((0, 0), (1, 0), (0, 1)),
        "dider_f": ((0, 0), (1, 0), (0, 1)),
    }
    return {key: {e: Fraction(rng.choice(WEIGHTS), rng.randint(1, 2)) for e in exps}
            for key, exps in shapes.items()}


def cli_catalog_seed(seed: int) -> int:
    """The ``catalog --seed`` value for the CLI session."""
    return rng_for(seed, "catalog").randrange(1000)
