"""Independent checks on the answers diaskit returns.

Nothing here imports diaskit or reuses its algorithms.  The checks take
the structure constants as plain data and a returned kernel basis as
rows of rationals, and establish three facts:

* every basis element satisfies the defining identity, evaluated by this
  module's own loop over basis pairs;
* the basis is in reduced row echelon form, hence linearly independent;
* the basis spans the whole kernel: its size equals the number of
  unknowns minus the rank of the rule system computed modulo a large
  prime.  Rank mod p never exceeds the rank over Q, so a match proves
  completeness; an unlucky prime could only cause a false alarm.

A rule system row for product ``*`` and basis pair (i, j) reads, for the
unknown matrix T (column j holds T(e_j), unknown T[a][b] at a*n + b):

    T(e_i * e_j) = T(e_i) *' e_j + e_i *'' T(e_j)

with ``*' = *'' = *`` for derivations and ``*' = dashv``, ``*'' = vdash``
for diderivations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

PRIME = (1 << 61) - 1

Sparse = dict[int, Fraction]


def _sparse_cube(cube) -> dict[tuple[int, int], Sparse]:
    out = {}
    for i, plane in enumerate(cube):
        for j, entries in enumerate(plane):
            terms = {k: Fraction(c) for k, c in enumerate(entries) if c}
            if terms:
                out[(i, j)] = terms
    return out


def _mul(cube: dict[tuple[int, int], Sparse], u: Sparse, v: Sparse) -> Sparse:
    out: Sparse = {}
    for i, ui in u.items():
        for j, vj in v.items():
            for k, c in cube.get((i, j), {}).items():
                out[k] = out.get(k, 0) + ui * vj * c
    return {k: c for k, c in out.items() if c}


def _add(u: Sparse, v: Sparse) -> Sparse:
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def axiom_violations(n: int, vdash, dashv) -> int:
    """Number of (axiom, basis triple) pairs where one of the five
    dialgebra axioms fails."""
    v, d = _sparse_cube(vdash), _sparse_cube(dashv)
    e = [{i: Fraction(1)} for i in range(n)]
    bad = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e[i], e[j], e[k]
                sides = (
                    (_mul(d, _mul(d, x, y), z), _mul(d, x, _mul(d, y, z))),
                    (_mul(d, x, _mul(d, y, z)), _mul(d, x, _mul(v, y, z))),
                    (_mul(d, _mul(v, x, y), z), _mul(v, x, _mul(d, y, z))),
                    (_mul(v, _mul(d, x, y), z), _mul(v, _mul(v, x, y), z)),
                    (_mul(v, _mul(v, x, y), z), _mul(v, x, _mul(v, y, z))),
                )
                bad += sum(1 for lhs, rhs in sides if lhs != rhs)
    return bad


def _columns(n: int, flat: Sequence[Fraction]) -> list[Sparse]:
    """T(e_j) for each j, from the row-major flattening of T."""
    cols: list[Sparse] = [{} for _ in range(n)]
    for idx, c in enumerate(flat):
        if c:
            a, b = divmod(idx, n)
            cols[b][a] = Fraction(c)
    return cols


def identity_holds(n: int, vdash, dashv, flat: Sequence[Fraction], twisted: bool) -> bool:
    """Whether the operator with row-major entries ``flat`` satisfies the
    derivation rule (``twisted=False``) or the diderivation rule."""
    v, d = _sparse_cube(vdash), _sparse_cube(dashv)
    cols = _columns(n, flat)
    e = [{i: Fraction(1)} for i in range(n)]
    for c in (d, v):
        first = d if twisted else c
        second = v if twisted else c
        for i in range(n):
            for j in range(n):
                lhs: Sparse = {}
                for l, coeff in c.get((i, j), {}).items():
                    lhs = _add(lhs, {k: coeff * x for k, x in cols[l].items()})
                rhs = _add(_mul(first, cols[i], e[j]), _mul(second, e[i], cols[j]))
                if lhs != rhs:
                    return False
    return True


def is_rref(basis: Sequence[Sequence[Fraction]]) -> bool:
    """Reduced row echelon form: leading entries 1 in strictly increasing
    columns, and zero elsewhere in each leading column."""
    leads = []
    for row in basis:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None or row[lead] != 1:
            return False
        leads.append(lead)
    if any(a >= b for a, b in zip(leads, leads[1:])):
        return False
    return all(
        other[lead] == 0
        for r, lead in enumerate(leads)
        for s, other in enumerate(basis)
        if s != r
    )


def _mod(c: Fraction) -> int:
    return c.numerator % PRIME * pow(c.denominator % PRIME, -1, PRIME) % PRIME


def rule_rows(n: int, vdash, dashv, twisted: bool) -> list[dict[int, int]]:
    """The rule system modulo PRIME, one sparse row per (product, i, j, r)."""
    v, d = _sparse_cube(vdash), _sparse_cube(dashv)
    rows = []
    for c in (d, v):
        first = d if twisted else c
        second = v if twisted else c
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    row: dict[int, int] = {}

                    def put(col: int, coeff: Fraction) -> None:
                        row[col] = (row.get(col, 0) + _mod(coeff)) % PRIME

                    for l, coeff in c.get((i, j), {}).items():
                        put(r * n + l, coeff)
                    for k in range(n):
                        coeff = first.get((k, j), {}).get(r)
                        if coeff:
                            put(k * n + i, -coeff)
                        coeff = second.get((i, k), {}).get(r)
                        if coeff:
                            put(k * n + j, -coeff)
                    row = {col: x for col, x in row.items() if x}
                    if row:
                        rows.append(row)
    return rows


def rank_mod_p(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over Z/PRIME by sparse elimination against stored pivot rows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, PRIME)
                pivots[lead] = {col: x * inv % PRIME for col, x in r.items()}
                break
            f = r[lead]
            for col, x in prow.items():
                y = (r.get(col, 0) - f * x) % PRIME
                if y:
                    r[col] = y
                else:
                    r.pop(col, None)
        if len(pivots) == ncols:
            break
    return len(pivots)


def kernel_dim(n: int, vdash, dashv, twisted: bool) -> int:
    """Dimension of the derivation (or diderivation) space: n^2 minus the
    rank of the rule system modulo PRIME.  Never below the true value."""
    return n * n - rank_mod_p(rule_rows(n, vdash, dashv, twisted), n * n)


def kernel_problems(n: int, vdash, dashv, basis: Sequence[Sequence[Fraction]],
                    twisted: bool, closed_dim: int | None = None) -> list[str]:
    """Everything wrong with ``basis`` as the canonical kernel of the rule
    system; an empty list means the basis is correct."""
    kind = "diderivation" if twisted else "derivation"
    problems = []
    if any(len(row) != n * n for row in basis):
        return [f"{kind} basis vectors do not have length {n * n}"]
    bad = sum(1 for row in basis if not identity_holds(n, vdash, dashv, row, twisted))
    if bad:
        problems.append(f"{bad} {kind} basis elements violate the identity")
    if not is_rref(basis):
        problems.append(f"{kind} basis is not in RREF")
    expected = kernel_dim(n, vdash, dashv, twisted)
    if len(basis) != expected:
        problems.append(f"{kind} basis has {len(basis)} elements, kernel has {expected}")
    if closed_dim is not None and len(basis) != closed_dim:
        problems.append(f"{kind} dimension {len(basis)}, closed form {closed_dim}")
    return problems
