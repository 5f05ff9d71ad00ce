"""The Dias3_16 study and the catalog-wide check against the published tables.

The published table itself -- the entries, their relation tables and
``instantiate`` -- is in ``entries``, which a ``catalog:`` selector loads
alone.  This module takes from there the names the study uses
(``DIAS3_16_PARAMS``, ``get_entry``, ``instantiate`` and the parameter
check), and binds ``CatalogEntry`` and ``ENTRY_NAMES`` too, so every name
of the table is still reached through ``catalog``.  They are the
``entries`` objects, not copies: perfbench's tracer wraps
``catalog.instantiate`` in every module that binds it, and the sweep
tests monkeypatch it here, so both modules must hold one function.

For each entry the module records the tabled diderivation basis, whose
length is the tabled dimension, kept verbatim even where the exact solver
disagrees -- ``verify_catalog`` reports such disagreements as findings
rather than silently editing the expectations.  ``FAMILY_POINTS`` holds
the point at which each Dias3_16 solution family is checked.

For ``Dias3_16`` the module also implements the published case analysis: the
two key factors ``delta1``/``delta2``, the 13-row dimension table with its
first-match branch semantics, the printed 5x5 subsystem matrix (one table
of linear polynomials), the boxed determinant factorization probe, which
evaluates the exact determinant polynomial of that matrix, and the three
explicit solution families.  The case table is declared once, as the rows
of ``BRANCHES``: each holds its printed conditions and dimension and its
hand-picked sample points.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import poly, spaces
from .entries import (DIAS3_16_PARAMS, ENTRY_NAMES, CatalogEntry, Params,
                      _coerce_params, get_entry, instantiate)
from .ratlin import Matrix, Subspace, frac, int_or_fraction, sparse

# Default sampling grid for the Dias2_3 parameter.
LAMBDA_SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                  Fraction(1, 2))

# Dias3_17 points (l, m, n, p, q), each compared with the table and with the
# Dias3_16 kernel at the same values.
DIAS3_17_SAMPLES = tuple(tuple(map(Fraction, point)) for point in
                         ((1, 1, 1, 1, 1), (2, 1, 0, 1, 1), (0, 1, 1, 0, 2)))


# ---------------------------------------------------------------------------
# Tabled diderivation data


def _e(n: int, i: int, j: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    rows[i - 1][j - 1] = 1
    return Matrix(rows)


_DIFF_BASIS_3 = Matrix([[1, 0, 0], [-1, 0, 0], [0, 0, 0]])  # E11 - E21

_TABLED_DIDER: dict[str, tuple[Matrix, ...]] = {
    "Dias2_1": (_e(2, 2, 1),),
    "Dias2_2": (_e(2, 2, 1),),
    "Dias2_3": (_e(2, 2, 1),),
    "Dias2_4": (),
    "Dias3_1": (_e(3, 1, 2),),
    "Dias3_2": (),
    "Dias3_3": (),
    "Dias3_4": (_DIFF_BASIS_3,),
    "Dias3_5": (_DIFF_BASIS_3,),
    "Dias3_6": (),
    "Dias3_7": (_DIFF_BASIS_3,),
    "Dias3_8": (_e(3, 1, 3),),
    "Dias3_9": (Matrix([[0, 0, 0], [1, 1, 0], [0, 0, 0]]),),
    "Dias3_10": (_e(3, 1, 1), _e(3, 1, 3)),
    "Dias3_11": (_e(3, 1, 1), _e(3, 1, 3)),
    "Dias3_12": (_e(3, 1, 1),),
    "Dias3_13": (_e(3, 1, 1), _e(3, 2, 1)),
    "Dias3_14": (_e(3, 1, 1), _e(3, 2, 1)),
    "Dias3_15": (),
    "Dias3_17": (_e(3, 3, 1),),
}


def expected_dider(name: str, params: Params | None = None
                   ) -> tuple[int, tuple[Matrix, ...] | None]:
    """Tabled diderivation dimension and basis for a catalog entry, the
    one way to read an expectation: ``verify_catalog`` reads each through it.

    The tabled dimension of an entry is the length of its tabled basis.
    For ``Dias3_16`` the dimension comes from the 13-row case table resolved
    at the given parameters, and no basis is tabled.
    """
    entry = get_entry(name)
    if name == "Dias3_16":
        values = _coerce_params(entry, params)
        _row, dim = branch_for_params(**values)
        return dim, None
    basis = _TABLED_DIDER[name]
    return len(basis), basis


# ---------------------------------------------------------------------------
# Dias3_16 case analysis


def delta1(k: Fraction, m: Fraction, n: Fraction, p: Fraction,
           q: Fraction) -> Fraction:
    return -k - m * q + n * p


def delta2(k: Fraction, m: Fraction, n: Fraction, p: Fraction,
           q: Fraction) -> Fraction:
    return (k + n) * (p + 1) - m * q


class Dias316Branch(namedtuple("Dias316Branch", "index conditions dim samples")):
    """One printed row of the case table; ``branch_for_params`` resolves
    which row a parameter point falls in.

    ``dim`` is the row's printed dimension.  Row 5 holds 1, its printed
    "+1": an overlay one above the row its point is in.

    ``samples`` are hand-picked small parameter points satisfying the row's
    conditions, the start of ``branch_samples``.  Rows 6, 7 and 11 contain
    lower-dimensional exceptional sub-loci on which the kernel jumps; the
    picks stay off those, matching the rows' generic intent.  Row 8 has no
    points: its conditions are unsatisfiable (k = np with p = -1 forces
    n+k = 0).  Row 13's conditions pin a single parameter point.
    """

    __slots__ = ()


BRANCHES: tuple[Dias316Branch, ...] = (
    Dias316Branch(1, "m != 0; D1 != 0, D2 != 0", 2,
                  ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (0, 1, 0, 0, 1))),
    Dias316Branch(2, "m != 0; D1 = 0, D2 != 0", 3,
                  ((1, 1, 2, 1, 1), (2, 1, 1, 2, 0), (0, 2, 3, 0, 0))),
    Dias316Branch(3, "m != 0; D1 != 0, D2 = 0", 3,
                  ((1, 1, 1, 1, 4), (1, 1, 0, 1, 2), (1, 2, 1, 0, 1))),
    Dias316Branch(4, "m != 0; D1 = D2 = 0", 4,
                  ((1, 1, -3, 1, -4), (2, 1, -4, 0, -2),
                   (1, 2, -2, 0, Fraction(-1, 2)))),
    Dias316Branch(5, "m != 0; additionally p = -1, q = 0", 1,
                  ((1, 1, 1, -1, 0), (1, 1, -1, -1, 0), (2, 1, 5, -1, 0))),
    Dias316Branch(6, "m = 0; n+k != 0, k != np", 2,
                  ((1, 0, 1, 2, 1), (1, 0, 2, 0, 1), (2, 0, 1, 1, 3))),
    Dias316Branch(7, "m = 0; n+k != 0, k = np", 3,
                  ((2, 0, 1, 2, 1), (2, 0, 2, 1, 3), (6, 0, 2, 3, 1))),
    Dias316Branch(8, "m = 0; n+k != 0, k = np, p = -1, q = 0", 4, ()),
    Dias316Branch(9, "m = 0; n+k = 0, q != 0", 3,
                  ((2, 0, -2, 1, 1), (3, 0, -3, 2, 1), (2, 0, -2, 0, 3))),
    Dias316Branch(10, "m = 0; n+k = 0, q != 0, k = -1", 4,
                  ((-1, 0, 1, 1, 1), (-1, 0, 1, 2, 1), (-1, 0, 1, 0, 3))),
    Dias316Branch(11, "m = 0; n+k = 0, q = 0", 4,
                  ((2, 0, -2, 1, 0), (1, 0, -1, 2, 0), (3, 0, -3, 0, 0))),
    Dias316Branch(12, "m = n = k = q = 0; p != -1", 5,
                  ((0, 0, 0, 1, 0), (0, 0, 0, 0, 0), (0, 0, 0, 2, 0))),
    Dias316Branch(13, "m = n = k = q = 0; p = -1", 6, ((0, 0, 0, -1, 0),)),
)


def branch_for_params(k, m, n, p, q) -> tuple[Dias316Branch, int]:
    """Resolve the case-table row and tabled dimension for one parameter point.

    Rows are matched most-specific first, mirroring the table's implicit
    "generic unless stated otherwise" convention: the p=-1,q=0 overlay row 5
    and the single-point specializations (10, 12, 13) take precedence over
    the rows they refine.  Row 8, the other overlay, is never matched: its
    k = np with p = -1 forces n+k = 0.  The dimension is the row's printed
    one; row 5 prints "+1", one more than the row 3 or 4 its point is in
    (D2 vanishes where p = -1 and q = 0).
    """
    k, m, n, p, q = (frac(v) for v in (k, m, n, p, q))
    d1 = delta1(k, m, n, p, q)
    d2 = delta2(k, m, n, p, q)
    if m != 0:
        # rows 1 to 4: neither delta vanishes, D1 only, D2 only, or both
        row = 1 + (d1 == 0) + 2 * (d2 == 0)
        if p == -1 and q == 0:
            overlay = BRANCHES[4]
            return overlay, BRANCHES[row - 1].dim + overlay.dim
    elif n == 0 and k == 0 and q == 0:
        row = 13 if p == -1 else 12
    elif n + k != 0:
        row = 7 if k == n * p else 6
    elif q != 0:
        row = 10 if k == -1 else 9
    else:
        row = 11
    branch = BRANCHES[row - 1]
    return branch, branch.dim


# The point at which each case of ``case_family_vectors`` is checked: the
# first hand-picked sample of the row whose conditions the case assumes,
# delta1 = 0 (row 2), delta2 = 0 (row 3) or both (row 4).
FAMILY_POINTS = {case: BRANCHES[row - 1].samples[0]
                 for case, row in (("B", 2), ("C", 3), ("D", 4))}


def _random_branch_sample(row: int, rng: random.Random
                          ) -> tuple[Fraction, ...] | None:
    def small() -> Fraction:
        return Fraction(rng.randint(-4, 4))

    def nonzero() -> Fraction:
        v = rng.randint(1, 4)
        return Fraction(-v if rng.random() < 0.5 else v)

    if row == 1:
        k, n, p, q, m = small(), small(), small(), small(), nonzero()
    elif row == 2:
        k, n, p, m = small(), small(), small(), nonzero()
        q = (n * p - k) / m
    elif row == 3:
        k, n, p, m = small(), small(), small(), nonzero()
        q = (k + n) * (p + 1) / m
    elif row == 4:
        k, p, m = nonzero(), small(), nonzero()
        if p == -1:
            return None
        n = -k * (p + 2)
        q = -k * (p + 1) ** 2 / m
    elif row == 5:
        k, n, m = small(), small(), nonzero()
        p, q = Fraction(-1), Fraction(0)
    elif row == 6:
        m, k, n, p, q = Fraction(0), small(), small(), small(), nonzero()
        if p == -1:
            return None
    elif row == 7:
        m, n, p, q = Fraction(0), nonzero(), nonzero(), nonzero()
        k = n * p
    elif row == 9:
        m, k, p, q = Fraction(0), nonzero(), small(), nonzero()
        if k == -1:
            return None
        n = -k
    elif row == 10:
        m, k, p, q = Fraction(0), Fraction(-1), small(), nonzero()
        n = Fraction(1)
    elif row == 11:
        m, k, p, q = Fraction(0), nonzero(), small(), Fraction(0)
        if k == -1 and p == -1:
            return None
        n = -k
    else:  # row 12
        k = n = q = m = Fraction(0)
        p = small()
        if p == -1:
            return None
    return (k, m, n, p, q)


def branch_samples(row: int, count: int, seed: int = 0
                   ) -> list[tuple[Fraction, ...]]:
    """Deterministic parameter points satisfying one case-table row.

    Starts from the row's hand-picked smallest-height samples and extends
    with seeded random points built from the row's defining equations.  Row
    8 always yields an empty list (its conditions are contradictory); row 13
    repeats its unique point when more samples are requested.
    """
    if row not in range(1, len(BRANCHES) + 1):
        raise ValueError(f"no branch row {row}")
    if count < 0:
        raise ValueError(f"negative sample count {count}")
    base = [tuple(frac(v) for v in s) for s in BRANCHES[row - 1].samples]
    if row in (8, 13):
        return (base * count)[:count]
    out = base[:count]
    rng = random.Random(f"dias316:{seed}:{row}")
    attempts = 0
    while len(out) < count and attempts < 1000:
        attempts += 1
        sample = _random_branch_sample(row, rng)
        if sample is None or sample in out:
            continue
        if branch_for_params(*sample)[0].index != row:
            continue
        out.append(sample)
    if len(out) < count:
        raise RuntimeError(f"could not sample branch row {row}")
    return out


def _printed_dias316() -> tuple[tuple[poly.Poly, ...], ...]:
    k, m, n, p, q = (poly.Poly.var(5, i) for i in range(5))
    zero, one = poly.Poly.const(5, 0), poly.Poly.const(5, 1)
    return (
        (m, zero, zero, n + k, zero),
        (-p, zero, -k, -q, k),
        (-p, zero, p, -q, -k),
        (zero, p + 1, zero, zero, q),
        (-one, -m, one, zero, -n),
    )


# The printed 5x5 subsystem matrix, entries linear in (k, m, n, p, q).
_DIAS316_PRINTED = _printed_dias316()


def dias316_matrix(params: Params) -> Matrix:
    """The printed 5x5 subsystem matrix in unknown order (d11,d13,d22,d31,d33).

    Reproduced exactly as displayed.  The printed entries have one source,
    a module table of polynomials linear in (k, m, n, p, q): this function
    evaluates it at ``params``, and ``check_det_factorization`` expands its
    determinant.  Read against the diderivation identity (e2 components,
    after d12 = d32 = 0), its rows are: row 1 the dashv (1,1) equation
    negated, row 2 the dashv (3,1) equation with the signs of k flipped,
    row 3 the vdash (3,1) equation, row 4 the dashv (3,3) equation negated,
    row 5 the dashv (1,3) equation.  The subsystem the identity gives --
    the dashv equations for (1,1), (1,3), (3,1), (3,3) and the vdash
    equation for (1,1) -- has determinant m * delta1 * delta2.  The
    printed matrix holds vdash (3,1) in place of vdash (1,1) and has its
    row-2 sign defects, so its determinant has no factor m; with the row-2
    signs repaired it is (p - k) * delta1 * delta2.  The determinant probe
    below measures the printed matrix, not a repaired one.
    """
    point = tuple(frac(params[s]) for s in DIAS3_16_PARAMS)
    return Matrix([[entry(point) for entry in row] for row in _DIAS316_PRINTED])


def check_det_factorization(samples: Sequence[Sequence]) -> dict:
    """Probe the boxed claim det(M) = unit * m * delta1 * delta2.

    M is the printed matrix of ``dias316_matrix``.  Its determinant is
    expanded once per call as an exact polynomial in (k, m, n, p, q) and
    evaluated at each sample, in integers where the sample is integral.
    Reports (i) vanishing-locus agreement between det(M) and m*D1*D2 at
    every sample and (ii) whether det(M)/(m*D1*D2) is constant across the
    samples where both are nonzero.  Neither direction is assumed;
    mismatched samples are listed verbatim, every value a ``Fraction``.
    The claim fails for the printed matrix (for instance at (k,m,n,p,q) =
    (2,0,5,0,4), where det(M) = -28 and m*D1*D2 = 0) but holds for the
    subsystem derived from the identity, whose rows ``dias316_matrix``
    names.
    """
    det_m = poly.det(_DIAS316_PRINTED)
    locus_mismatches: list[dict] = []
    ratios: list[Fraction] = []
    for raw in samples:
        point = tuple(int_or_fraction(v) for v in raw)
        d = det_m(point)
        target = point[1] * delta1(*point) * delta2(*point)
        if (d == 0) != (target == 0):
            locus_mismatches.append({"params": tuple(map(frac, point)),
                                     "det": frac(d), "target": frac(target)})
        elif d != 0:
            ratios.append(Fraction(d, target))
    ratio_first = ratios[0] if ratios else None
    return {
        "sample_count": len(samples),
        "locus_mismatches": locus_mismatches,
        "locus_agreement": not locus_mismatches,
        "nonvanishing_count": len(ratios),
        "ratio_first": ratio_first,
        "ratio_constant": all(r == ratio_first for r in ratios) if ratios else None,
    }


# ---------------------------------------------------------------------------
# Explicit solution families for Dias3_16

# 7-tuple layout used by the printed families, with d21 = d23 = 0 free on top:
# (d11, d12, d13, d22, d31, d32, d33).
_FAMILY_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 1), (2, 2))


def _family_matrix(vec: Sequence[Fraction]) -> Matrix:
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j), value in zip(_FAMILY_SLOTS, vec):
        rows[i][j] = frac(value)
    return Matrix(rows)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def case_family_vectors(case: str, params: Params
                        ) -> list[tuple[str, Matrix]]:
    """The boxed solution-family generators for one case, as 3x3 operators.

    Case B and C are one-parameter families (returned at t=1); case D is the
    printed two-parameter family, returned as its two generators.  Hypotheses
    are validated and the failing condition is named on rejection.
    """
    k, m, n, p, q = (frac(params[s]) for s in DIAS3_16_PARAMS)
    point = (k, m, n, p, q)
    if case == "B":
        _require(m != 0, "case B requires m != 0")
        _require(p != -1, "case B requires p != -1")
        _require(delta1(*point) == 0, "case B requires delta1 = 0")
        vec = (-(k + n) / (p + 1), 0, (k - n * p) / (m * (p + 1)), 0,
               m / (p + 1), 0, 1)
        return [("t=1", _family_matrix(vec))]
    if case == "C":
        _require(m != 0, "case C requires m != 0")
        _require(k + n != 0, "case C requires k + n != 0")
        _require(delta2(*point) == 0, "case C requires delta2 = 0")
        vec = (k, 0, -(k + n) / m, 0, -k * m / (k + n), 0, 1)
        return [("t=1", _family_matrix(vec))]
    if case == "D":
        _require(m != 0, "case D requires m != 0")
        _require(delta1(*point) == 0, "case D requires delta1 = 0")
        _require(delta2(*point) == 0, "case D requires delta2 = 0")
        _require(p != -1, "case D requires p != -1")
        c = k * (p + 1) / m
        gen1 = (c, 0, 0, 0, 1, 0, 0)        # (d31, d33) = (1, 0)
        gen2 = (0, 0, c, 0, 0, 0, 1)        # (d31, d33) = (0, 1)
        return [("(d31,d33)=(1,0)", _family_matrix(gen1)),
                ("(d31,d33)=(0,1)", _family_matrix(gen2))]
    raise ValueError(f"unknown case {case!r} (expected B, C or D)")


def corrected_case_d_vector(params: Params) -> Matrix:
    """The one-parameter sub-family of the printed case D that actually solves
    the system: the printed family restricted to the line (p+1)*d31 = m*d33,
    here at d33 = p+1."""
    k, m, p = (frac(params[s]) for s in ("k", "m", "p"))
    c = k * (p + 1) / m
    vec = (c * m, 0, c * (p + 1), 0, m, 0, p + 1)
    return _family_matrix(vec)


def check_solution_families(params: Params, case: str,
                            kernels: dict[tuple, Subspace] | None = None) -> dict:
    """Substitute a boxed solution family into the defining identity and the
    solver kernel at one admissible parameter point.

    ``kernels`` holds the per-point kernels of a ``verify_catalog`` sweep;
    the point is solved only if it is not among them."""
    d = instantiate("Dias3_16", params)
    key = _point_key("Dias3_16", params)
    kernel = kernels[key] if kernels and key in kernels else spaces.diderivation_space(d)
    vectors = case_family_vectors(case, params)
    results = []
    for label, op in vectors + [("t=0", _family_matrix((0,) * 7))]:
        row = sparse(op.flatten())
        results.append({
            "label": label,
            "identity_ok": spaces.rule_holds(d, "dider", row),
            "in_solver_kernel": kernel.coordinates(row) is not None,
        })
    report = {
        "vectors": results,
        "all_member": all(r["in_solver_kernel"] for r in results),
    }
    if case == "D":
        fixed = sparse(corrected_case_d_vector(params).flatten())
        report["corrected_in_kernel"] = kernel.coordinates(fixed) is not None
    return report


# ---------------------------------------------------------------------------
# Catalog-wide verification sweep


def _point_text(values: Iterable[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _point_key(name: str, params: Params | None) -> tuple:
    return name, tuple(sorted(params.items())) if params else ()


def verify_catalog(sample_count: int = 3, seed: int = 0) -> dict:
    """Recompute every tabled diderivation space and compare with the tables.

    The exact solver is the ground truth; tabled values are expectations,
    each read through ``expected_dider``.
    Disagreements are collected as findings (the sweep never edits the
    expectations to match), and only internal errors -- an instantiation
    failing the axioms, or a Dias3_17 kernel differing from its Dias3_16
    twin -- count as failures.  Every comparison goes through one step per
    distinct point (entry name, sorted params): on first use the step
    instantiates the point, checks its axioms and solves its kernel, so each
    point is solved once per call however often the sweep compares it.  The
    result's ``kernels`` maps each point to its kernel.  Findings and
    failures name a point by the same text: ``" at lam=1/2"`` for Dias2_3,
    ``" at (l, m, n, p, q)"`` for Dias3_17, ``" row r at (k, m, n, p, q)"``
    for a case-table sample and nothing for a fixed entry.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    kernels: dict[tuple, Subspace] = {}
    entry_rows: list[dict] = []
    findings: list[str] = []
    failures: list[str] = []

    def solve(name: str, params: Params | None, where: str) -> Subspace:
        key = _point_key(name, params)
        if key not in kernels:
            d = instantiate(name, params)
            if d.verify_axioms():
                failures.append(f"{name}: axiom violations{where}")
            kernels[key] = spaces.diderivation_space(d)
        return kernels[key]

    def compare(name: str, where: str, tabled: int, actual: int,
                agree: bool = True) -> bool:
        if agree and actual == tabled:
            return True
        findings.append(f"{name}{where}: tabled dim {tabled}, solver dim {actual}")
        return False

    points = {
        "Dias2_3": [({"lam": lam}, f" at lam={lam}") for lam in LAMBDA_SAMPLES],
        "Dias3_17": [(dict(zip(get_entry("Dias3_17").param_names, point)),
                      f" at {_point_text(point)}") for point in DIAS3_17_SAMPLES],
    }
    for name in _TABLED_DIDER:
        for params, where in points.get(name, [(None, "")]):
            tabled, basis = expected_dider(name, params)
            kernel = solve(name, params, where)
            # the tabled bases are dense matrices, so they take the dense way in
            n = get_entry(name).dim
            basis_match = Subspace(n * n, [m.flatten() for m in basis]) == kernel
            match = compare(name, where, tabled, kernel.dim, basis_match)
            entry_rows.append({
                "name": name, "params": params, "expected_dim": tabled,
                "actual_dim": kernel.dim, "basis_match": basis_match,
                "status": "match" if match else "finding"})
            if name == "Dias3_17":
                # The relation lists agree up to the parameter letter, so the
                # two parametric entries must produce identical kernels.
                twin = dict(zip(DIAS3_16_PARAMS, params.values()))
                if solve("Dias3_16", twin, where) != kernel:
                    failures.append(f"Dias3_17: kernel differs from Dias3_16 twin{where}")

    if kernels[_point_key("Dias3_9", None)] == \
            kernels[_point_key("Dias3_11", None)]:
        findings.append(
            "Dias3_9 and Dias3_11 share one printed relation list and one "
            "computed kernel, yet the table assigns them different spaces")

    branch_rows: list[dict] = []
    for branch in BRANCHES:
        samples = branch_samples(branch.index, sample_count, seed)
        sample_rows = []
        for point in samples:
            where = f" row {branch.index} at {_point_text(point)}"
            params = dict(zip(DIAS3_16_PARAMS, point))
            tabled, _ = expected_dider("Dias3_16", params)
            actual = solve("Dias3_16", params, where).dim
            compare("Dias3_16", where, tabled, actual)
            sample_rows.append({"params": point, "tabled_dim": tabled,
                                "actual_dim": actual})
        if branch.index == 8 and not samples:
            findings.append(
                "Dias3_16 row 8 conditions are unsatisfiable: k = np with "
                "p = -1 forces n+k = 0, contradicting n+k != 0")
        branch_rows.append({
            "row": branch.index,
            "conditions": branch.conditions,
            "samples": sample_rows,
        })

    return {
        "kernels": kernels,
        "entries": entry_rows,
        "dias316_rows": branch_rows,
        "findings": list(dict.fromkeys(findings)),
        "failures": failures,
    }
