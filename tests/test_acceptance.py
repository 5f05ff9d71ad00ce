"""Acceptance suite: one test and one printed verdict line per criterion.

Every check is exact rational arithmetic, zero tolerance.  Criteria 1, 3,
4, 5, 8 and 9 encode published claims that exact arithmetic refutes for
the data in ``catalog.py`` and ``kxy.py``.  Each of them asserts the true
statement and the refutation with its counterexample, written as a literal
in the test, and checks diaskit against ``exact_oracle``, which shares no
code with the package.  Run with ``-s`` to see all verdict lines (pytest
shows the failing ones regardless).
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from diaskit import catalog
from diaskit.catalog import (
    BRANCHES,
    ENTRY_NAMES,
    branch_for_params,
    branch_samples,
    case_family_vectors,
    check_det_factorization,
    check_solution_families,
    corrected_case_d_vector,
    dias316_matrix,
    instantiate,
    verify_catalog,
)
from diaskit.cli import _det_probe_samples
from diaskit.core import phi_dialgebra
from diaskit.invariants import (
    annihilator,
    bar_center,
    check_bider_leibniz,
    check_invariant_actions,
    halo,
)
from diaskit.kxy import (
    BivariatePoly,
    DegreeBoundError,
    KxyOperatorSpec,
    ann_membership,
    check_axioms_truncated,
    check_derivation_identity,
    check_dider_identity,
    dashv,
    divides_x_minus_y,
    inner_dider_apply,
    vdash,
)
from diaskit.ratlin import Subspace
from diaskit.spaces import (
    check_characterizations,
    check_closures,
    derivation_space,
    diderivation_space,
    subspace_matrices,
)

import exact_oracle as oracle

F = Fraction


def report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def catalog_cases():
    """Every catalog dialgebra; parametric entries at fixed sample points."""
    cases = []
    for name in ENTRY_NAMES:
        if name == "Dias2_3":
            for lam in (F(0), F(1), F(2), F(-1), F(1, 2)):
                cases.append((f"{name}[lam={lam}]",
                              instantiate(name, {"lam": lam})))
        elif name == "Dias3_16":
            for pt in [(1, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, -3, 1, -4),
                       (1, 0, 1, 2, 1), (0, 0, 0, 1, 0)]:
                params = dict(zip("kmnpq", map(F, pt)))
                cases.append((f"{name}{pt}", instantiate(name, params)))
        elif name == "Dias3_17":
            params = dict(zip(("l", "m", "n", "p", "q"), map(F, (1, 1, 1, 1, 1))))
            cases.append((f"{name}(1,1,1,1,1)", instantiate(name, params)))
        else:
            cases.append((name, instantiate(name)))
    return cases


def seeded_phi_dialgebras(count=20):
    rng = random.Random("acceptance:phi")
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        weights = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        if any(w != 0 for w in weights):
            out.append((f"phi{weights}", phi_dialgebra(weights)))
    return out


def point_text(point):
    """A parameter point as ``verify_catalog`` prints it in its findings."""
    return "(" + ", ".join(str(F(v)) for v in point) + ")"


def checked_basis(label, d, space, twisted, failures):
    """The solver's canonical basis of ``space`` as lists of rows.

    The oracle must find that every element satisfies the identity, that
    the elements are independent and that there are as many as the
    kernel's dimension; otherwise a failure is recorded.
    """
    mats = [m.rows for m in subspace_matrices(space, d.dim)]
    exact = oracle.kernel_dim(d.c_vdash, d.c_dashv, twisted)
    kind = "dider" if twisted else "der"
    if not all(oracle.satisfies(d.c_vdash, d.c_dashv, t, twisted)
               for t in mats):
        failures.append(f"{label}: solver {kind} basis violates the identity")
    if not oracle.rank([oracle.flatten(t) for t in mats]) == len(mats) == exact:
        failures.append(f"{label}: solver {kind} dim {len(mats)}, "
                        f"oracle {exact}")
    return mats


def test_criterion_01_two_dimensional_table():
    """Tabled: Dider = span(E21) for Dias2_1, Dias2_2 and Dias2_3, 0 for Dias2_4.

    The Dias2_3 row is false at lam = 1 and lam = -1.  On e1 e1 the dashv
    identity gives lam*d22 = (lam+1)*d11 and the vdash identity gives
    d22 = (lam+1)*d11, so d11*(lam-1)*(lam+1) = 0.  At lam = 1 the kernel
    is span(E21, E11+2E22), where diag(1,2) is the grading map of
    e1^2 = e2; at lam = -1 it is span(E21, E11).
    """
    failures = []
    e21 = oracle.matrix_unit(2, 1, 0)
    holds = [("Dias2_1", None), ("Dias2_2", None)] + [
        (f"Dias2_3[lam={lam}]", {"lam": lam})
        for lam in (F(0), F(2), F(-2), F(1, 2), F(-1, 2))]
    for label, params in holds:
        d = instantiate(label.split("[")[0], params)
        basis = checked_basis(label, d, diderivation_space(d), True, failures)
        if not oracle.same_span([oracle.flatten(t) for t in basis],
                                [oracle.flatten(e21)]):
            failures.append(f"{label}: kernel is not span(E21)")
    d4 = instantiate("Dias2_4")
    if checked_basis("Dias2_4", d4, diderivation_space(d4), True, failures):
        failures.append("Dias2_4: kernel is not 0")

    refuted = {
        F(1): [e21, [[F(1), F(0)], [F(0), F(2)]]],
        F(-1): [e21, oracle.matrix_unit(2, 0, 0)],
    }
    for lam, kernel in refuted.items():
        label = f"Dias2_3[lam={lam}]"
        d = instantiate("Dias2_3", {"lam": lam})
        basis = checked_basis(label, d, diderivation_space(d), True, failures)
        if len(basis) != 2 or not oracle.same_span(
                [oracle.flatten(t) for t in basis],
                [oracle.flatten(t) for t in kernel]):
            failures.append(f"{label}: solver kernel {basis}")
    for num in range(-6, 7):
        lam = F(num, 2)
        d = instantiate("Dias2_3", {"lam": lam})
        exact = oracle.kernel_dim(d.c_vdash, d.c_dashv)
        if exact != (2 if lam in refuted else 1):
            failures.append(f"Dias2_3[lam={lam}]: oracle dim {exact}")

    reported = [f for f in verify_catalog(sample_count=1, seed=0)["findings"]
                if f.startswith("Dias2_")]
    expected = [f"Dias2_3 at lam={lam}: tabled dim 1, solver dim 2"
                for lam in ("1", "-1")]
    if reported != expected:
        failures.append(f"two-dimensional findings {reported}")
    ok = not failures
    detail = ("table holds for 2_1, 2_2, 2_3 off lam = +-1 and 2_4; at lam = 1 "
              "Dider = span(E21, E11+2E22), at lam = -1 span(E21, E11), both "
              "reported as findings") if ok else "; ".join(failures[:4])
    assert report(1, ok, detail)


def test_criterion_02_three_dimensional_table():
    tabled = {1: 1, 2: 0, 3: 0, 4: 1, 5: 1, 6: 0, 7: 1, 8: 1, 10: 2,
              12: 1, 13: 2, 14: 2, 15: 0}
    failures = []
    for idx, dim in tabled.items():
        name = f"Dias3_{idx}"
        space = diderivation_space(instantiate(name))
        exp_dim, exp_basis = catalog.expected_dider(name)
        assert exp_dim == dim
        span = Subspace(9, [m.flatten() for m in exp_basis])
        if space.dim != dim or span != space:
            failures.append(f"{name}: solver {space.dim} vs tabled {dim}")
    ok = not failures
    detail = f"{len(tabled)} entries match, tabled bases span the kernels" \
        if ok else "; ".join(failures)
    assert report(2, ok, detail)


# Case-table rows whose tabled dimension exceeds the kernel's at every
# sample, by one except at the listed point, where the excess is two.
TABLE_ABOVE_KERNEL = {4, 5, 10, 11, 12, 13}
EXCESS_TWO_AT = (1, 1, -1, -1, 0)


def test_criterion_03_branch_table():
    """Tabled: the 13-row Dias3_16 case table, three samples per row.

    Rows 1, 2, 3, 6, 7 and 9 hold.  Rows 4, 5, 10, 11, 12 and 13 table a
    dimension one above the kernel's, two above at (1,1,-1,-1,0).  Row 8
    is empty: k = np with p = -1 gives n+k = n(p+1) = 0, against n+k != 0.
    Row 12 at (0,0,0,0,0) settles it by hand: only e1 dashv e3 = e2 is
    nonzero, the identity forces row 1 and column 2 of T to zero, five
    constraints, so the kernel is span(E21, E23, E31, E33), not dim 5.
    """
    failures = []
    findings = set(verify_catalog(sample_count=3, seed=0)["findings"])
    disagreeing = set()
    sample_count = 0
    for branch in BRANCHES:
        row = branch.index
        samples = branch_samples(row, 3, seed=0)
        sample_count += len(samples)
        for point in samples:
            d = instantiate("Dias3_16", dict(zip("kmnpq", point)))
            exact = oracle.kernel_dim(d.c_vdash, d.c_dashv)
            solver = diderivation_space(d).dim
            tabled = branch_for_params(*point)[1]
            if solver != exact:
                failures.append(f"row {row} at {point_text(point)}: solver "
                                f"{solver}, oracle {exact}")
            if tabled == exact:
                continue
            disagreeing.add(row)
            excess = 2 if point == tuple(map(F, EXCESS_TWO_AT)) else 1
            if tabled - exact != excess:
                failures.append(f"row {row} at {point_text(point)}: tabled "
                                f"{tabled}, oracle {exact}")
            finding = (f"Dias3_16 row {row} at {point_text(point)}: "
                       f"tabled dim {tabled}, solver dim {exact}")
            if finding not in findings:
                failures.append(f"not reported: {finding}")
    if disagreeing != TABLE_ABOVE_KERNEL:
        failures.append(f"rows disagreeing with the table: {sorted(disagreeing)}")
    if sample_count != 36 or branch_samples(8, 3, seed=0):
        failures.append(f"{sample_count} samples, row 8 must have none")
    if not any(f.startswith("Dias3_16 row 8 conditions are unsatisfiable")
               for f in findings):
        failures.append("row 8 unsatisfiability not reported")

    zero = instantiate("Dias3_16", dict.fromkeys("kmnpq", F(0)))
    basis = checked_basis("Dias3_16 at 0", zero, diderivation_space(zero),
                          True, failures)
    hand = [oracle.flatten(oracle.matrix_unit(3, a, b))
            for a, b in ((1, 0), (1, 2), (2, 0), (2, 2))]
    if not oracle.same_span([oracle.flatten(t) for t in basis], hand):
        failures.append("kernel at 0 is not span(E21, E23, E31, E33)")
    ok = not failures
    detail = ("solver = oracle at 36 samples; rows 1,2,3,6,7,9 hold; rows "
              "4,5,10,11,12,13 table one above the kernel (two at "
              "(1,1,-1,-1,0)) and are reported; row 8 unsatisfiable") if ok \
        else "; ".join(failures[:4])
    assert report(3, ok, detail)


def deltas(k, m, n, p, q):
    """The published factors D1 = -k - mq + np and D2 = (k+n)(p+1) - mq."""
    return -k - m * q + n * p, (k + n) * (p + 1) - m * q


def test_criterion_04_determinant_factorization():
    """Tabled: det of the printed 5x5 matrix vanishes exactly where m*D1*D2 does.

    False for the printed matrix: its det has no factor m, and the first
    probe mismatch is (2,0,5,0,4), det -28 against m*D1*D2 = 0.  The claim
    holds for the subsystem the identity gives once d12 = d32 = 0 (forced)
    and d21, d23 (free) are set aside: the dashv equations for (1,1),
    (1,3), (3,1), (3,3) and the vdash equation for (1,1) in
    (d11, d13, d22, d31, d33), whose det is m*D1*D2 in that row order.
    Where it is nonzero the kernel is span(E21, E23).  The printed matrix
    holds the vdash (3,1) equation as its row 3 and flips the signs of k
    in its dashv (3,1) row 2; with those signs repaired its det is
    (p-k)*D1*D2.
    """
    failures = []
    free = [oracle.flatten(oracle.matrix_unit(3, 1, a)) for a in (0, 2)]
    samples = _det_probe_samples(seed=7)
    assert len(samples) >= 100
    for point in samples:
        k, m, n, p, q = point
        d1, d2 = deltas(*point)
        params = dict(zip("kmnpq", point))
        d = instantiate("Dias3_16", params)
        if oracle.det(oracle.dias316_subsystem(d.c_vdash, d.c_dashv)) \
                != m * d1 * d2:
            failures.append(f"derived det at {point_text(point)}")
        if m * d1 * d2 and not oracle.same_span(
                [list(v) for v in diderivation_space(d).basis], free):
            failures.append(f"solver kernel at {point_text(point)}")
        printed = [list(r) for r in dias316_matrix(params).rows]
        dashv31, vdash31 = oracle.dias316_subsystem(
            d.c_vdash, d.c_dashv, [("dashv", 3, 1), ("vdash", 3, 1)])
        flipped = [-x if col in (2, 4) else x for col, x in enumerate(dashv31)]
        if printed[1] != flipped or printed[2] != vdash31:
            failures.append(f"printed rows 2, 3 at {point_text(point)}")
        if oracle.det([printed[0], dashv31] + printed[2:]) != (p - k) * d1 * d2:
            failures.append(f"sign-repaired det at {point_text(point)}")

    probe = check_det_factorization(samples)
    first = probe["locus_mismatches"][0] if probe["locus_mismatches"] else {}
    counterexample = tuple(map(F, (2, 0, 5, 0, 4)))
    if (first.get("params"), first.get("det"), first.get("target")) != \
            (counterexample, F(-28), F(0)):
        failures.append(f"first reported mismatch {first}")
    if oracle.det(dias316_matrix(dict(zip("kmnpq", counterexample))).rows) != -28:
        failures.append("oracle det of the printed matrix at (2,0,5,0,4)")
    if probe["locus_agreement"] or probe["ratio_constant"] is not False:
        failures.append("probe reports the printed matrix as factoring")
    ok = not failures
    detail = (f"derived subsystem det = m*D1*D2 on {len(samples)} samples; "
              f"printed matrix refuted: {len(probe['locus_mismatches'])} "
              "mismatches, first (2,0,5,0,4) det -28 vs 0, ratio not "
              "constant") if ok else "; ".join(failures[:4])
    assert report(4, ok, detail)


def test_criterion_05_solution_families():
    """Tabled: the boxed solution families of cases B, C and D.

    B and C hold.  The two printed generators of case D, (d31, d33) = (1, 0)
    and (0, 1) with d11 = c*d31, d13 = c*d33, c = k(p+1)/m, are not
    diderivations: at (1,1,-3,1,-4), c = 2, they leave residuals -2 and 1
    in the dashv (1,3) equation.  Only the line (p+1)*d31 = m*d33 solves
    the system, so the kernel is span(corrected, E21, E23), dim 3 = 2 + 1,
    not the tabled 4 = 2 + 2 (the same error as case-table row 4).
    """
    points = {
        "B": [(1, 1, 2, 1, 1), (2, 1, 1, 2, 0), (0, 2, 3, 0, 0)],
        "C": [(1, 1, 1, 1, 4), (1, 1, 0, 1, 2), (1, 2, 1, 0, 1)],
        "D": [(1, 1, -3, 1, -4), (2, 1, -4, 0, -2),
              (1, 2, -2, 0, F(-1, 2))],
    }
    failures = []
    for case in ("B", "C"):
        for pt in points[case]:
            params = dict(zip("kmnpq", map(F, pt)))
            if not check_solution_families(params, case)["all_member"]:
                failures.append(f"case {case} at {point_text(pt)}")
    free = [oracle.matrix_unit(3, 1, a) for a in (0, 2)]
    for pt in points["D"]:
        params = dict(zip("kmnpq", map(F, pt)))
        d = instantiate("Dias3_16", params)
        where = f"case D at {point_text(pt)}"
        printed = [m.rows for _label, m in case_family_vectors("D", params)]
        if any(oracle.satisfies(d.c_vdash, d.c_dashv, t) for t in printed):
            failures.append(f"{where}: a printed generator is a diderivation")
        fam = check_solution_families(params, "D")
        if fam["all_member"] or any(
                v["identity_ok"] or v["in_solver_kernel"]
                for v in fam["vectors"] if v["label"] != "t=0"):
            failures.append(f"{where}: refutation not reported")
        spanning = [corrected_case_d_vector(params).rows] + free
        basis = checked_basis(where, d, diderivation_space(d), True, failures)
        if not (fam["corrected_in_kernel"] and oracle.same_span(
                [oracle.flatten(t) for t in basis],
                [oracle.flatten(t) for t in spanning])):
            failures.append(f"{where}: kernel is not span(corrected, E21, E23)")

    params = dict(zip("kmnpq", map(F, points["D"][0])))
    d = instantiate("Dias3_16", params)
    dashv13 = [oracle.residuals(d.c_vdash, d.c_dashv, m.rows)[("dashv", 0, 2)][1]
               for _label, m in case_family_vectors("D", params)]
    if dashv13 != [-2, 1]:
        failures.append(f"dashv (1,3) residuals {dashv13} at (1,1,-3,1,-4)")
    if corrected_case_d_vector(params).rows != [[2, 0, 4], [0, 0, 0], [1, 0, 2]]:
        failures.append("corrected generator at (1,1,-3,1,-4)")
    ok = not failures
    detail = ("B, C: 3 samples in kernel; D: both printed generators violate "
              "the identity (residuals -2, 1 at (1,1,-3,1,-4)), kernel = "
              "span(corrected, E21, E23) at 3 samples") if ok \
        else "; ".join(failures[:4])
    assert report(5, ok, detail)


def test_criterion_06_operator_characterizations():
    failures = []
    for label, d in catalog_cases():
        routes = check_characterizations(d)
        if not (routes["derivations"]["left_route_equal"]
                and routes["derivations"]["right_route_equal"]
                and routes["diderivations"]["operator_route_equal"]):
            failures.append(label)
    ok = not failures
    detail = f"kernel equality on {len(catalog_cases())} catalog dialgebras" \
        if ok else "routes differ: " + ", ".join(failures)
    assert report(6, ok, detail)


def test_criterion_07_structural_suite():
    cases = catalog_cases() + seeded_phi_dialgebras(20)
    closure_keys = ("inn_in_der", "dinn_in_dider", "der_bracket_closed",
                    "inner_ideal_identity", "dider_der_bracket_in_dider",
                    "dinn_der_bracket_in_dinn")
    action_keys = ("der_preserves_ann", "der_preserves_bar_center",
                   "dider_kills_ann")
    unital_keys = ("halo_is_point_plus_ann", "ann_equals_bar_center",
                   "der_sends_unit_into_ann", "dider_kills_unit")
    failures = []
    unital_count = 0
    for label, d in cases:
        closures = check_closures(d)
        actions = check_invariant_actions(d)
        for key in closure_keys:
            if not closures[key]:
                failures.append(f"{label}:{key}")
        for key in action_keys:
            if not actions[key]:
                failures.append(f"{label}:{key}")
        if actions["unital"]:
            unital_count += 1
            for key in unital_keys:
                if not actions[key]:
                    failures.append(f"{label}:{key}")
    ok = not failures
    detail = (f"{len(cases)} dialgebras ({unital_count} unital), all "
              "containments, bracket identities and actions hold") if ok \
        else "; ".join(failures[:4])
    assert report(7, ok, detail)


# The catalog cases on which some [s, d] with s in Dider, d in Der leaves
# DInn, so that DInn + Der is not a two-sided ideal of the combined space.
DINN_DER_NOT_TWO_SIDED = {"Dias2_3[lam=1]", "Dias3_13",
                          "Dias3_16(1, 0, 1, 2, 1)", "Dias3_16(0, 0, 0, 1, 0)"}


def flat_pair(pair):
    return oracle.flatten(pair[0]) + oracle.flatten(pair[1])


def test_criterion_08_bider_leibniz_and_ideals():
    """Tabled: the combined bracket <(s,d),(s',d')> = ([s,d'],[d,d']) is a
    right Leibniz algebra with two-sided ideals DInn+Der and DInn+Inn.

    Closure, the right identity and the DInn+Inn ideal hold everywhere.
    DInn+Der is not two-sided: <(s,0),(0,d)> = ([s,d],0) lies in it only
    when [s,d] is in DInn.  On Dias3_13, E21 is in Dider, E11 in Der, every
    Ad_(e_i) is 0 and [E21,E11] = E21.  What holds is the one-sided
    closure <DInn+Der, Bider> in DInn+Der, from [DInn, Der] in DInn.
    """
    failures = []
    not_two_sided = set()
    for label, d in catalog_cases():
        res = check_bider_leibniz(d)
        if not (res["bracket_closed"] and res["right_identity"]):
            failures.append(f"{label}: Leibniz identity")
        if not res["dinn_inn_ideal"]:
            failures.append(f"{label}: DInn+Inn not two-sided ideal")
        n = d.dim
        zero = [[F(0)] * n for _ in range(n)]
        dider = checked_basis(label, d, diderivation_space(d), True, failures)
        der = checked_basis(label, d, derivation_space(d), False, failures)
        dinn = [oracle.inner_diderivation(d.c_vdash, d.c_dashv, oracle.unit(n, i))
                for i in range(n)]
        dinn_flat = [oracle.flatten(t) for t in dinn]
        members = [(s, zero) for s in dinn] + [(zero, t) for t in der]
        combined = [(s, zero) for s in dider] + [(zero, t) for t in der]
        member_flat = [flat_pair(x) for x in members]
        if not all(oracle.in_span(member_flat,
                                  flat_pair(oracle.bider_bracket(x, y)))
                   for x in members for y in combined):
            failures.append(f"{label}: <DInn+Der, Bider> leaves DInn+Der")
        if any(not oracle.in_span(dinn_flat, oracle.flatten(oracle.commutator(s, t)))
               for s in dider for t in der):
            not_two_sided.add(label)
        if res["dinn_der_ideal"] == (label in not_two_sided):
            failures.append(f"{label}: dinn_der_ideal {res['dinn_der_ideal']}")
    if not_two_sided != DINN_DER_NOT_TWO_SIDED:
        failures.append(f"DInn+Der not two-sided on {sorted(not_two_sided)}")

    d13 = instantiate("Dias3_13")
    e21, e11 = oracle.matrix_unit(3, 1, 0), oracle.matrix_unit(3, 0, 0)
    if not (oracle.satisfies(d13.c_vdash, d13.c_dashv, e21)
            and oracle.satisfies(d13.c_vdash, d13.c_dashv, e11, twisted=False)
            and not any(any(oracle.flatten(oracle.inner_diderivation(
                d13.c_vdash, d13.c_dashv, oracle.unit(3, i)))) for i in range(3))
            and oracle.commutator(e21, e11) == e21):
        failures.append("Dias3_13: [E21,E11] = E21 outside DInn = 0 not found")
    ok = not failures
    detail = ("closure, right identity, DInn+Inn ideal and one-sided "
              "<DInn+Der, Bider> on all entries; DInn+Der not two-sided on "
              f"{len(DINN_DER_NOT_TWO_SIDED)} entries, e.g. Dias3_13 "
              "[E21,E11] = E21 with DInn = 0") if ok else "; ".join(failures[:4])
    assert report(8, ok, detail)


def test_criterion_09_polynomial_dialgebra_suite():
    """K[x,y]: axioms, annihilator, derivation form, Ad_p, diderivation form.

    Tabled: (delta(x), delta(y)) = (f, g) is a diderivation for any f, g.
    False unless f = g: 1 -| 1 = 1 forces delta(1) = 0, and then
    delta(y) = delta(1 -| x) = delta(1) -| x + 1 |- delta(x) = delta(x).
    """
    bound = 8
    lines = []
    ok = True

    axioms = check_axioms_truncated(6)
    if axioms["violations"]:
        ok = False
        lines.append("axiom sweep fails")
    else:
        lines.append(f"axioms clean on {axioms['triples']} triples")

    rng = random.Random("acceptance:kxy")
    x_minus_y = BivariatePoly.var_x(bound) - BivariatePoly.var_y(bound)
    agree = 0
    for _ in range(200):
        coeffs = {}
        for _t in range(rng.randint(0, 6)):
            a = rng.randint(0, bound)
            b = rng.randint(0, bound - a)
            coeffs[(a, b)] = F(rng.randint(-5, 5))
        h = BivariatePoly(coeffs, bound)
        if rng.random() < 0.4 and h.total_degree() < bound:
            h = h * x_minus_y
        divisible, _q = divides_x_minus_y(h)
        if divisible == ann_membership(h):
            agree += 1
    if agree != 200:
        ok = False
        lines.append(f"annihilator test disagrees on {200 - agree} of 200")
    else:
        lines.append("annihilator = (x-y)-multiples on 200 seeded polys")

    # the identity sweeps run at the bound of their polynomials, 6
    derivation_specs = [
        (BivariatePoly.one(6), BivariatePoly.zero(6)),
        (BivariatePoly({(1, 0): 1}, 6), BivariatePoly({(1, 1): 1}, 6)),
        (BivariatePoly({(2, 0): 3, (0, 0): -1}, 6),
         BivariatePoly({(0, 2): 1, (1, 0): 2}, 6)),
    ]
    der_bad = sum(
        bool(check_derivation_identity(f, g)["violations"])
        for f, g in derivation_specs)
    if der_bad:
        ok = False
        lines.append(f"{der_bad} derivation specs violate the rule")
    else:
        lines.append("derivation closed form verified")

    one, zero = BivariatePoly.one(bound), BivariatePoly.zero(bound)
    x, y = BivariatePoly.var_x(bound), BivariatePoly.var_y(bound)
    split_spec = KxyOperatorSpec("dider", f=one, g=zero)
    split = check_dider_identity(BivariatePoly.one(6), BivariatePoly.zero(6))
    first = split["violations"][0] if split["violations"] else None
    residual = (dashv(split_spec.apply(one), x) + vdash(one, split_spec.apply(x))
                - split_spec.apply(dashv(one, x)))
    refuted = (first == {"product": "dashv", "pair": ((0, 0), (1, 0))}
               and dashv(one, x) == y and residual == one - zero)
    rng3 = random.Random("acceptance:dider")
    same_pairs = [BivariatePoly({(1, 1): 1, (0, 0): 2}, 6)]
    while len(same_pairs) < 4:
        w = BivariatePoly({(rng3.randint(0, 2), rng3.randint(0, 1)):
                           F(rng3.randint(-3, 3)) for _ in range(3)}, 6)
        if w:
            same_pairs.append(w)
    joint_clean = all(not check_dider_identity(w, w)["violations"]
                      for w in same_pairs)
    if refuted and joint_clean:
        lines.append(
            "two-generator form fails for f=1, g=0 at pair ((0,0),(1,0)) "
            "under dashv with residual delta(x)-delta(y) = 1 "
            f"({len(split['violations'])} violations across {split['pairs']} "
            f"pairs); f=g form clean on {len(same_pairs)} pairs")
    else:
        ok = False
        lines.append(f"split pair first violation {first}, residual {residual}"
                     f", f=g form clean: {joint_clean}")

    rng2 = random.Random("acceptance:ad")
    inner_ok = True
    for _ in range(50):
        p = BivariatePoly({(rng2.randint(0, 2), rng2.randint(0, 2)):
                           F(rng2.randint(-3, 3))}, bound)
        h = BivariatePoly({(rng2.randint(0, 3), rng2.randint(0, 2)):
                           F(rng2.randint(-3, 3))}, bound)
        try:
            out = inner_dider_apply(p, h)
        except DegreeBoundError:
            continue
        except AssertionError:
            inner_ok = False
            break
        if not ann_membership(out):
            inner_ok = False
            break
    if inner_ok:
        lines.append("Ad_p operator route = closed form, image in ann")
    else:
        ok = False
        lines.append("inner diderivation routes disagree")

    assert report(9, ok, "; ".join(lines))


def test_criterion_10_ambiguity_findings():
    sweep = verify_catalog(sample_count=3, seed=0)
    text = "\n".join(sweep["findings"])
    documented = ("Dias3_9" in text and "Dias3_11" in text
                  and "Dias3_17" in text)
    twin_mismatch = [f for f in sweep["failures"] if "Dias3_17" in f]
    nine = diderivation_space(instantiate("Dias3_9"))
    eleven = diderivation_space(instantiate("Dias3_11"))
    ok = documented and not twin_mismatch and nine == eleven
    detail = ("findings cover 9 vs 11 (identical kernels) and 16 vs 17 "
              "(parameter rename, equal solver kernels)") if ok else \
        f"documented={documented}, twin failures={twin_mismatch}"
    assert report(10, ok, detail)


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "diaskit.cli", "catalog",
           "--samples", "5", "--seed", "7", "--machine"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    if ok:
        json.loads(first.stdout)
        detail = f"two runs byte-identical ({len(first.stdout)} bytes)"
    else:
        detail = (f"return codes {first.returncode}/{second.returncode}, "
                  f"outputs equal: {first.stdout == second.stdout}")
    assert report(11, ok, detail)
