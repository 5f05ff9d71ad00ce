"""Exact oracle for the acceptance tests, independent of diaskit.

Standard library only; nothing here imports ``diaskit``.  A dialgebra is
taken as plain data: its structure constants ``c_vdash[i][j][k]`` and
``c_dashv[i][j][k]``, the coefficient of ``e_k`` in ``e_i * e_j``
(0-based).  An operator is an n-by-n list of rows whose column ``j`` holds
the image of ``e_j``.

The identities are evaluated by multiplying vectors, never by assembling
the solver's constraint rows, and every rank, kernel and determinant comes
from the dense ``Fraction`` elimination below:

    derivation      T(a * b) = T(a) * b + a * T(b)          (same product)
    diderivation    T(a * b) = T(a) dashv b + a vdash T(b)   (both products)
"""

from fractions import Fraction

PRODUCTS = ("dashv", "vdash")


def unit(n, i):
    return [Fraction(int(r == i)) for r in range(n)]


def matrix_unit(n, a, b):
    """E_(a+1)(b+1): the operator sending e_b to e_a (0-based a, b)."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[a][b] = Fraction(1)
    return rows


def product(c, x, y):
    out = [Fraction(0)] * len(c)
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            for j, b in ys:
                for k, z in enumerate(c[i][j]):
                    if z:
                        out[k] += a * b * z
    return out


AXIOMS = ("assoc_dashv", "absorb_dashv", "inner", "absorb_vdash", "assoc_vdash")


def axiom_records(c_vdash, c_dashv):
    """(axiom, triple, lhs, rhs) for every basis triple and axiom that fails,
    triples in lexicographic order, axioms in Loday's order:

        (x -| y) -| z = x -| (y -| z)      x -| (y -| z) = x -| (y |- z)
        (x |- y) -| z = x |- (y -| z)      (x -| y) |- z = (x |- y) |- z
        (x |- y) |- z = x |- (y |- z)
    """
    n = len(c_vdash)

    def dv(x, y):
        return product(c_dashv, x, y)

    def vd(x, y):
        return product(c_vdash, x, y)

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = unit(n, i), unit(n, j), unit(n, k)
                sides = ((dv(dv(x, y), z), dv(x, dv(y, z))),
                         (dv(x, dv(y, z)), dv(x, vd(y, z))),
                         (dv(vd(x, y), z), vd(x, dv(y, z))),
                         (vd(dv(x, y), z), vd(vd(x, y), z)),
                         (vd(vd(x, y), z), vd(x, vd(y, z))))
                out += [(name, (i, j, k), lhs, rhs)
                        for name, (lhs, rhs) in zip(AXIOMS, sides) if lhs != rhs]
    return out


def leibniz_violations(c_vdash, c_dashv, right):
    """Basis triples, in order, where [x, y] = x -| y - y |- x breaks the
    right identity [[x,y],z] = [[x,z],y] + [x,[y,z]] or the left identity
    [x,[y,z]] = [[x,y],z] + [y,[x,z]]."""
    n = len(c_vdash)

    def br(x, y):
        return [a - b for a, b in zip(product(c_dashv, x, y), product(c_vdash, y, x))]

    def add(u, v):
        return [a + b for a, b in zip(u, v)]

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = unit(n, i), unit(n, j), unit(n, k)
                if right:
                    holds = br(br(x, y), z) == add(br(br(x, z), y), br(x, br(y, z)))
                else:
                    holds = br(x, br(y, z)) == add(br(br(x, y), z), br(y, br(x, z)))
                if not holds:
                    out.append((i, j, k))
    return out


def apply(t, v):
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero if row[j]), Fraction(0))
            for row in t]


def flatten(t):
    return [Fraction(x) for row in t for x in row]


def commutator(a, b):
    n = len(a)

    def mul(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(n) if x[i][k]), Fraction(0))
                 for j in range(n)] for i in range(n)]

    ab, ba = mul(a, b), mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def residuals(c_vdash, c_dashv, t, twisted=True):
    """Map (product, i, j) to T(e_i * e_j) minus the identity's right side.

    ``twisted=True`` is the diderivation identity, ``False`` the derivation
    identity.  The operator satisfies the identity iff every residual is 0.
    """
    n = len(c_vdash)
    cubes = {"dashv": c_dashv, "vdash": c_vdash}
    t = [[Fraction(x) for x in row] for row in t]
    out = {}
    for name in PRODUCTS:
        first = c_dashv if twisted else cubes[name]
        second = c_vdash if twisted else cubes[name]
        for i in range(n):
            for j in range(n):
                ei, ej = unit(n, i), unit(n, j)
                lhs = apply(t, product(cubes[name], ei, ej))
                rhs = [a + b for a, b in zip(product(first, apply(t, ei), ej),
                                             product(second, ei, apply(t, ej)))]
                out[(name, i, j)] = [a - b for a, b in zip(lhs, rhs)]
    return out


def satisfies(c_vdash, c_dashv, t, twisted=True):
    return all(not any(r) for r in
               residuals(c_vdash, c_dashv, t, twisted).values())


def rref(rows):
    """Textbook reduced row echelon form over Q, lowest column first.

    Returns the nonzero reduced rows and their pivot columns.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Kernel basis of the rows read off their RREF: the vector of each
    free column has 1 there, 0 at the other free columns."""
    reduced, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(v)
    return basis


def det(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    n = len(work)
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            out = -out
        out *= work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / work[col][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return out


def kernel_dim(c_vdash, c_dashv, twisted=True):
    """Dimension of the (di)derivation space: n^2 minus the rank of T -> residual.

    The map is linear in T, so its rank is the rank of the residuals of the
    n^2 matrix units, each flattened into one row.
    """
    n = len(c_vdash)
    rows = []
    for a in range(n):
        for b in range(n):
            res = residuals(c_vdash, c_dashv, matrix_unit(n, a, b), twisted)
            rows.append([x for key in sorted(res) for x in res[key]])
    return n * n - rank(rows)


def kernel_basis(c_vdash, c_dashv, twisted=True):
    """The RREF basis of the (di)derivation space, flattened row-major.

    Column (a, b) of the system is the residual of the matrix unit E_ab,
    so each row of the system is one component of one residual.
    """
    n = len(c_vdash)
    columns = []
    for a in range(n):
        for b in range(n):
            res = residuals(c_vdash, c_dashv, matrix_unit(n, a, b), twisted)
            columns.append([x for key in sorted(res) for x in res[key]])
    system = [list(row) for row in zip(*columns) if any(row)]
    return rref(nullspace(system, n * n))[0]


def in_span(vectors, v):
    return rank(list(vectors) + [v]) == rank(vectors)


def same_span(us, vs):
    r = rank(us)
    return r == rank(vs) == rank(list(us) + list(vs))


def inner_derivation(c_vdash, c_dashv, a):
    """ad_a: x -> x dashv a - a vdash x, as an operator."""
    n = len(c_vdash)
    cols = [[x - y for x, y in zip(product(c_dashv, unit(n, j), a),
                                   product(c_vdash, a, unit(n, j)))]
            for j in range(n)]
    return [[cols[j][r] for j in range(n)] for r in range(n)]


def inner_diderivation(c_vdash, c_dashv, a):
    """Ad_a: x -> x vdash a - a dashv x, as an operator."""
    n = len(c_vdash)
    cols = [[x - y for x, y in zip(product(c_vdash, unit(n, j), a),
                                   product(c_dashv, a, unit(n, j)))]
            for j in range(n)]
    return [[cols[j][r] for j in range(n)] for r in range(n)]


def bar_unit_system(c_vdash, c_dashv):
    """The rows A and right-hand side b of the bar units e: the equations
    e vdash e_j = e_j and e_j dashv e = e_j, one per coordinate.  The
    bar-center is the kernel of A."""
    n = len(c_vdash)
    rows, rhs = [], []
    for j in range(n):
        ej = unit(n, j)
        for image in ([product(c_vdash, unit(n, i), ej) for i in range(n)],
                      [product(c_dashv, ej, unit(n, i)) for i in range(n)]):
            rows += [[image[i][r] for i in range(n)] for r in range(n)]
            rhs += ej
    return rows, rhs


def bider_bracket(x, y):
    """<(s, d), (s', d')> = ([s, d'], [d, d'])."""
    (s, d), (_s2, d2) = x, y
    return commutator(s, d2), commutator(d, d2)


# Dias3_16: the dashv equations for the pairs (1,1), (1,3), (3,1), (3,3) and
# the vdash equation for (1,1), each read off the e2 component, in the
# unknowns (d11, d13, d22, d31, d33).  1-based, as the case analysis prints.
DIAS316_EQUATIONS = (("dashv", 1, 1), ("dashv", 1, 3), ("dashv", 3, 1),
                     ("dashv", 3, 3), ("vdash", 1, 1))
DIAS316_UNKNOWNS = ((1, 1), (1, 3), (2, 2), (3, 1), (3, 3))


def dias316_subsystem(c_vdash, c_dashv, equations=DIAS316_EQUATIONS):
    """Rows of the Dias3_16 diderivation subsystem in DIAS316_UNKNOWNS.

    Entry (row, col) is the coefficient of the column's unknown in the
    row's equation (product, i, j), read off the e2 component of the
    diderivation residual of the matrix unit: the residual is linear in T
    and vanishes at T = 0.
    """
    n = len(c_vdash)
    columns = []
    for a, b in DIAS316_UNKNOWNS:
        res = residuals(c_vdash, c_dashv, matrix_unit(n, a - 1, b - 1))
        columns.append([res[(name, i - 1, j - 1)][1]
                        for name, i, j in equations])
    return [[col[r] for col in columns] for r in range(len(equations))]
