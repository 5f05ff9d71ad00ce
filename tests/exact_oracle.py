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

The polynomial dialgebra K[x,y] of ``diaskit.kxy`` has its own section at
the end: products expanded from exponent maps and the closed operator
images, on plain dicts of exponent pairs.
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



def is_isomorphism(cubes_a, cubes_b, p):
    """Whether p is an isomorphism from the dialgebra with cubes
    ``(c_vdash, c_dashv)`` = cubes_a onto the one with cubes_b: det p != 0
    and phi(e_i * e_j) = phi(e_i) * phi(e_j) for both products, where
    phi(e_j) is column j of p."""
    n = len(p)
    if det(p) == 0:
        return False
    images = [[Fraction(row[j]) for row in p] for j in range(n)]
    return all(apply(p, c_a[i][j]) == product(c_b, images[i], images[j])
               for c_a, c_b in zip(cubes_a, cubes_b)
               for i in range(n) for j in range(n))

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


def maps_into(operators, vectors, target):
    """Whether every operator sends every vector into the span of
    ``target``: the target's rank, with each image added, stays its rank.
    An empty target is 0."""
    r = rank(target)
    return all(rank(list(target) + [apply(t, v)]) == r for t in operators for v in vectors)


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


# ---------------------------------------------------------------------------
# The polynomial dialgebra K[x,y]
#
# A polynomial is a dict {(deg_x, deg_y): Fraction} without zero values, and
#
#     f -| g = f(x,y) g(y,y)        f |- g = f(x,x) g(x,y)
#
# so on monomials x^a y^b -| x^c y^d = x^a y^(b+c+d) and
# x^a y^b |- x^c y^d = x^(a+b+c) y^d.  Every product is expanded term by
# term from these exponent maps; nothing is checked against a degree bound.


def _expand(f, g, exponent):
    out = {}
    for (a, b), c in f.items():
        for (p, q), d in g.items():
            e = exponent(a, b, p, q)
            out[e] = out.get(e, Fraction(0)) + c * d
    return {e: c for e, c in out.items() if c}


def poly_mul(f, g):
    return _expand(f, g, lambda a, b, p, q: (a + p, b + q))


def poly_dashv(f, g):
    return _expand(f, g, lambda a, b, p, q: (a, b + p + q))


def poly_vdash(f, g):
    return _expand(f, g, lambda a, b, p, q: (a + b + p, q))


def poly_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def poly_degree(f):
    return max((a + b for a, b in f), default=-1)


def monomials(total):
    """Exponent pairs of total degree at most ``total``, lexicographic."""
    return [(a, b) for a in range(total + 1) for b in range(total + 1 - a)]


def _products(dashv, vdash):
    """The two products, with the exponent maps ``dashv`` and ``vdash`` in
    place of the true ones where given."""
    return ((lambda f, g: _expand(f, g, dashv)) if dashv else poly_dashv,
            (lambda f, g: _expand(f, g, vdash)) if vdash else poly_vdash)


def kxy_axiom_sweep(bound, dashv=None, vdash=None):
    """(triples, violations) of the five axioms on the monomial triples of
    degree sum at most ``bound``, triples lexicographic.

    ``dashv`` and ``vdash``, when given, replace the exponent maps of the
    two products: each takes (a, b, p, q) for x^a y^b and x^p y^q and
    returns the exponent pair of their product."""
    dv, vd = _products(dashv, vdash)
    triples, violations = 0, []
    for u in monomials(bound):
        for v in monomials(bound - sum(u)):
            for w in monomials(bound - sum(u) - sum(v)):
                triples += 1
                x, y, z = ({u: Fraction(1)}, {v: Fraction(1)}, {w: Fraction(1)})
                for name, lhs, rhs in (
                        ("assoc_dashv", dv(dv(x, y), z), dv(x, dv(y, z))),
                        ("absorb_dashv", dv(x, dv(y, z)), dv(x, vd(y, z))),
                        ("inner", dv(vd(x, y), z), vd(x, dv(y, z))),
                        ("absorb_vdash", vd(dv(x, y), z), vd(vd(x, y), z)),
                        ("assoc_vdash", vd(vd(x, y), z), vd(x, vd(y, z)))):
                    if lhs != rhs:
                        violations.append((name, (u, v, w)))
    return triples, violations


def derivation_image(f, g, m, n):
    """d(x^m y^n) = m x^(m-1) y^n f(x) + x^m y^n (x-y) g + n x^m y^(n-1) f(y)
    for f univariate in x."""
    out = poly_mul({(m + 1, n): Fraction(1), (m, n + 1): Fraction(-1)}, g)
    if m:
        out = poly_add(out, poly_mul({(m - 1, n): Fraction(m)}, f))
    if n:
        f_of_y = {(b, a): c for (a, b), c in f.items()}
        out = poly_add(out, poly_mul({(m, n - 1): Fraction(n)}, f_of_y))
    return out


def diderivation_image(f, g, m, n):
    """delta(x^m y^n) = f y^n (x^m - y^m)/(x - y) + g x^m (x^n - y^n)/(x - y),
    each quotient written out as its geometric sum."""
    y_n_s_m = {(k, n + m - 1 - k): Fraction(1) for k in range(m)}
    x_m_s_n = {(m + k, n - 1 - k): Fraction(1) for k in range(n)}
    return poly_add(poly_mul(f, y_n_s_m), poly_mul(g, x_m_s_n))


def kxy_identity_sweep(f, g, bound, twisted, dashv=None, vdash=None):
    """(pairs, violations) of the derivation identity (``twisted=False``,
    with ``derivation_image``) or the diderivation identity (with
    ``diderivation_image``) for both products, on the monomial pairs u, v
    of degree sum at most bound - growth: growth is the most the closed form
    can raise total degree, max(deg f - 1, deg g + 1, 0) for a derivation
    and max(deg f, deg g, 1) - 1 for a diderivation.  Pairs lexicographic,
    dashv before vdash.  ``dashv`` and ``vdash``, when given, replace the
    exponent maps of the two products, as in ``kxy_axiom_sweep``."""
    dv, vd = _products(dashv, vdash)
    if twisted:
        image, growth = diderivation_image, max(poly_degree(f), poly_degree(g), 1) - 1
    else:
        image, growth = derivation_image, max(poly_degree(f) - 1, poly_degree(g) + 1, 0)
    pairs, violations = 0, []
    for u in monomials(bound - growth):
        for v in monomials(bound - growth - sum(u)):
            pairs += 1
            image_u, image_v = image(f, g, *u), image(f, g, *v)
            for name, mul in (("dashv", dv), ("vdash", vd)):
                (uv,) = mul({u: Fraction(1)}, {v: Fraction(1)})
                first = dv if twisted else mul
                second = vd if twisted else mul
                rhs = poly_add(first(image_u, {v: Fraction(1)}),
                               second({u: Fraction(1)}, image_v))
                if image(f, g, *uv) != rhs:
                    violations.append({"product": name, "pair": (u, v)})
    return pairs, violations
