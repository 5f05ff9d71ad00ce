"""Truncated model of the bivariate polynomial dialgebra.

On K[x,y] the two products are

    f -| g = f(x,y) * g(y,y)        f |- g = f(x,x) * g(x,y)

which make K[x,y] a dialgebra with bar unit 1.  The ring is infinite
dimensional, so this module works under an ambient total-degree bound:
every operation is exact, and a result that would leave the bound raises
``DegreeBoundError`` instead of truncating.  On top of the products it
implements the structure invariants (annihilator and halo membership) and
the closed operator formulas: the derivation form

    d(x^m y^n) = m x^(m-1) y^n f(x) + x^m y^n (x-y) g(x,y)
                 + n x^m y^(n-1) f(y)        (univariate f)

the two-generator diderivation form built from geometric sums, and the
inner diderivation h |-> p * (h(x,x) - h(y,y)).  Geometric sums are always
assembled term by term, never via division by (x-y); the one place a
division appears (the annihilator divisibility oracle) is an independent
synthetic-division cross-check, not a computational shortcut.  A closed
form is one ``KxyOperatorSpec``: its kind is the ``core.RULES`` key of
its rule, ``"der"`` or ``"dider"``, and its ``apply_monomial`` is the one
way to its images.  Each image is written out term by term in one dict
and built as one polynomial from it.  Each summand's degree is
checked against the bound before any term is added, so an image raises
``DegreeBoundError`` where a product of the summand's factors would, even
when the sum cancels the terms past the bound.

The arithmetic and the coefficient storage are those of ``poly.Poly``.

Both products of two monomials are one monomial of coefficient 1.  So
every sweep reads its products from one table per bound.  It numbers the
monomials of degree at most the bound in lexicographic order of their
exponent pairs and holds, for every pair (i, j) of degree sum at most the
bound, the numbers of ``e_i -| e_j`` and ``e_i |- e_j``; each is computed
once by ``dashv`` and ``vdash`` and checked to be such a monomial.  The
last table is kept, keyed on the bound and on the two product functions
it was built with, so the sweeps of one bound share it and a replaced
product never reads a stale one.  The axiom sweep reads every product of
a triple from it by list indexing.  The derivation and diderivation
identities are checked by one bounded sweep over monomial pairs that
reads the products of the spec's kind from ``core.RULES``.  Its bound
is the smaller bound of the spec's two polynomials, the one its images
take.  It computes the operator image of each monomial once, keys it by
monomial number and scales every image by one common denominator, so
that the pair loop adds only ints.
It reads ``u * v`` from the table, forms each distinct right side by
bilinearity in one dict, reading ``t o1 v`` from a transposed copy of
the table, and compares coefficients.  The same table gives the
structure constants of the graded truncations ``truncation(n)``, which
the main solver handles as ordinary dialgebras.  Reports name monomials
by exponent pair.
``format_poly`` renders polynomials for reports; nothing reads polynomials
back from text, so there is no parser.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache

from .core import AXIOM_NAMES, RULES, Dialgebra, check_dim
from .poly import DegreeBoundError, Poly
from .ratlin import Scalar

Exponents = tuple[int, int]


class BivariatePoly(Poly):
    """A ``poly.Poly`` in x and y under a total-degree bound.

    The bound is a modeling device, not a quotient: a result whose exact
    value has a term beyond it fails loudly with ``DegreeBoundError``, and a
    result of two polynomials has the smaller of their bounds.
    """

    __slots__ = ("bound",)

    def __init__(self, terms: Mapping[Exponents, Scalar], bound: int):
        # exactly int: a float or a bool bound would fail later, in a sweep
        if type(bound) is not int or bound < 0:
            raise ValueError(f"bound {bound!r} is not a nonnegative integer")
        self.bound = bound
        Poly.__init__(self, 2, terms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(bound: int) -> "BivariatePoly":
        return BivariatePoly({}, bound)

    @staticmethod
    def one(bound: int) -> "BivariatePoly":
        return BivariatePoly({(0, 0): 1}, bound)

    @staticmethod
    def monomial(a: int, b: int, c: Scalar, bound: int) -> "BivariatePoly":
        return BivariatePoly({(a, b): c}, bound)

    @staticmethod
    def var_x(bound: int) -> "BivariatePoly":
        return BivariatePoly({(1, 0): 1}, bound)

    @staticmethod
    def var_y(bound: int) -> "BivariatePoly":
        return BivariatePoly({(0, 1): 1}, bound)

    def total_degree(self) -> int:
        """Total degree, with the usual convention -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    # Poly.__mul__ under this class's own name, where perfbench's tracer
    # times kxy multiplications.  It checks the product's terms against the
    # smaller bound: over the rationals the top-degree parts of two nonzero
    # factors have a nonzero product, so it raises exactly when their total
    # degrees add up past that bound.
    __mul__ = Poly.__mul__

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BivariatePoly({format_poly(self)!r}, bound={self.bound})"


# ---------------------------------------------------------------------------
# Dialgebra products


def dashv(f: BivariatePoly, g: BivariatePoly) -> BivariatePoly:
    """f -| g = f(x,y) * g(y,y)."""
    return f * g.rename(1, 1)


def vdash(f: BivariatePoly, g: BivariatePoly) -> BivariatePoly:
    """f |- g = f(x,x) * g(x,y)."""
    return f.rename(0, 0) * g


def _exponents_up_to(total: int) -> list[Exponents]:
    """Exponent pairs of total degree at most ``total``, lexicographic, so
    the list for a smaller total keeps the order of this one."""
    return [(a, b) for a in range(total + 1) for b in range(total + 1 - a)]


def _exponent(p: BivariatePoly) -> Exponents:
    """The exponent pair of a monomial of coefficient 1.

    Raises on anything else, so a product table never records a product
    that is not such a monomial.
    """
    if len(p.terms) != 1 or next(iter(p.terms.values())) != 1:
        raise AssertionError(
            f"product of monomials is not a monomial of coefficient 1: {p}")
    (e,) = p.terms
    return e


Row = tuple[int | None, ...]
ProductTable = tuple[list[Exponents], dict[Exponents, int], tuple[Row, ...], tuple[Row, ...]]
Product = Callable[[BivariatePoly, BivariatePoly], BivariatePoly]


def _product_table(bound: int) -> ProductTable:
    """The products of every pair of monomials of degree sum at most
    ``bound``, under ``bound``, indexed by monomial.

    Returns ``(exps, index, dv, vd)``: monomial i is ``exps[i]``, the i-th
    exponent pair of ``_exponents_up_to(bound)``, and ``index`` inverts
    ``exps``.  Both products of two monomials are one monomial of the
    summed degree, so ``dv[i][j]`` and ``vd[i][j]`` are the indices of
    ``e_i -| e_j`` and ``e_i |- e_j``, and ``None`` for a pair past the
    bound.  Each is computed once, by the ``dashv`` and ``vdash`` in force
    when the table is built.  The last table is kept, keyed on the bound
    and on those two functions, so the sweeps of one bound share it and a
    replaced product builds a new one.  Callers share the table: it is
    read-only.
    """
    return _build_product_table(bound, dashv, vdash)


@lru_cache(maxsize=1)
def _build_product_table(bound: int, dashv: Product, vdash: Product) -> ProductTable:
    exps = _exponents_up_to(bound)
    index = {e: i for i, e in enumerate(exps)}
    monos = [BivariatePoly.monomial(*e, 1, bound) for e in exps]
    dv = [[None] * len(exps) for _ in exps]
    vd = [[None] * len(exps) for _ in exps]
    for i, u in enumerate(exps):
        for v in _exponents_up_to(bound - sum(u)):
            j = index[v]
            dv[i][j] = index[_exponent(dashv(monos[i], monos[j]))]
            vd[i][j] = index[_exponent(vdash(monos[i], monos[j]))]
    return exps, index, tuple(map(tuple, dv)), tuple(map(tuple, vd))


def check_axioms_truncated(bound: int) -> dict:
    """Exhaustively check the five dialgebra axioms on monomial triples.

    Covers every triple of monomials whose degree sum stays within the
    bound; the products only redistribute degrees, so every intermediate
    term of such a triple is representable.  Every product of a triple is
    read from the product table of the bound, by index.
    """
    if bound < 3:
        raise ValueError("bound must be >= 3")
    exps, index, dv, vd = _product_table(bound)
    ids = [[index[e] for e in _exponents_up_to(t)] for t in range(bound + 1)]
    violations = []
    tried = 0
    for x in ids[bound]:
        x_d, x_v, room = dv[x], vd[x], bound - sum(exps[x])
        for y in ids[room]:
            y_d, y_v = dv[y], vd[y]
            # the rows of (x -| y) and of (x |- y) under -| and |-
            xdy_d, xdy_v = dv[x_d[y]], vd[x_d[y]]
            xvy_d, xvy_v = dv[x_v[y]], vd[x_v[y]]
            for z in ids[room - sum(exps[y])]:
                tried += 1
                x_yz_d, xy_v_z = x_d[y_d[z]], xvy_v[z]
                # the left and the right sides of the five axioms
                lhs = (xdy_d[z], x_yz_d, xvy_d[z], xdy_v[z], xy_v_z)
                rhs = (x_yz_d, x_d[y_v[z]], x_v[y_d[z]], xy_v_z, x_v[y_v[z]])
                if lhs != rhs:
                    violations += [{"axiom": label, "triple": (exps[x], exps[y], exps[z])}
                                   for label, a, b in zip(AXIOM_NAMES, lhs, rhs) if a != b]
    return {"bound": bound, "triples": tried, "violations": violations}


def truncation(n: int) -> Dialgebra:
    """The dialgebra K[x,y]/(deg > n) of dimension (n+1)(n+2)/2.

    Both products add total degree, so the monomials of degree above ``n``
    span a two-sided ideal.  Basis element i + 1 is monomial i of the
    product table of bound ``n``, the i-th x^a y^b of degree at most ``n``
    in lexicographic order of (a, b); a product past the bound is zero.
    The structure constants are read from the same table as
    ``check_axioms_truncated``.  ``core.MAX_DIM`` limits ``n`` to 6; a
    larger ``n`` is rejected before the table is built.
    """
    if n < 0:
        raise ValueError("truncation degree must be nonnegative")
    check_dim((n + 1) * (n + 2) // 2)
    exps, _index, *tables = _product_table(n)
    relations = {}
    for name, table in zip(("dashv", "vdash"), tables):
        for i, row in enumerate(table, start=1):
            for j, w in enumerate(row, start=1):
                if w is not None:
                    relations[name, i, j] = [(w + 1, 1)]
    return Dialgebra.from_relations(len(exps), relations)


# ---------------------------------------------------------------------------
# Annihilator and halo


def ann_membership(h: BivariatePoly) -> bool:
    """True iff h(x,x) = 0 and h(y,y) = 0."""
    # h(y,y) is h(x,x) with x renamed to y, so one vanishes exactly when
    # the other does: only h(x,x) is formed.
    return not h.rename(0, 0)


def divides_x_minus_y(h: BivariatePoly) -> tuple[bool, BivariatePoly | None]:
    """Synthetic division by (x - y): returns (divisible, quotient).

    Treats h as a polynomial in x over K[y] and runs Horner division; this
    is the independent oracle for the annihilator membership property and
    is used nowhere else.
    """
    # row a holds the coefficient of x^a as a polynomial in y, {b: c}
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(max(h.degree(0), 0) + 1)]
    for (a, b), c in h.terms.items():
        rows[a][b] = c
    quotient: dict[Exponents, int | Fraction] = {}
    for a in range(len(rows) - 1, 0, -1):
        # row a, with its carry already added, is the quotient's x^(a-1)
        # row; dividing by (x - y) carries it, times y, onto row a - 1
        below = rows[a - 1]
        for b, c in rows[a].items():
            if c:
                quotient[(a - 1, b)] = c
                below[b + 1] = below.get(b + 1, 0) + c
    if any(rows[0].values()):
        return False, None
    return True, BivariatePoly(quotient, h.bound)


def halo_membership(h: BivariatePoly) -> bool:
    """True iff h - 1 lies in the annihilator.

    Cross-checked against the defining property: h must act as a bar unit
    on monomials (h |- m = m and m -| h = m for every in-bound monomial m).
    The two routes agree identically; a disagreement would indicate a
    product implementation bug, so it raises instead of returning.
    """
    primary = ann_membership(h - BivariatePoly.one(h.bound))
    direct = True
    room = h.bound - max(h.total_degree(), 0)
    for a, b in _exponents_up_to(max(room, 0)):
        m = BivariatePoly.monomial(a, b, 1, h.bound)
        if vdash(h, m) != m or dashv(m, h) != m:
            direct = False
            break
    if primary != direct:
        raise AssertionError("halo membership routes disagree")
    return primary


# ---------------------------------------------------------------------------
# Closed operator formulas


# The fields of ``KxyOperatorSpec``, whose ``__new__`` checks them.
_SpecFields = namedtuple("_SpecFields", "kind f g")


class KxyOperatorSpec(_SpecFields):
    """A closed-form operator on the truncated polynomial dialgebra, and
    the one way to its images: ``apply_monomial`` and ``apply``.

    kind, a key of ``core.RULES``:
      * ``"der"``: the derivation form, data (f, g) with f univariate in x
      * ``"dider"``: the two-generator diderivation form, data (f, g) =
        images of x and y
    """

    __slots__ = ()

    def __new__(cls, kind: str, f: BivariatePoly, g: BivariatePoly):
        if kind not in RULES:
            raise ValueError(f"unknown operator kind {kind!r}")
        if kind == "der" and f.degree(1) > 0:
            raise ValueError("derivation spec requires univariate f(x)")
        return _SpecFields.__new__(cls, kind, f, g)

    def apply_monomial(self, m: int, n: int) -> BivariatePoly:
        image = _der_image if self.kind == "der" else _dider_image
        return image(self.f, self.g, m, n)

    def apply(self, h: BivariatePoly) -> BivariatePoly:
        out: dict[Exponents, int | Fraction] = {}
        for (a, b), c in h.terms.items():
            for key, v in self.apply_monomial(a, b).terms.items():
                out[key] = out.get(key, 0) + c * v
        return BivariatePoly(out, min(h.bound, self.f.bound, self.g.bound))


def geometric_sum(m: int, bound: int) -> BivariatePoly:
    """The telescoping quotient (x^m - y^m)/(x - y) as an explicit sum.

    Returns sum over k < m of x^k y^(m-1-k); empty (zero) for m = 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return BivariatePoly({(k, m - 1 - k): 1 for k in range(m)}, bound)


def _check_image(m: int, n: int, reach: int, bound: int) -> None:
    """Raise ``ValueError`` for a negative m or n, and ``DegreeBoundError``
    when a summand of the closed form for x^m y^n reaches degree ``reach``
    past ``bound``.

    The closed forms check each summand, a product of f or g with a
    monomial, a binomial or a geometric sum, before any term is summed: an
    image whose top terms cancel raises all the same, as the product of
    the summand's factors does.
    """
    if m < 0 or n < 0:
        raise ValueError(f"no monomial x^{m} y^{n}")
    if reach > bound:
        raise DegreeBoundError(
            f"degree bound exceeded: a summand of the image of x^{m} y^{n} "
            f"reaches degree {reach} with bound {bound}")


def _der_image(f: BivariatePoly, g: BivariatePoly, m: int, n: int) -> BivariatePoly:
    """Image of x^m y^n under the closed derivation form for (f, g).

    d(x^m y^n) = m x^(m-1) y^n f(x) + x^m y^n (x-y) g + n x^m y^(n-1) f(y)
    with f univariate in x, which ``KxyOperatorSpec`` checks; f(y) is f
    with the variable renamed.  The summands are written out term by term
    into one dict.
    """
    bound = min(f.bound, g.bound)
    # with g = 0 the middle summand vanishes even where x^m y^n (x-y) alone
    # would pass the bound
    _check_image(m, n, max(m + n - 1 + max(f.total_degree(), 0) if m > 0 or n > 0 else -1,
                           m + n + 1 + g.total_degree() if g else -1), bound)
    out: dict[Exponents, int | Fraction] = {}
    get = out.get
    for (a, _b), c in f.terms.items():
        if m > 0:
            key = (m - 1 + a, n)
            out[key] = get(key, 0) + m * c
        if n > 0:
            key = (m, n - 1 + a)
            out[key] = get(key, 0) + n * c
    for (a, b), c in g.terms.items():
        key = (m + 1 + a, n + b)
        out[key] = get(key, 0) + c
        key = (m + a, n + 1 + b)
        out[key] = get(key, 0) - c
    # wrapped as ``Poly`` wraps a result of arithmetic on f and g: the
    # image takes the smaller bound, and no term's exponents are checked
    # again
    return f._clean(out, g)


def _dider_image(f: BivariatePoly, g: BivariatePoly, m: int, n: int) -> BivariatePoly:
    """Image of x^m y^n under the two-generator diderivation form.

    delta(x^m y^n) = f * y^n * S_m + g * x^m * S_n where S_m is the
    geometric sum with m terms, f = delta(x) and g = delta(y).  The
    summands are written out term by term into one dict.
    """
    bound = min(f.bound, g.bound)
    _check_image(m, n, max(f.total_degree() + m + n - 1 if m > 0 and f else -1,
                           g.total_degree() + m + n - 1 if n > 0 and g else -1), bound)
    out: dict[Exponents, int | Fraction] = {}
    get = out.get
    # y^n S_m = sum over k < m of x^k y^(n+m-1-k), x^m S_n likewise
    if m > 0:
        for (a, b), c in f.terms.items():
            for k in range(m):
                key = (a + k, b + n + m - 1 - k)
                out[key] = get(key, 0) + c
    if n > 0:
        for (a, b), c in g.terms.items():
            for k in range(n):
                key = (a + m + k, b + n - 1 - k)
                out[key] = get(key, 0) + c
    return f._clean(out, g)


def inner_dider_apply(p: BivariatePoly, h: BivariatePoly) -> BivariatePoly:
    """Ad_p(h) = p * (h(x,x) - h(y,y)), cross-checked as h |- p  -  p -| h.

    The two routes are the closed form and the operator definition
    R_vdash(p) - L_dashv(p); they must agree exactly.
    """
    closed = p * (h.rename(0, 0) - h.rename(1, 1))
    operator = vdash(h, p) - dashv(p, h)
    if closed != operator:
        raise AssertionError("inner diderivation routes disagree")
    return closed


def inner_derivation_spec(h: BivariatePoly) -> KxyOperatorSpec:
    """Derivation spec of the inner derivation a -> a -| h - h |- a.

    For univariate h the bracket action is multiplication by
    h(y) - h(x) = (x-y) * g with g assembled from geometric sums, giving
    the closed form with f = 0.  Requires h univariate in x.
    """
    if h.degree(1) > 0:
        raise ValueError("inner derivation spot-check requires univariate h")
    g = BivariatePoly.zero(h.bound)
    for (a, _b), c in h.terms.items():
        # h(y) - h(x) = -sum c_a (x^a - y^a) = -(x-y) * sum c_a S_a
        g = g - geometric_sum(a, h.bound) * c
    return KxyOperatorSpec("der", f=BivariatePoly.zero(h.bound), g=g)


# ---------------------------------------------------------------------------
# Identity sweeps


def _identity_sweep(spec: KxyOperatorSpec, growth: int) -> dict:
    """Compare ``spec(u * v)`` with ``spec(u) o1 v + u o2 spec(v)`` for each
    ``(*, o1, o2)`` of ``core.RULES[spec.kind]`` on monomial pairs.

    The bound is the smaller bound of the spec's two polynomials, the one
    its images take.  Pairs are restricted so that every term of both
    sides stays within it, given that ``spec`` raises degrees by at most
    ``growth``; the sweep is exact on that set.  Both products of two monomials are
    monomials of no larger degree, so every image the sweep compares is
    that of one monomial of degree at most ``bound - growth``; each is
    computed once per call and keyed by monomial number.  Both sides are
    linear in the images, so every image is multiplied by the least common
    multiple of the denominators of all their coefficients: the verdicts
    stay the same and the pair loop adds only ints.  Every product is read
    from the product table of the bound: ``u * v`` directly, and the right
    side by bilinearity, ``p o m = sum c_t (t o m)`` over the terms c_t t
    of an image p.  The o1 table is transposed once per call, so the
    products ``t o1 v`` of a pair are one row of it.  Each distinct
    ``(o1, o2)`` gives one right side per pair, summed into one dict and
    shared by the products whose rule has it.  It is compared with the
    left image as it is; only where they differ are its cancelled (zero)
    coefficients dropped and the two compared again.  An operator that
    raises degree past the bound leaves no pair to compare, so it raises
    ``DegreeBoundError``.
    """
    bound = min(spec.f.bound, spec.g.bound)
    limit = bound - growth
    if limit < 0:
        raise DegreeBoundError(
            f"degree bound exceeded: the operator raises degree by {growth}, "
            f"above the bound {bound}")
    exps, index, dv, vd = _product_table(bound)
    ids = [[index[e] for e in _exponents_up_to(t)] for t in range(limit + 1)]
    unscaled = {u: spec.apply_monomial(*exps[u]).terms for u in ids[limit]}
    scale = math.lcm(*(c.denominator for p in unscaled.values() for c in p.values()))
    # each scaled image as a list of (index, coefficient) terms, the
    # cheapest to walk, and as a dict for the comparison
    terms = {u: [(index[t], c.numerator * (scale // c.denominator)) for t, c in p.items()]
             for u, p in unscaled.items()}
    image = {u: dict(ts) for u, ts in terms.items()}

    # the products of the rule, grouped by the (o1, o2) of their right
    # side; o1 transposed, so that column v of it is one row
    tables = {"dashv": dv, "vdash": vd}
    by_side: dict[tuple[str, str], list[tuple[str, tuple[Row, ...]]]] = {}
    for product, o1, o2 in RULES[spec.kind]:
        by_side.setdefault((o1, o2), []).append((product, tables[product]))
    groups = [(tuple(zip(*tables[o1])), tables[o2], checks)
              for (o1, o2), checks in by_side.items()]
    violations = []
    pairs = 0
    for u in ids[limit]:
        terms_u = terms[u]
        # per group: its o1 columns, row u of its o2 and of each product
        rows_u = [(first_t, second[u], [(label, table[u]) for label, table in checks])
                  for first_t, second, checks in groups]
        for v in ids[limit - sum(exps[u])]:
            pairs += 1
            terms_v = terms[v]
            for first_t, second_u, checks in rows_u:
                # spec(u) o1 v + u o2 spec(v)
                side: dict[int, int] = {}
                get = side.get
                col = first_t[v]
                for t, c in terms_u:
                    w = col[t]
                    side[w] = get(w, 0) + c
                for t, c in terms_v:
                    w = second_u[t]
                    side[w] = get(w, 0) + c
                for label, products in checks:
                    left = image[products[v]]
                    # images hold no zero, so a cancelled term only shows
                    # as a difference: drop zeros then and compare again
                    if left != side:
                        side = {w: c for w, c in side.items() if c}
                        if left != side:
                            violations.append({"product": label, "pair": (exps[u], exps[v])})
    return {"pairs": pairs, "violations": violations}


def check_derivation_identity(f: BivariatePoly, g: BivariatePoly) -> dict:
    """Check d(a*b) = d(a)*b + a*d(b) for both products on monomial pairs,
    up to the polynomials' bound."""
    return _identity_sweep(KxyOperatorSpec("der", f=f, g=g),
                           max(f.total_degree() - 1, g.total_degree() + 1, 0))


def check_dider_identity(f: BivariatePoly, g: BivariatePoly) -> dict:
    """Check delta(a*b) = delta(a) -| b + a |- delta(b) for both products,
    up to the polynomials' bound.

    This is the diderivation rule of ``core.RULES``: both products share
    one right side, so it is formed once per pair.  Note the sweep covers
    pairs whose product vanishes as well, where the identity is a genuine
    constraint.
    """
    return _identity_sweep(KxyOperatorSpec("dider", f=f, g=g),
                           max(f.total_degree(), g.total_degree(), 1) - 1)


# ---------------------------------------------------------------------------
# Plain-text polynomial form
#
# Examples: "1", "x - y", "3*x^2*y - 1/2", "-x*y"


def format_poly(p: BivariatePoly) -> str:
    if not p:
        return "0"
    parts: list[str] = []
    for (a, b), c in sorted(p.terms.items(),
                            key=lambda kv: (-(kv[0][0] + kv[0][1]),
                                            -kv[0][0], -kv[0][1])):
        factors = []
        if a == 1:
            factors.append("x")
        elif a > 1:
            factors.append(f"x^{a}")
        if b == 1:
            factors.append("y")
        elif b > 1:
            factors.append(f"y^{b}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
