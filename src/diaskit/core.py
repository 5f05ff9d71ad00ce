"""Structure-constant dialgebras and their text format.

A dialgebra here is a finite-dimensional rational vector space with two
bilinear products, ``vdash`` and ``dashv``.  Five axioms make the pair
diassociative: each product is associative, and three mixed identities
let the products absorb each other:

    assoc_dashv   (x dashv y) dashv z == x dashv (y dashv z)
    absorb_dashv   x dashv (y dashv z) == x dashv (y vdash z)
    inner         (x vdash y) dashv z == x vdash (y dashv z)
    absorb_vdash  (x dashv y) vdash z == (x vdash y) vdash z
    assoc_vdash   (x vdash y) vdash z == x vdash (y vdash z)

Structure constants are given per product as ``c[i][j][k]``, the
coefficient of basis vector ``k`` in ``e_i * e_j`` (0-based internally;
the text format is 1-based).  A dialgebra is built from these dense
cubes, ``Dialgebra(dim, c_vdash, c_dashv)``, or from sparse relations
``(product, i, j) -> [(k, coeff), ...]``, ``Dialgebra.from_relations``,
which ``phi_dialgebra``, ``parse_dialgebra``, the catalog and the kxy
truncations use; ``from_relations(dim, {})`` is the zero dialgebra.  Both
check the dimension before anything of its size is made, and both feed
one builder, which makes, once, one read-only sparse table per product
(``Dialgebra.table``), whose integral constants are ``int``; relations
never pass through a cube.  The instance stores nothing else: every
product, operator, solver route, comparison and hash reads the tables,
and the cubes ``c_vdash`` and ``c_dashv`` are dense views rebuilt from
them on each read.

Each product, operator and check has one way in: ``table(product)[i][j]``
is the product of two basis vectors, ``multiply(product, x, y)`` that of
two coordinate vectors, ``left_op``/``right_op`` the matrix of a
multiplication operator (``basis_ops`` the sparse operators of the basis)
and ``verify_axioms()``, empty exactly for a dialgebra, the axiom check.
The check compares composite products, (e_i * e_j) *' e_k and
e_i *' (e_j * e_k), as ``composite`` builds them from any two square
sparse tables, at the triples ``unequal_triples`` finds; ``invariants``
checks both Leibniz identities of a bracket table the same way.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

# The text grammar of a rational, ``parse_rational`` and its digit cap
# ``MAX_RATIONAL_DIGITS``, lives in ratlin so that ``frac`` applies it too;
# both stay importable from here.
from .ratlin import (
    MAX_RATIONAL_DIGITS, Exact, Matrix, Row, Scalar, Subspace, Vector, bilinear, dense, frac,
    lincomb, parse_rational, sparse, vector,
)

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

# Largest accepted dimension.  The rule systems have 2n^3 rows over n^2
# unknowns; at n = 32 the derivation space of ``phi_dialgebra`` (weights
# 1, -2, 3, -1, ...) takes 0.04 to 0.06 s to solve, and its diderivation
# space, 0 and so read off its first n^2 rows, 0.02 to 0.04 s;
# ``diaskit spaces --which der --machine`` with both operator routes takes
# 0.19 to 0.35 s and ``--which dider`` 0.09 to 0.16 s (ten runs each, in
# two processes, Python 3.11, one core of a shared 2-vCPU Xeon).
MAX_DIM = 32


class DialgebraError(ValueError):
    """Raised for malformed structure data or unparseable files."""


Cube = list[list[list[Fraction]]]
Table = tuple[tuple[Row, ...], ...]
# The checked constants of one product on their way into its table: the
# Fraction coefficients of each basis product, (i, j) -> {k: c}, 0-based,
# zeros allowed and keys in any order.
Sums = dict[tuple[int, int], dict[int, Fraction]]


def check_dim(dim: int) -> None:
    """Reject a dimension outside 1..MAX_DIM, before anything of that size
    is built."""
    if not 1 <= dim <= MAX_DIM:
        raise DialgebraError(f"dimension {dim} outside supported range 1..{MAX_DIM}")


class Dialgebra:
    """A finite-dimensional dialgebra given by structure constants.

    ``Dialgebra(dim, c_vdash, c_dashv)`` takes dense cubes and
    ``from_relations`` sparse relations; both check the dimension first and
    hand their constants to one builder, which makes the sparse tables.
    The instance is read-only after construction: it holds the tables, and
    its derivation and diderivation spaces once ``spaces`` has solved them.
    ``c_vdash`` and ``c_dashv`` hand back a fresh dense copy on each read,
    so writing into one changes nothing.  Build a new dialgebra for new
    constants.
    """

    __slots__ = ("dim", "_tables", "_spaces")

    def __init__(
        self,
        dim: int,
        c_vdash: Sequence[Sequence[Sequence[Scalar]]],
        c_dashv: Sequence[Sequence[Sequence[Scalar]]],
    ):
        check_dim(dim)
        self._build(dim, {"vdash": _check_cube(dim, c_vdash, "vdash"),
                          "dashv": _check_cube(dim, c_dashv, "dashv")})

    def _build(self, dim: int, sums: Mapping[str, Sums]) -> None:
        """Fill the instance from checked constants: one sparse table per
        product, each row's zero sums dropped, its keys ascending and its
        integral values ``int``, as ``ratlin.sparse`` gives them."""
        self.dim = dim
        self._tables = {}
        for product in PRODUCTS:
            table: list[list[Row]] = [[{} for _ in range(dim)] for _ in range(dim)]
            for (i, j), terms in sums[product].items():
                table[i][j] = {k: x.numerator if x.denominator == 1 else x
                               for k, x in sorted(terms.items()) if x}
            self._tables[product] = tuple(map(tuple, table))
        # Each rule's kernel by rule name ("der", "dider"), filled by
        # ``spaces`` on the first solve and shared read-only after that.
        self._spaces: dict[str, Subspace] = {}

    @property
    def c_vdash(self) -> Cube:
        """The vdash constants as a dense cube, built on each read."""
        return self._cube("vdash")

    @property
    def c_dashv(self) -> Cube:
        """The dashv constants as a dense cube, built on each read."""
        return self._cube("dashv")

    def _cube(self, product: str) -> Cube:
        n = self.dim
        return [[list(dense(n, row)) for row in plane] for plane in self._tables[product]]

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_relations(
        dim: int,
        relations: Mapping[tuple[str, int, int], Iterable[tuple[int, Scalar]]],
    ) -> "Dialgebra":
        """Build from sparse relations ``(product, i, j) -> [(k, coeff), ...]``.

        Indices are 1-based to match the text format and printed tables.
        Unlisted products are zero, and repeated terms of one product add
        up.  No dense cube is made: the terms go straight into the builder
        behind ``Dialgebra(dim, c_vdash, c_dashv)``.
        """
        check_dim(dim)
        sums: dict[str, Sums] = {"vdash": {}, "dashv": {}}
        for (product, i, j), terms in relations.items():
            if product not in PRODUCTS:
                raise DialgebraError(f"unknown product {product!r}")
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise DialgebraError(f"index out of range in relation ({product},{i},{j})")
            row = sums[product].setdefault((i - 1, j - 1), {})
            for k, coeff in terms:
                if not 1 <= k <= dim:
                    raise DialgebraError(f"index out of range in relation ({product},{i},{j})")
                row[k - 1] = row[k - 1] + frac(coeff) if k - 1 in row else frac(coeff)
        d = Dialgebra.__new__(Dialgebra)
        d._build(dim, sums)
        return d

    # -- products -----------------------------------------------------

    def table(self, product: str) -> Table:
        """Sparse structure constants: ``table[i][j]`` holds the nonzero
        coordinates of e_i * e_j, the form ``ratlin.bilinear`` evaluates.
        As in every sparse row, an integral constant is an ``int`` and any
        other a ``Fraction``; the cubes, the products and the operators
        built from the tables are all ``Fraction``.

        Both tables are built once, when the dialgebra is constructed, and
        every caller shares them: they are read-only.  Copy a row before
        changing it.
        """
        try:
            return self._tables[product]
        except KeyError:
            raise DialgebraError(f"unknown product {product!r}") from None

    def multiply(self, product: str, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear extension of the chosen product to coordinate vectors."""
        xr, yr = self._row(x), self._row(y)
        return dense(self.dim, bilinear(self.table(product), xr, yr))

    # -- multiplication operators --------------------------------------

    def left_op(self, product: str, a: Sequence[Scalar]) -> Matrix:
        """Matrix of x -> a * x, sum_k a_k L_{e_k}; column j holds the
        coordinates of a * e_j."""
        return self._operator_at(self.basis_ops("left", product), a)

    def right_op(self, product: str, a: Sequence[Scalar]) -> Matrix:
        """Matrix of x -> x * a, sum_k a_k R_{e_k}; column j holds the
        coordinates of e_j * a."""
        return self._operator_at(self.basis_ops("right", product), a)

    def basis_ops(self, side: str, product: str) -> list[Row]:
        """L_{e_k} (side "left") or R_{e_k} (side "right") for each k, as
        sparse rows over r*n + c read off the table: e_a * e_b is column b
        of L_{e_a} and column a of R_{e_b}.  Inside the package every
        operator takes this form; ``left_op``/``right_op`` are for callers."""
        if side not in ("left", "right"):
            raise DialgebraError(f"unknown side {side!r}")
        n = self.dim
        ops: list[Row] = [{} for _ in range(n)]
        for a, plane in enumerate(self.table(product)):
            for b, ab in enumerate(plane):
                k, c = (a, b) if side == "left" else (b, a)
                ops[k].update((r * n + c, x) for r, x in ab.items())
        return ops

    def _operator_at(self, ops: list[Row], a: Sequence[Scalar]) -> Matrix:
        """``sum_k a_k ops[k]`` as a matrix, for operators ``ops`` over
        r*n + c that are the values at the basis of a map linear in a."""
        n, flat = self.dim, lincomb((x, ops[k]) for k, x in self._row(a).items())
        return Matrix.from_flat(dense(n * n, flat), n, n)

    def _row(self, a: Sequence[Scalar]) -> Row:
        """The nonzero coordinates of a vector of this dimension."""
        av = vector(a)
        if len(av) != self.dim:
            raise DialgebraError("vector length does not match the dimension")
        return sparse(av)

    # -- structural checks ----------------------------------------------

    def verify_axioms(self) -> list[dict]:
        """Check all five axioms on every basis triple.

        Returns violation records, by triple in lexicographic order, then
        by axiom; none means the constants define a dialgebra.  Each carries
        the axiom name, the basis triple (0-based), and both sides.  A side
        is a composite product, (e_i * e_j) *' e_k or e_i *' (e_j * e_k),
        built by ``composite`` from the nonzero constants alone and keyed
        by ((i*n + j)*n + k)*n + r; only the triples ``unequal_triples``
        finds are walked.
        """
        n, dashv, vdash = self.dim, self.table("dashv"), self.table("vdash")
        found = []

        def compare(axiom: int, lhs: dict[int, Exact], rhs: dict[int, Exact]) -> None:
            bad = {t: ({}, {}) for t in unequal_triples(n, lhs, rhs)}
            if bad:
                for side, tensor in enumerate((lhs, rhs)):
                    for key, x in tensor.items():
                        if key // n in bad:
                            bad[key // n][side][key % n] = x
                found.extend((t, axiom, *pair) for t, pair in bad.items())

        # each tensor is built for its first axiom and dropped after its
        # last, so at most three are alive at once
        dd_right = composite(n, dashv, dashv, False)
        compare(0, composite(n, dashv, dashv, True), dd_right)
        compare(1, dd_right, composite(n, vdash, dashv, False))
        del dd_right
        compare(2, composite(n, vdash, dashv, True), composite(n, dashv, vdash, False))
        vv_left = composite(n, vdash, vdash, True)
        compare(3, composite(n, dashv, vdash, True), vv_left)
        compare(4, vv_left, composite(n, vdash, vdash, False))
        return [{"axiom": AXIOM_NAMES[axiom], "triple": (t // n // n, t // n % n, t % n),
                 "lhs": dense(n, lhs), "rhs": dense(n, rhs)}
                for t, axiom, lhs, rhs in sorted(found, key=lambda f: f[:2])]

    def products_coincide(self) -> bool:
        """True when vdash and dashv agree, i.e. the algebra is associative."""
        return self._tables["vdash"] == self._tables["dashv"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dialgebra):
            return NotImplemented
        return self.dim == other.dim and self._tables == other._tables

    def __hash__(self) -> int:
        return hash((self.dim, tuple(frozenset(row.items()) for product in PRODUCTS
                                     for plane in self._tables[product] for row in plane)))

    def relations(self) -> dict[tuple[str, int, int], list[tuple[int, Fraction]]]:
        """Sparse view of the nonzero structure constants, 1-based."""
        out: dict[tuple[str, int, int], list[tuple[int, Fraction]]] = {}
        for product in PRODUCTS:
            for i, plane in enumerate(self.table(product)):
                for j, row in enumerate(plane):
                    if row:
                        out[(product, i + 1, j + 1)] = [(k + 1, frac(x)) for k, x in row.items()]
        return out

    def __repr__(self) -> str:
        rels = self.relations()
        body = ", ".join(
            f"e{i} {'|-' if p == 'vdash' else '-|'} e{j} = "
            + "+".join(f"{c}*e{k}" if c != 1 else f"e{k}" for k, c in terms)
            for (p, i, j), terms in sorted(rels.items())
        )
        return f"Dialgebra(dim {self.dim}: {body or '0'})"


def composite(n: int, inner: Sequence[Sequence[Row]], outer: Sequence[Sequence[Row]],
              nested_left: bool) -> dict[int, Exact]:
    """The composite product of two bilinear maps on n basis vectors,
    (e_i * e_j) *' e_k when ``nested_left``, else e_i *' (e_j * e_k), where
    ``inner[a][b]`` and ``outer[a][b]`` hold the sparse coordinates of
    e_a * e_b and e_a *' e_b.  Its nonzero coordinates are keyed by
    ((i*n + j)*n + k)*n + r and built from the nonzero constants alone."""
    # by_m[m]: (key offset of k, row) of each nonzero e_m *' e_k when
    # nested left, else (key offset of i, row) of each nonzero e_i *' e_m
    by_m: list[list[tuple[int, Row]]] = [[] for _ in range(n)]
    for a, plane in enumerate(outer):
        for b, row in enumerate(plane):
            if row:
                m, offset = (a, b * n) if nested_left else (b, a * n ** 3)
                by_m[m].append((offset, row))
    scale, out = n * n if nested_left else n, {}
    for a, plane in enumerate(inner):
        for b, ab in enumerate(plane):
            base = (a * n + b) * scale
            for m, x in ab.items():
                for offset, row in by_m[m]:
                    for r, y in row.items():
                        key = base + offset + r
                        out[key] = out.get(key, 0) + x * y
    return {key: x for key, x in out.items() if x}


def unequal_triples(n: int, lhs: dict[int, Exact], rhs: dict[int, Exact]) -> set[int]:
    """The triples, flattened as (i*n + j)*n + k, at which two tensors
    keyed as ``composite`` keys them have unequal coordinates."""
    if lhs == rhs:
        return set()
    return {key // n for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key)}


def _check_cube(n: int, cube: Sequence, name: str) -> Sums:
    """The constants of a cube of n^3 exact scalars, by basis product."""
    if len(cube) != n:
        raise DialgebraError(f"{name} table has {len(cube)} rows, expected {n}")
    out = {}
    for i, plane in enumerate(cube):
        if len(plane) != n:
            raise DialgebraError(f"{name} table row {i} has wrong length")
        for j, entries in enumerate(plane):
            if len(entries) != n:
                raise DialgebraError(f"{name} table entry ({i},{j}) has wrong length")
            # frac first: it rejects a float, and reads "0" as zero
            out[i, j] = dict(enumerate(map(frac, entries)))
    return out


def phi_dialgebra(phi: Sequence[Scalar]) -> Dialgebra:
    """Dialgebra attached to a nonzero linear functional on Q^n.

    With ``phi = (phi_1, ..., phi_n)`` the products are
    ``e_i vdash e_j = phi_i e_j`` and ``e_i dashv e_j = phi_j e_i``:
    the functional weighs the absorbed factor.  The zero functional is
    rejected because it gives the zero algebra, which is excluded here
    to keep the family's invariants nontrivial.  ``len(phi)`` is checked
    against ``MAX_DIM`` first; the products go in as relations.
    """
    n = len(phi)
    check_dim(n)
    weights = vector(phi)
    if all(w == 0 for w in weights):
        raise DialgebraError("phi must be a nonzero functional")
    relations = {}
    for i, wi in enumerate(weights, start=1):
        for j, wj in enumerate(weights, start=1):
            relations["vdash", i, j] = [(j, wi)]
            relations["dashv", i, j] = [(i, wj)]
    return Dialgebra.from_relations(n, relations)


# -- text format --------------------------------------------------------
#
#   dialgebra v1
#   dim 3
#   # optional comments
#   vdash 1 2 -> 1:1, 3:-2/3
#
# Indices are 1-based.  Each line gives one basis product as a list of
# `k:coefficient` terms.  A (product, i, j, k) pair may appear only once
# in the whole file.


def serialize_dialgebra(d: Dialgebra) -> str:
    """Canonical text form: sorted relations, coefficients in lowest terms."""
    lines = ["dialgebra v1", f"dim {d.dim}"]
    rels = d.relations()
    for (product, i, j) in sorted(rels):
        terms = ", ".join(f"{k}:{c}" for k, c in sorted(rels[(product, i, j)]))
        lines.append(f"{product} {i} {j} -> {terms}")
    return "\n".join(lines) + "\n"


def _parse_int(text: str) -> int:
    """An optional ``-`` and ASCII digits, as in ``parse_rational``; ``int``
    alone would also take ``+1``, ``1_0`` and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_dialgebra(text: str) -> Dialgebra:
    """Parse the text format, validating indices and duplicates.

    Raises :class:`DialgebraError` with a 1-based line number on any
    syntax problem, out-of-range index, or repeated (product, i, j, k).
    """
    meaningful: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            meaningful.append((lineno, line))

    if not meaningful:
        raise DialgebraError("line 1: empty file, expected 'dialgebra v1' header")

    lineno, header = meaningful[0]
    if header != "dialgebra v1":
        raise DialgebraError(f"line {lineno}: expected 'dialgebra v1' header, got {header!r}")

    if len(meaningful) < 2:
        raise DialgebraError(f"line {lineno}: missing 'dim <n>' line")
    lineno, dim_line = meaningful[1]
    parts = dim_line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise DialgebraError(f"line {lineno}: expected 'dim <n>', got {dim_line!r}")
    try:
        n = _parse_int(parts[1])
    except ValueError:
        raise DialgebraError(f"line {lineno}: dimension {parts[1]!r} is not an integer") from None
    if not 1 <= n <= MAX_DIM:
        raise DialgebraError(f"line {lineno}: dimension {n} outside supported range 1..{MAX_DIM}")

    # (product, i, j) -> {k: coeff}; a k given twice is an error
    relations: dict[tuple[str, int, int], dict[int, Fraction]] = {}

    for lineno, line in meaningful[2:]:
        if "->" not in line:
            raise DialgebraError(f"line {lineno}: missing '->' in entry {line!r}")
        head, _, tail = line.partition("->")
        head_parts = head.split()
        if len(head_parts) != 3:
            raise DialgebraError(f"line {lineno}: expected '<product> <i> <j> ->', got {head!r}")
        product = head_parts[0]
        if product not in PRODUCTS:
            raise DialgebraError(
                f"line {lineno}: unknown product {product!r}, expected 'vdash' or 'dashv'"
            )
        try:
            i, j = _parse_int(head_parts[1]), _parse_int(head_parts[2])
        except ValueError:
            raise DialgebraError(f"line {lineno}: indices must be integers in {head!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise DialgebraError(f"line {lineno}: index out of range 1..{n} in {head!r}")

        if not tail.strip():
            raise DialgebraError(f"line {lineno}: empty term list after '->'")
        terms = relations.setdefault((product, i, j), {})
        for term in tail.split(","):
            term = term.strip()
            if ":" not in term:
                raise DialgebraError(f"line {lineno}: expected '<k>:<coeff>', got {term!r}")
            k_text, _, coeff_text = term.partition(":")
            try:
                k = _parse_int(k_text.strip())
            except ValueError:
                raise DialgebraError(
                    f"line {lineno}: target index {k_text.strip()!r} is not an integer"
                ) from None
            if not 1 <= k <= n:
                raise DialgebraError(f"line {lineno}: index out of range 1..{n} in {term!r}")
            try:
                coeff = parse_rational(coeff_text.strip())
            except ValueError as exc:
                raise DialgebraError(
                    f"line {lineno}: bad coefficient {coeff_text.strip()!r}: {exc}"
                ) from None
            if k in terms:
                raise DialgebraError(
                    f"line {lineno}: duplicate entry for {product} {i} {j} -> {k}"
                )
            terms[k] = coeff

    return Dialgebra.from_relations(n, {key: terms.items() for key, terms in relations.items()})
