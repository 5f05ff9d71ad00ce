"""Exact linear algebra: unit tests plus algebraic property checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diaskit.catalog import ENTRY_NAMES, instantiate
from diaskit.core import Dialgebra, phi_dialgebra
from diaskit import ratlin
from diaskit.ratlin import (
    AffineSubspace,
    Matrix,
    Subspace,
    _eliminate,
    commutator,
    dense,
    det,
    frac,
    kernel,
    lincomb,
    nullspace,
    rref,
    sparse,
    span,
)
from diaskit.spaces import derivation_space, diderivation_space

import exact_oracle as oracle

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4).map(Fraction)
# About three entries in four are zero, as in the structure-constant systems.
sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.just(Fraction(0)), rationals)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n),
        min_size=n, max_size=n).map(Matrix)


small_square = st.integers(min_value=1, max_value=4).flatmap(square)


class TestMatrix:
    def test_shape_and_entry(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m.rows[1][2] == 6
        assert m.rows[0] == [1, 2, 3]
        assert [row[1] for row in m.rows] == [2, 5]

    def test_flatten_roundtrip(self):
        m = Matrix([[1, 2], [3, 4], [5, 6]])
        assert Matrix.from_flat(m.flatten(), 3, 2) == m

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_mul_shapes(self):
        a = Matrix([[1, 2]])
        b = Matrix([[3], [4]])
        assert (a * b).rows == [[11]]
        with pytest.raises(ValueError):
            b * b  # noqa: B018  shape mismatch must raise

    def test_apply_matches_mul(self):
        m = Matrix([[0, 1], [-1, 2]])
        assert m.apply((3, 5)) == (5, 7)

    @given(square(3), square(3), square(3))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_square)
    def test_columns_are_the_matrix_columns(self, m):
        # an operator as one sparse row over r*n + c, split into its columns
        assert ratlin.columns(m.ncols, sparse(m.flatten())) == [
            sparse([row[c] for row in m.rows]) for c in range(m.ncols)]

    @given(square(2), square(2), square(2))
    def test_commutator_jacobi(self, a, b, c):
        a, b, c = (sparse(m.flatten()) for m in (a, b, c))
        lhs = commutator(2, a, commutator(2, b, c))
        rhs = lincomb(((1, commutator(2, commutator(2, a, b), c)),
                       (1, commutator(2, b, commutator(2, a, c)))))
        assert lhs == rhs


class TestElimination:
    @given(small_square)
    def test_rref_idempotent(self, m):
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced
        assert pivots == pivots2

    @given(small_square)
    def test_rank_plus_nullity(self, m):
        assert len(rref(m)[1]) + len(nullspace(m)) == m.ncols

    @given(small_square)
    def test_nullspace_vectors_annihilated(self, m):
        for v in nullspace(m):
            assert all(x == 0 for x in m.apply(v))

    @given(square(3), square(3))
    def test_det_multiplicative(self, a, b):
        assert det(a * b) == det(a) * det(b)

    def test_det_known(self):
        assert det(Matrix([[2, 1], [7, 4]])) == 1
        assert det(Matrix([[int(i == j) for j in range(5)] for i in range(5)])) == 1
        assert det(Matrix([[0] * 3] * 3)) == 0

    def test_det_fractions(self):
        m = Matrix([[frac("1/2"), 1], [1, frac("1/3")]])
        assert det(m) == Fraction(1, 6) - 1

    def test_frac_reads_strings_through_the_text_grammar(self):
        assert frac("-6/4") == Fraction(-3, 2) and frac(7) == 7
        for text in ("1e40", "1.5", "1_000", "2/0", "1" * 41):
            with pytest.raises(ValueError):
                frac(text)
        with pytest.raises(TypeError, match="not float"):
            frac(0.1)


class TestSubspace:
    def test_canonical_basis(self):
        s = Subspace(3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)])
        assert s.dim == 2
        assert s.basis == ((1, 1, 0), (0, 0, 1))

    def test_contains(self):
        s = Subspace(2, [(1, 2)])
        assert s.contains((Fraction(1, 2), 1))
        assert not s.contains((1, 0))

    @given(st.lists(st.lists(sparse_entries, min_size=4, max_size=4), max_size=3),
           st.lists(rationals, min_size=3, max_size=3),
           st.lists(sparse_entries, min_size=4, max_size=4))
    def test_coordinates(self, rows, coeffs, other):
        s = Subspace(4, rows)
        member = [sum((c * b[j] for c, b in zip(coeffs, s.basis)), Fraction(0))
                  for j in range(4)]
        # the coordinates of a member rebuild it, keyed by basis index
        coords = s.coordinates(sparse(member))
        assert coords == {k: c for k, c in enumerate(coeffs[:s.dim]) if c}
        outside = s.coordinates(sparse(other))
        assert (outside is not None) == oracle.in_span([list(b) for b in s.basis], other)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
               st.lists(st.lists(sparse_entries, min_size=n, max_size=n), max_size=n),
               st.lists(rationals, min_size=n, max_size=n),
               st.lists(sparse_entries, min_size=n, max_size=n))))
    def test_coordinates_on_kernels(self, case):
        # ``kernel`` builds its subspaces without ``Subspace.__init__``; their
        # coordinates are checked against the oracle and by rebuilding.
        rows, coeffs, other = case
        n = len(coeffs)
        s = kernel(n, map(sparse, rows))
        basis = [list(b) for b in s.basis]
        pivots = [next(j for j, x in enumerate(b) if x) for b in basis]

        def rebuild(coords):
            return [sum((c * basis[k][j] for k, c in coords.items()), Fraction(0))
                    for j in range(n)]

        member = rebuild(dict(enumerate(coeffs[:s.dim])))
        assert s.coordinates(sparse(member)) == {
            k: c for k, c in enumerate(coeffs[:s.dim]) if c}
        # explicit zeros are not coordinates
        assert s.coordinates(dict(enumerate(member))) == s.coordinates(sparse(member))
        # supported off the pivots: in the span only when zero
        off = [Fraction(0) if j in pivots else x for j, x in enumerate(other)]
        assert (s.coordinates(dict(enumerate(off))) is not None) == (not any(off))
        assert oracle.in_span(basis, off) == (not any(off))
        for v in (other, off):
            coords = s.coordinates(sparse(v))
            assert (coords is not None) == oracle.in_span(basis, v)
            if coords is not None:
                assert rebuild(coords) == list(v)

    @given(st.lists(st.lists(sparse_entries, min_size=4, max_size=4), max_size=5))
    def test_rows_are_the_sparse_basis(self, rows):
        # both constructors keep each basis vector as its sparse row, with
        # an int exactly where the entry is integral
        def typed(row):
            return {j: (type(x), x) for j, x in row.items()}

        for s in (Subspace(4, rows), kernel(4, map(sparse, rows)), span(4, map(sparse, rows))):
            assert [typed(r) for r in s.rows] == [typed(sparse(b)) for b in s.basis]

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=4))
    def test_span_invariant_under_order(self, rows):
        assert Subspace(3, rows) == Subspace(3, list(reversed(rows)))
        assert span(3, map(sparse, rows)) == span(3, map(sparse, reversed(rows)))

    def test_is_subspace_of(self):
        small = Subspace(3, [(1, 1, 0)])
        big = Subspace(3, [(1, 0, 0), (0, 1, 0)])
        assert small.is_subspace_of(big)
        assert not big.is_subspace_of(small)


class TestAffineSubspace:
    def test_empty(self):
        assert AffineSubspace(None, Subspace(2)).is_empty
        assert not AffineSubspace((1, 0), Subspace(2, [(0, 1)])).is_empty


def sparse_matrix(nrows, ncols):
    return st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(rows, ncols=ncols))


sparse_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: sparse_matrix(*shape))
sparse_squares = st.integers(1, 5).flatmap(lambda n: sparse_matrix(n, n))


def direct_sum(*parts):
    """Block structure constants of a direct sum of dialgebras."""
    n = sum(d.dim for d in parts)
    cubes = {"vdash": [[[0] * n for _ in range(n)] for _ in range(n)],
             "dashv": [[[0] * n for _ in range(n)] for _ in range(n)]}
    offset = 0
    for d in parts:
        for name, c in (("vdash", d.c_vdash), ("dashv", d.c_dashv)):
            for i in range(d.dim):
                for j in range(d.dim):
                    for k in range(d.dim):
                        cubes[name][offset + i][offset + j][offset + k] = c[i][j][k]
        offset += d.dim
    return Dialgebra(n, cubes["vdash"], cubes["dashv"])


def kernel_cases():
    cases = []
    for name in ENTRY_NAMES:
        if name == "Dias2_3":
            cases += [(f"{name}[lam={lam}]", instantiate(name, {"lam": Fraction(lam)}))
                      for lam in ("0", "1", "-1", "1/2")]
        elif name in ("Dias3_16", "Dias3_17"):
            letters = "kmnpq" if name == "Dias3_16" else "lmnpq"
            cases += [(f"{name}{pt}", instantiate(name, dict(zip(letters, map(Fraction, pt)))))
                      for pt in [(1, 1, 1, 1, 1), (1, 1, -3, 1, -4), (0, 0, 0, -1, 0)]]
        else:
            cases.append((name, instantiate(name)))
    point = dict(zip("kmnpq", map(Fraction, (1, 1, 1, 1, 1))))
    cases.append(("Dias3_10+Dias3_13+Dias3_16", direct_sum(
        instantiate("Dias3_10"), instantiate("Dias3_13"), instantiate("Dias3_16", point))))
    cases += [(f"phi{n}", phi_dialgebra([(-1) ** i * (i % 3 + 1) for i in range(n)]))
              for n in range(2, 7)]
    return cases


class TestCoreAgainstOracle:
    """The sparse elimination core against the textbook dense RREF of
    ``exact_oracle``, which shares no code with it."""

    @given(sparse_matrices)
    def test_rref_rank_and_nullspace(self, m):
        reduced, pivots = oracle.rref(m.rows)
        padding = [[0] * m.ncols] * (m.nrows - len(pivots))
        assert rref(m) == (Matrix(reduced + padding, ncols=m.ncols), pivots)
        assert len(_eliminate(map(sparse, m.rows), m.ncols)[0]) == len(pivots)
        kernel = nullspace(m)
        # the canonical kernel basis is the RREF of any kernel basis
        assert [list(v) for v in kernel] == oracle.rref(oracle.nullspace(m.rows, m.ncols))[0]

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(sparse_matrix(n, n), sparse_matrix(n, n))))
    def test_commutator(self, pair):
        a, b = pair
        n = a.nrows
        expected = oracle.flatten(oracle.commutator(a.rows, b.rows))
        assert dense(n * n, commutator(n, sparse(a.flatten()), sparse(b.flatten()))) == tuple(expected)

    @given(sparse_squares)
    def test_det(self, m):
        assert det(m) == oracle.det(m.rows)

    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()])
    def test_kernels_match_oracle_and_are_rref_fixed_points(self, d):
        n = d.dim
        for solve, twisted in ((derivation_space, False), (diderivation_space, True)):
            k = solve(d)
            assert [list(v) for v in k.basis] == oracle.kernel_basis(d.c_vdash, d.c_dashv, twisted)
            assert Subspace(n * n, k.basis).basis == k.basis


def written_otherwise(row, zeros, reverse):
    """The same row in another spelling: each integral entry swapped between
    ``int`` and ``Fraction``, the keys optionally reversed, and explicit
    zeros added at the given columns it does not use."""
    items = list(row.items())[::-1] if reverse else list(row.items())
    out = {j: Fraction(x) if type(x) is int else int(x) if x.denominator == 1 else x
           for j, x in items}
    out.update({j: 0 for j in zeros if j not in out})
    return out


columns = st.integers(0, 3)
sparse_rows = st.lists(st.dictionaries(columns, st.one_of(st.integers(-4, 4), rationals),
                                       max_size=4), min_size=1, max_size=8)


class TestSkippedRows:
    """Empty rows and repeats of an earlier row are skipped by the
    elimination core; that must not change its result."""

    @given(sparse_rows, st.data())
    def test_repeated_and_empty_rows_change_nothing(self, rows, data):
        mixed = []
        for i, row in enumerate(rows):
            mixed.append(row)
            for _ in range(data.draw(st.integers(0, 2))):
                zeros = data.draw(st.lists(columns, max_size=2))
                if data.draw(st.booleans()):
                    earlier = rows[data.draw(st.integers(0, i))]
                    mixed.append(written_otherwise(earlier, zeros, data.draw(st.booleans())))
                else:
                    mixed.append({j: 0 for j in zeros})
        reduced, scales = _eliminate(rows, 4)
        again, scales_again = _eliminate(mixed, 4)
        # the same pivots in the same order, the same rows and scales
        assert list(again.items()) == list(reduced.items())
        assert scales_again == scales
        assert len(reduced) == oracle.rank([dense(4, row) for row in rows])

    @given(sparse_rows, st.data())
    def test_span_matches_the_dense_constructor_and_the_oracle(self, rows, data):
        # int and Fraction entries, an empty row and repeats of earlier rows
        rows = rows + [{}] + data.draw(st.lists(st.sampled_from(rows), max_size=3))
        vectors = [dense(4, row) for row in rows]
        s = span(4, rows)
        assert s == Subspace(4, vectors)
        assert hash(s) == hash(Subspace(4, vectors))
        assert [list(v) for v in s.basis] == oracle.rref(vectors)[0]

    @given(st.integers(2, 5).flatmap(lambda n: sparse_matrix(n, n)), st.data())
    def test_det_with_a_repeated_row_is_zero(self, m, data):
        i, j = data.draw(st.lists(st.integers(0, m.nrows - 1), min_size=2, max_size=2,
                                  unique=True))
        rows = [list(row) for row in m.rows]
        rows[j] = list(rows[i])
        value = det(Matrix(rows))
        assert type(value) is Fraction
        assert value == 0 == oracle.det(rows)


def oracle_kernel_and_span(rows, ncols):
    """The canonical kernel basis and RREF span of sparse rows, from the
    textbook oracle alone."""
    vectors = [dense(ncols, row) for row in rows]
    return oracle.rref(oracle.nullspace(vectors, ncols))[0], oracle.rref(vectors)[0]


class TestRowsAsGivenAgainstOracle:
    """``kernel`` and ``span`` against ``exact_oracle``, whatever order the
    rows come in and however often and in whatever spelling they repeat:
    the core looks a repeat up before it normalises the row, and
    back-substitutes only into the reduced rows that hold an entry."""

    @given(sparse_rows, st.data())
    def test_shuffled_repeated_and_respelled_rows(self, rows, data):
        expected = oracle_kernel_and_span(rows, 4)
        mixed = list(rows)
        for _ in range(data.draw(st.integers(0, 6))):
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            spelling = data.draw(st.sampled_from(["same", "fraction", "zeros", "empty"]))
            if spelling == "same":
                mixed.append(dict(row))
            elif spelling == "fraction":  # integral entries as Fraction, and back
                mixed.append(written_otherwise(row, [], data.draw(st.booleans())))
            elif spelling == "zeros":
                mixed.append({**row, **{j: 0 for j in range(4) if j not in row}})
            else:
                mixed.append({j: 0 for j in data.draw(st.lists(columns, max_size=2))})
        mixed = data.draw(st.permutations(mixed))
        assert oracle_kernel_and_span(mixed, 4) == expected
        assert [list(v) for v in kernel(4, mixed).basis] == expected[0]
        assert [list(v) for v in span(4, mixed).basis] == expected[1]

    def test_a_reduced_row_emptied_before_a_later_pivot(self):
        # pivot 1 leaves {0: 1/2}, pivot 0 empties it, and pivots 4 and 3
        # arrive after that: 4's row reduces through the emptied row
        rows = [{0: 1, 1: 2}, {0: 3}, {1: 1, 2: 1, 4: 1}, {2: 1, 3: 1}]
        assert _eliminate(rows[:1], 5)[0] == {1: {0: Fraction(1, 2)}}
        reduced, scales = _eliminate(rows, 5)
        assert list(reduced.items()) == [(1, {}), (0, {}), (4, {2: 1}), (3, {2: 1})]
        assert scales == [2, 3, 1, 1]
        expected = oracle_kernel_and_span(rows, 5)
        assert [list(v) for v in kernel(5, rows).basis] == expected[0] == \
            [[0, 0, 1, -1, -1]]
        assert [list(v) for v in span(5, rows).basis] == expected[1]
        assert [list(v) for v in kernel(5, rows + rows[::-1]).basis] == expected[0]

    @pytest.mark.parametrize("solve", [kernel, span])
    def test_a_float_in_a_row_that_repeats_none_raises(self, solve):
        with pytest.raises(TypeError):
            solve(2, [{0: 0.5}])
        with pytest.raises(TypeError):
            solve(2, [{0: 1}, {0: 1, 1: 1.0}])


class TestStringZeros:
    """An entry that reads zero once converted is no entry: ``"0"`` and
    ``"0/5"`` are nonempty strings, so the core, ``sparse`` and
    ``Subspace.coordinates`` test an entry after converting it."""

    @pytest.mark.parametrize("zero", ["0", "0/5"])
    @pytest.mark.parametrize("rows", [
        [{1: "Z"}],
        [{0: "Z", 1: 1}],
        [{0: 1, 1: "Z"}, {0: "Z", 1: "2/3"}],
        [{0: "Z"}, {1: "Z", 2: "1"}, {2: "Z"}],
    ])
    def test_kernel_and_span_against_oracle(self, zero, rows):
        rows = [{j: zero if x == "Z" else x for j, x in row.items()} for row in rows]
        expected = oracle_kernel_and_span(rows, 3)
        for solve, basis in zip((kernel, span), expected):
            space = solve(3, rows)
            assert [list(v) for v in space.basis] == basis
            assert all(x for row in space.rows for x in row.values())

    @pytest.mark.parametrize("zero", ["0", "0/5"])
    def test_a_zero_string_adds_no_pivot(self, zero):
        assert kernel(2, [{1: zero}]).dim == 2
        assert span(2, [{1: zero}]).rows == ()
        assert kernel(2, [{0: zero, 1: 1}]).rows == ({0: 1},)
        assert sparse([zero, 1, "3/3"]) == {1: 1, 2: 1}

    @pytest.mark.parametrize("zero", ["0", "0/5"])
    @pytest.mark.parametrize("v", [
        {1: "Z"},
        {0: "Z", 1: 0},
        {0: "2"},
        {0: "2", 2: "-2"},
        {0: "1/2", 1: "Z", 2: "-1/2"},
        {1: "3", 2: "Z"},
    ])
    def test_coordinates_and_contains_against_oracle(self, zero, v):
        rows = [{0: 1, 2: "-1"}, {1: "2/3"}]
        v = {j: zero if x == "Z" else x for j, x in v.items()}
        vectors = [dense(3, row) for row in rows]
        w = dense(3, v)
        # on the RREF basis, a member's coordinates are its pivot entries
        expected = None
        if oracle.in_span(vectors, w):
            expected = {k: w[p] for k, p in enumerate(oracle.rref(vectors)[1]) if w[p]}
        space = span(3, rows)
        assert space.coordinates(v) == expected
        assert space.contains([v.get(j, zero) for j in range(3)]) == (expected is not None)


# n rows of Q^n with full column rank, then up to three more sparse rows:
# a square or a tall system whose first rows already fix every pivot.
full_rank_systems = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    .filter(lambda rows: oracle.rank(rows) == len(rows)),
    st.lists(st.lists(sparse_entries, min_size=n, max_size=n), max_size=3)))


class TestFullRank:
    """The core stops reading rows once it holds one pivot per column;
    the rows it leaves unread, and rows outside Q^ncols, are handled as
    the docstrings say."""

    @given(full_rank_systems, st.data())
    def test_rows_after_full_rank_change_nothing(self, system, data):
        first, extra = system
        n = len(first)
        rows = first + extra
        # empty rows, repeats of earlier rows, int rows and Fraction rows
        appended = data.draw(st.lists(st.one_of(
            st.just([0] * n),
            st.sampled_from(rows),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n)), min_size=1, max_size=4))
        reduced, pivots = oracle.rref(rows)
        assert pivots == list(range(n))
        for system_rows in (rows, rows + appended):
            as_rows = [{j: x for j, x in enumerate(row) if x} for row in system_rows]
            m = Matrix(system_rows, ncols=n)
            padding = [[0] * n] * (m.nrows - n)
            assert rref(m) == (Matrix(reduced + padding, ncols=n), pivots)
            assert nullspace(m) == oracle.nullspace(system_rows, n) == []
            assert kernel(n, as_rows).basis == ()
            assert [list(v) for v in span(n, as_rows).basis] == reduced
        # a system with rows after its n pivots is not square, so the
        # determinant is checked on the first rows, and the core is shown
        # to give the same pivots and scales with every later row added
        assert det(Matrix(first)) == oracle.det(first) != 0
        assert _eliminate(map(sparse, first), n) == \
            _eliminate(map(sparse, rows + appended), n)

    @pytest.mark.parametrize("solve", [kernel, span])
    @pytest.mark.parametrize("column", [2, 5, -1])
    def test_a_column_outside_the_space_is_rejected(self, solve, column):
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            solve(2, [{column: 1}])
        with pytest.raises(ValueError, match=r"outside range\(2\)"):
            solve(2, [{0: 1}, {0: 2, column: 3}])
        # a row whose entries there are all zero is empty, and skipped
        assert solve(2, [{column: 0}]).dim == (2 if solve is kernel else 0)


def typed(reduced, scales):
    """The core's result with each entry's type: the reduced rows in pivot
    order, and the scales."""
    return ([(p, [(j, type(x), x) for j, x in row.items()]) for p, row in reduced.items()],
            [(type(s), s) for s in scales])


nonzero_rationals = rationals.filter(bool)


def spelt(x, how):
    """The nonzero rational x as a one-entry row may give it."""
    if how == "int" and x.denominator == 1:
        return x.numerator
    if how == "string":
        return str(x)
    return Fraction(x)  # an integral Fraction too


spellings = st.sampled_from(["int", "Fraction", "string"])


class TestOneEntryRows:
    """A one-entry row with a nonzero ``int`` or ``Fraction`` entry is keyed
    by its column, so every later one-entry row in that column is skipped,
    and it is pivoted on without arithmetic; every other row goes the
    general way.  Neither changes the core's result."""

    @given(sparse_rows, columns, nonzero_rationals, spellings,
           st.lists(st.tuples(nonzero_rationals, spellings), min_size=1, max_size=4),
           st.data())
    def test_later_rows_in_a_column_change_nothing(self, rows, j, x, how, later, data):
        # int, Fraction, integral Fraction, negative and string multiples
        # of the first one-entry row in column j, anywhere after it
        at = data.draw(st.integers(0, len(rows)))
        alone = rows[:at] + [{j: spelt(x, how)}] + rows[at:]
        mixed = list(alone)
        for y, how in later:
            mixed.insert(data.draw(st.integers(at + 1, len(mixed))), {j: spelt(y, how)})
        assert typed(*_eliminate(mixed, 4)) == typed(*_eliminate(alone, 4))

    def test_a_one_entry_row_in_every_spelling(self):
        # the first row in column 1 pivots on column 0 through {0: 1, 1: 1}
        for first in (2, Fraction(2), "2", "4/2"):
            for later in (3, -2, Fraction(-1, 3), Fraction(6, 3), "2", "-4/3"):
                rows = [{0: 1, 1: 1}, {1: first}, {1: later}, {2: Fraction(1, 2)}]
                assert typed(*_eliminate(rows, 3)) == ([(1, []), (0, []), (2, [])], [
                    (int, 1), (int, -2), (Fraction, Fraction(1, 2))])

    @pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5"])
    def test_a_zero_entry_does_not_mark_its_column(self, zero):
        assert _eliminate([{1: zero}, {1: 3}], 2) == ({1: {}}, [3])
        assert _eliminate([{0: 1, 1: 1}, {1: zero}, {1: Fraction(1, 2)}], 2) == \
            ({1: {}, 0: {}}, [1, Fraction(-1, 2)])
        assert kernel(2, [{1: zero}, {1: 2}]).rows == ({0: 1},)

    def test_a_float_still_raises(self):
        # a float keys no column, even one an earlier one-entry row holds,
        # and repeats no one-entry row as written, even one of equal value
        for rows in ([{0: 1}, {0: 0.5}], [{0: 2}, {1: 1.5}], [{0: 2}, {0: 2.0}],
                     [{0: Fraction(1, 2)}, {0: 0.5}]):
            with pytest.raises(TypeError):
                _eliminate(rows, 2)

    @pytest.mark.parametrize("column", [2, 5, -1])
    @pytest.mark.parametrize("x", [1, Fraction(1, 2), Fraction(3)])
    def test_a_column_outside_the_space_still_raises(self, column, x):
        for rows in ([{column: x}], [{0: 1}, {column: x}], [{0: 1, 1: 1}, {column: x}]):
            with pytest.raises(ValueError, match=r"outside range\(2\)"):
                _eliminate(rows, 2)

    @given(sparse_rows, st.lists(st.tuples(columns, st.one_of(
        nonzero_rationals.map(lambda x: (x, "int")), nonzero_rationals.map(lambda x: (x, "Fraction")),
        st.sampled_from([(1, "string"), (Fraction(-2, 3), "string"), (0, "int"), (0, "string")]))),
        min_size=1, max_size=8), st.data())
    def test_shuffled_mixes_against_the_oracle(self, rows, singles, data):
        mixed = data.draw(st.permutations(rows + [{j: spelt(Fraction(x), how)}
                                                 for j, (x, how) in singles]))
        expected = oracle_kernel_and_span(mixed, 4)
        assert [list(v) for v in kernel(4, mixed).basis] == expected[0]
        assert [list(v) for v in span(4, mixed).basis] == expected[1]

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.one_of(
        st.lists(sparse_entries, min_size=n, max_size=n),
        st.tuples(st.integers(0, n - 1), nonzero_rationals).map(
            lambda e: [e[1] if k == e[0] else 0 for k in range(n)])),
        min_size=n, max_size=n)))
    def test_det_of_rows_with_one_entry_against_the_oracle(self, rows):
        value = det(Matrix(rows))
        assert type(value) is Fraction
        assert value == oracle.det(rows)


def canonical(space):
    """A subspace's canonical rows, each entry with its type, in order."""
    return [[(j, type(x), x) for j, x in row.items()] for row in space.rows]


def seeded_one_entry_system(rng):
    """(ncols, rows): a few longer rows, the first at the front and a
    one-entry row in its highest column, already a pivot, right after it,
    then one-entry rows in few columns, so that columns repeat with other
    entries, shuffled among the other longer rows."""
    ncols = rng.randint(2, 6)

    def entry():
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        return x.numerator if x.denominator == 1 and rng.random() < 0.5 else x

    longer = [{j: entry() for j in rng.sample(range(ncols), rng.randint(2, ncols))}
              for _ in range(rng.randint(1, 4))]
    few = rng.sample(range(ncols), rng.randint(1, ncols))
    rest = longer[1:] + [{rng.choice(few): entry()} for _ in range(rng.randint(2, 3 * ncols))]
    rng.shuffle(rest)
    return ncols, [longer[0], {max(longer[0]): entry()}] + rest


def as_columns(rows):
    """Each one-entry row ``{j: x}`` replaced by its column j."""
    return [next(iter(row)) if len(row) == 1 else row for row in rows]


class TestColumnRows:
    """A bare column number j is the equation x_j = 0, as any one-entry row
    ``{j: x}`` is: ``kernel`` gives the same canonical rows either way."""

    @pytest.mark.parametrize("seed", range(60))
    def test_one_entry_rows_as_columns_give_the_same_kernel(self, seed):
        rng = random.Random(f"columns:{seed}")
        ncols, rows = seeded_one_entry_system(rng)
        columns = as_columns(rows)
        assert any(type(row) is int for row in columns)
        expected = kernel(ncols, rows)
        assert canonical(kernel(ncols, columns)) == canonical(expected)
        assert [list(v) for v in expected.basis] == oracle_kernel_and_span(rows, ncols)[0]
        # a column outside range(ncols) raises in both forms wherever the
        # core reads it, which is anywhere before its ncols-th pivot
        bad = rng.choice([ncols, ncols + 3, -1])
        at = rng.randint(0, len(rows))
        read = oracle.rank([dense(ncols, row) for row in rows[:at]]) < ncols
        for system in (rows[:at] + [{bad: rng.choice([1, -2, Fraction(1, 2)])}] + rows[at:],
                       columns[:at] + [bad] + columns[at:]):
            if read:
                with pytest.raises(ValueError, match=rf"outside range\({ncols}\)"):
                    kernel(ncols, system)
            else:
                assert canonical(kernel(ncols, system)) == canonical(expected)

    def test_a_column_that_is_already_a_pivot_goes_the_general_way(self):
        # pivot 2 has the row {0: -1}; the column 2 then pivots on 0, and
        # its own repeat, and {2: 5}, are skipped by its key
        for rows in ([{0: 1, 2: 1}, 2, 2, {2: 5}], [{0: 1, 2: 1}, {2: 3}, 2, {2: 5}]):
            reduced, scales = _eliminate(rows, 3)
            assert list(reduced.items()) == [(2, {}), (0, {})]
            assert kernel(3, rows).rows == ({1: 1},)
        assert _eliminate([1, {1: 4}, 1], 2) == ({1: {}}, [1])

    @pytest.mark.parametrize("column", [2, 5, -1])
    def test_a_column_outside_the_space_raises(self, column):
        for rows in ([column], [0, column], [{0: 1, 1: 1}, column]):
            with pytest.raises(ValueError, match=r"outside range\(2\)"):
                kernel(2, rows)


def all_fractions(entries) -> bool:
    return all(type(x) is Fraction for x in entries)


integer_squares = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n))


class TestNoFloats:
    """The elimination core keeps integral entries as ``int`` internally;
    everything it hands back is ``Fraction``, never ``int`` and never a
    ``float`` from a true division."""

    def test_core_keeps_an_integral_sum_of_fractions_as_int(self):
        # 1 - 4 * 1/2 is the scale of the second pivot
        assert typed(*_eliminate([{0: 1, 1: 2}, {0: 1, 1: 4}], 2)) == \
            ([(1, []), (0, [])], [(int, 2), (int, -1)])
        # 1/3 + 1/3 * 2 is pivot 2's entry at column 0 once pivot 1 is found
        assert typed(*_eliminate([{0: 1, 1: 1, 2: 3}, {0: -2, 1: 1}], 3)) == \
            ([(2, [(0, int, 1)]), (1, [(0, int, -2)])], [(int, 3), (int, 1)])
        assert typed(*_eliminate([{0: Fraction(1, 2), 1: Fraction(3, 2)}], 2)) == \
            ([(1, [(0, Fraction, Fraction(1, 3))])], [(Fraction, Fraction(3, 2))])
        assert det(Matrix([[1, 2], [1, 4]])) == 2
        assert type(det(Matrix([[1, 2], [1, 4]]))) is Fraction

    @given(sparse_rows)
    def test_core_stores_each_entry_as_int_when_integral(self, rows):
        reduced, scales = _eliminate(rows, 4)
        entries = [x for row in reduced.values() for x in row.values()] + scales
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in entries)

    @given(integer_squares)
    def test_det_of_integer_matrices(self, rows):
        value = det(Matrix(rows))
        assert type(value) is Fraction
        assert value == oracle.det(rows)

    def test_det_with_non_unit_pivots(self):
        # the pivot 3 does not divide 2, so the second pivot is 10/3
        value = det(Matrix([[2, 3], [4, 1]]))
        assert type(value) is Fraction and value == -10
        value = det(Matrix([[3, 0, 1], [0, 2, 1], [1, 1, 2]]))
        assert type(value) is Fraction and value == oracle.det([[3, 0, 1], [0, 2, 1], [1, 1, 2]])

    def test_kernel_of_a_row_whose_pivot_does_not_divide(self):
        # pivot 2 at column 2; 3 / 2 leaves a remainder
        space = kernel(3, [{0: 3, 2: 2}])
        assert space.basis == ((1, 0, Fraction(-3, 2)), (0, 1, 0))
        assert all(all_fractions(v) for v in space.basis)

    @given(sparse_matrices)
    def test_public_results_are_fractions(self, m):
        ints = Matrix([[x.numerator for x in row] for row in m.rows], ncols=m.ncols)
        for a in (m, ints):
            reduced, _ = rref(a)
            assert all(all_fractions(row) for row in reduced.rows)
            assert all(all_fractions(v) for v in nullspace(a))
            assert all(all_fractions(v) for v in Subspace(a.ncols, a.rows).basis)
