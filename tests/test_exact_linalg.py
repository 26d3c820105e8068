from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecohom import exact_linalg
from liecohom.exact_linalg import (
    SparseMatrix,
    Subspace,
    certified_rank,
    column_space,
    intersect,
    kernel_basis,
    rank_dense,
    rat,
    rat_str,
)

from oracles import gauss_jordan, reference_echelon

small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_rows=8, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(SparseMatrix.from_rows)
        )
    )


def test_rat_round_trips():
    assert rat("-7/3") == Fraction(-7, 3)
    assert rat_str(Fraction(-7, 3)) == "-7/3"
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat(rat_str(Fraction(355, 113))) == Fraction(355, 113)


def test_rat_refuses_large_exponents():
    assert rat("1e100") == 10 ** 100
    assert rat("-2.5E-3") == Fraction(-1, 400)
    assert rat("1e0_0_7") == 10 ** 7
    # refused before Fraction expands them: none of these allocates
    for text in ("1e101", "1E-101", "1e+1_000", "3e00000000101", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent too large"):
            rat(text)


def test_known_ranks():
    assert SparseMatrix.identity(5).rank() == 5
    assert SparseMatrix.zero(3, 9).rank() == 0
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert rank_dense(m) == 2


def test_entry_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseMatrix.from_rows([[1, 2], [3]])
    assert SparseMatrix(2, 2, {(0, 0): 0}).nnz == 0


@st.composite
def rational_matrices(draw, max_rows=8, max_cols=8):
    """Any shape from 0x0 up, entries with denominators up to 6."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    ent = {(r, c): draw(entry) for r in range(rows) for c in range(cols)
           if draw(st.booleans())}
    return SparseMatrix(rows, cols, ent)


@given(st.one_of(matrices(), rational_matrices()))
def test_rank_agrees_with_dense_oracle(m):
    assert m.rank() == rank_dense(m)
    assert m.cols - kernel_basis(m).dim == rank_dense(m)


@given(rational_matrices())
@example(SparseMatrix.zero(3, 4))
@example(SparseMatrix.zero(0, 5))
@example(SparseMatrix.zero(5, 0))
def test_certified_rank_agrees_with_dense_oracle(m):
    assert certified_rank(m) == rank_dense(m)


@given(rational_matrices())
def test_certified_rank_needs_no_fallback(m):
    # a certificate that failed on every input would still give right
    # ranks through rank_dense, so count the fallback's calls
    called = []
    dense = exact_linalg.rank_dense
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "rank_dense", lambda m: called.append(m) or dense(m))
        certified_rank(m)
    assert called == []


@st.composite
def minor_positions(draw):
    """A rational matrix and (column, row) positions in it: distinct rows
    and columns in any order, sometimes with one position repeated."""
    m = draw(rational_matrices())
    k = max(0, min(m.rows, m.cols) - draw(st.integers(0, 2)))
    cols = draw(st.permutations(range(m.cols)))[:k]
    rows = draw(st.permutations(range(m.rows)))[:k]
    positions = list(zip(cols, rows))
    if positions and draw(st.booleans()):
        positions.insert(draw(st.integers(0, k)), draw(st.sampled_from(positions)))
    return m, positions


@st.composite
def integer_minors(draw):
    """An integer matrix and the (column, row) positions of an n x n minor,
    1 <= n <= 8, with entries of size at most 5: |det| <= (5 sqrt 8)^8 <
    2^61, so the minor is singular mod _P exactly when it is over Q. Each
    row holds its own column, with value +-1 more often than not, and
    often nothing else; repeated and empty rows make minors singular, and
    a row may hold entries outside the minor."""
    n = draw(st.integers(1, 8))
    rows = n + draw(st.integers(0, 2))
    cols = rows + draw(st.integers(0, 2))
    own = draw(st.permutations(range(cols)))
    value = st.sampled_from((1, -1, 1, -1, 2, -3, 5))
    extra = st.dictionaries(st.integers(0, cols - 1), st.integers(-5, 5), max_size=3)
    table = []
    for r in range(rows):
        row = {} if draw(st.booleans()) else draw(extra)
        table.append({**row, own[r]: draw(value)})
    for _ in range(draw(st.integers(0, 2))):
        source = table[draw(st.integers(0, rows - 1))]
        sign = draw(st.sampled_from((1, -1, 0)))
        table[draw(st.integers(0, rows - 1))] = {c: sign * v for c, v in source.items()}
    m = SparseMatrix(rows, cols, {(r, c): v for r, row in enumerate(table)
                                  for c, v in row.items()})
    chosen = draw(st.permutations(range(rows)))[:n]
    positions = [(own[r], r) for r in chosen]
    return m, positions


@settings(max_examples=500)
@given(minor_positions() | integer_minors())
@example((SparseMatrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, -1]]),
          [(0, 0), (1, 1), (2, 2)]))
@example((SparseMatrix.from_rows([[1, 0, 0], [3, 0, 1], [-2, 0, 1]]),
          [(0, 0), (1, 1), (2, 2)]))
def test_minor_nonsingular_agrees_with_dense_oracle(case):
    m, positions = case
    n = len(positions)
    ent = m.entries
    minor = SparseMatrix(n, n, {(i, j): ent.get((r, c), 0) for i, (_, r) in enumerate(positions)
                                for j, (c, _) in enumerate(positions)})
    assert exact_linalg._minor_nonsingular(m, positions) == (rank_dense(minor) == n)


def test_minor_nonsingular_pivots_off_the_diagonal_after_fill_in():
    # column 0 takes row 0, and row 2 becomes (0, -1, 0): column 1 is then
    # held only by that fill-in, not by row 1, the row given for it
    positions = [(0, 0), (1, 1), (2, 2)]
    m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert exact_linalg._minor_nonsingular(m, positions)
    # rows 0 and 2 equal: no row is left to hold column 1
    m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert not exact_linalg._minor_nonsingular(m, positions)


def test_annihilates_scales_rows_with_denominators():
    m = SparseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3), 0, 1],
                                [0, Fraction(2, 5), Fraction(1, 7), Fraction(-3, 4)]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    assert any(v.denominator != 1 for row in ker.rows for v in row.values())
    assert exact_linalg._annihilates(m, dict(zip(ker.pivots, ker.rows)))
    row = dict(ker.rows[0])
    k = next(k for k in row if k != ker.pivots[0])
    row[k] += Fraction(1, 7)
    moved = dict(zip(ker.pivots, (row,) + ker.rows[1:]))
    assert not exact_linalg._annihilates(m, moved)


def _drop_vector(kernel, pivots):
    return dict(list(kernel.items())[1:])


def _perturb_entry(kernel, pivots):
    f, row = next(iter(kernel.items()))
    row = dict(row)
    k = next(k for k in row if k != f)
    row[k] += 1
    return {**kernel, f: row}


def _singular_minor(kernel, pivots):
    # rows 0 and 1 of the matrix below are proportional
    pivots[:] = [(c, r) for (c, _), r in zip(pivots, (0, 1))]
    return kernel


@pytest.mark.parametrize("tamper", [None, _drop_vector, _perturb_entry,
                                    _singular_minor])
def test_certified_rank_falls_back_when_the_proof_fails(monkeypatch, tamper):
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    kernel = exact_linalg._kernel
    dense = exact_linalg.rank_dense
    if tamper is not None:
        def tampered(m):
            pivots, vectors = kernel(m)
            return pivots, tamper(vectors, pivots)
        monkeypatch.setattr(exact_linalg, "_kernel", tampered)
    called = []
    monkeypatch.setattr(exact_linalg, "rank_dense",
                        lambda m: called.append(m) or dense(m))
    assert certified_rank(m) == 2
    assert called == ([] if tamper is None else [m])


def test_certified_rank_falls_back_when_the_prime_divides_a_denominator(monkeypatch):
    m = SparseMatrix.from_rows([[Fraction(1, exact_linalg._P), 1], [1, 1]])
    dense = exact_linalg.rank_dense
    called = []
    monkeypatch.setattr(exact_linalg, "rank_dense",
                        lambda m: called.append(m) or dense(m))
    assert certified_rank(m) == 2
    assert called == [m]


def test_certified_rank_is_kept_on_its_matrix(monkeypatch):
    echelon = exact_linalg._echelon
    calls = []
    monkeypatch.setattr(exact_linalg, "_echelon",
                        lambda rows, *order: calls.append(rows) or echelon(rows, *order))
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert certified_rank(m) == certified_rank(m) == 1
    assert len(calls) == 1
    # an equal but separate matrix runs its own elimination
    twin = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert twin == m and certified_rank(twin) == 1
    assert len(calls) == 2
    # the sparse rank's slot is never read
    wrong = SparseMatrix.from_rows([[1, 2], [2, 4]])
    wrong._rank = 2
    assert certified_rank(wrong) == 1


def test_one_elimination_serves_rank_kernel_and_certificate(monkeypatch):
    echelon = exact_linalg._echelon
    calls = []
    monkeypatch.setattr(exact_linalg, "_echelon",
                        lambda rows, *order: calls.append(rows) or echelon(rows, *order))
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert kernel_basis(m).dim == 1
    assert certified_rank(m) == 2
    assert kernel_basis(m) == kernel_basis(m)
    assert len(calls) == 1
    # an equal but separate matrix runs its own
    twin = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert twin == m and kernel_basis(twin) == kernel_basis(m)
    assert len(calls) == 2


def _dense(m):
    ent = m.entries
    return [[ent.get((r, c), Fraction(0)) for c in range(m.cols)] for r in range(m.rows)]


@st.composite
def matrix_families(draw):
    """A rational matrix with some rows emptied, a matrix with as many rows
    as it has columns, and one with as many columns."""
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    def matrix(rows, cols):
        return SparseMatrix(rows, cols, {(r, c): draw(entry) for r in range(rows)
                                         for c in range(cols) if draw(st.booleans())})

    m = draw(rational_matrices())
    empty = draw(st.sets(st.integers(0, 7)))
    m = SparseMatrix(m.rows, m.cols,
                     {k: v for k, v in m.entries.items() if k[0] not in empty})
    return (m, matrix(m.cols, draw(st.integers(0, 4))),
            matrix(draw(st.integers(0, 4)), m.cols))


@given(matrix_families())
@example((SparseMatrix.zero(0, 3), SparseMatrix.zero(3, 2), SparseMatrix.zero(1, 3)))
def test_integer_rows_match_the_fraction_entries(family):
    m, right, below = family
    entries = m.entries
    assert all(type(v) is Fraction for v in entries.values())
    copy = SparseMatrix(m.rows, m.cols, entries)
    assert copy == m and hash(copy) == hash(m)
    dense = rank_dense(m)
    assert m.rank() == certified_rank(m) == m.cols - kernel_basis(m).dim == dense
    a, b, c = _dense(m), _dense(right), _dense(below)
    assert _dense(m.transpose()) == [[a[r][j] for r in range(m.rows)]
                                     for j in range(m.cols)]
    assert _dense(m @ right) == [[sum((a[r][k] * b[k][j] for k in range(m.cols)),
                                      Fraction(0))
                                  for j in range(right.cols)] for r in range(m.rows)]
    assert _dense(exact_linalg.stacked([m, below], m.cols)) == a + c


def test_certified_rank_keeps_a_fallback_result(monkeypatch):
    m = SparseMatrix.from_rows([[Fraction(1, exact_linalg._P), 1], [1, 1]])
    dense = exact_linalg.rank_dense
    called = []
    monkeypatch.setattr(exact_linalg, "rank_dense",
                        lambda m: called.append(m) or dense(m))
    assert certified_rank(m) == certified_rank(m) == 2
    assert called == [m]


def test_echelon_pivot_rows_are_integer_and_content_free():
    # row 1 is the sparser and holds column 0 with pivot value 4; row 0
    # becomes 2 (2, 1, 1) - (4, 0, 6) = (0, 2, -4), divided by its content 2
    rows = [{0: 2, 1: 1, 2: 1}, {0: 4, 2: 6}]
    assert list(exact_linalg._echelon(rows)) == [
        (0, 1, {0: 4, 2: 6}), (1, 0, {1: 1, 2: -2})]
    # a negative pivot value: the multiplier of the reduced row stays
    # positive, 2 (3, 1, 1) + 3 (-2, 1, 0) = (0, 5, 2)
    rows = [{0: -2, 1: 1}, {0: 3, 1: 1, 2: 1}]
    assert list(exact_linalg._echelon(rows)) == [
        (0, 0, {0: -2, 1: 1}), (1, 1, {1: 5, 2: 2})]


@st.composite
def echelon_inputs(draw):
    """Sparse integer rows rich in what the shortcuts of _echelon meet:
    singleton rows, duplicate rows and multiples of rows, pivot values +-1
    and nonunit ones such as 4 and -2, and rows whose entries share a
    factor."""
    cols = draw(st.integers(1, 7))
    column = st.integers(0, cols - 1)
    value = st.sampled_from((1, -1, 2, -2, 3, 4, -4, 6, -9))
    row = st.dictionaries(column, value, min_size=1, max_size=cols)
    singleton = st.builds(lambda c, v: {c: v}, column, value)
    rows = draw(st.lists(singleton | row, max_size=12))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.sampled_from((1, 1, -1, 2, -3)))
        rows.insert(draw(st.integers(0, len(rows))),
                    {c: k * v for c, v in source.items()})
    return rows


@settings(max_examples=500)
@given(echelon_inputs(), st.booleans())
@example([{0: 4}, {0: 6, 1: 2}, {0: 8, 1: 3}, {0: -2}, {1: 4, 2: 6}, {1: 4, 2: 6}], False)
@example([{2: -2}, {0: 3, 2: 4}, {0: 9, 1: 6, 2: 5}, {2: 3}, {1: 2}], True)
def test_echelon_matches_the_reference(rows, last_first):
    """The same (pivot_col, row_id, row) triples as the elimination before
    its shortcuts, each row with its entries in the same order; rows that
    start as singletons are never changed."""
    singles = [(row, dict(row)) for row in rows if len(row) == 1]
    expected = [(c, p, list(row.items())) for c, p, row in
                reference_echelon([dict(row) for row in rows], last_first)]
    got = [(c, p, list(row.items())) for c, p, row in
           exact_linalg._echelon(rows, last_first)]
    assert got == expected
    assert all(row == before for row, before in singles)


@st.composite
def rational_vectors(draw):
    """Vectors with entries of denominators 1 to 7, both signs, plus a
    nonunit multiple of the sum of the first two: elimination meets
    negative and nonunit pivots, a dependent row and, when the sum is
    integral, a row with a common factor."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 2))
    if len(vectors) >= 2:
        k = draw(st.sampled_from((-6, -3, -2, 2, 3, 4)))
        vectors.append([k * (x + y) for x, y in zip(vectors[0], vectors[1])])
    return n, vectors


@given(rational_vectors())
@example((3, [(2, 1, 1), (4, 0, 6)]))
@example((3, [(-2, 1, 0), (3, 1, 1)]))
@example((2, [(Fraction(-2, 3), Fraction(1, 7)), (Fraction(1, 2), Fraction(5, 6))]))
def test_from_vectors_matches_gauss_jordan(case):
    n, vectors = case
    u = Subspace.from_vectors(n, vectors)
    assert (u.rows, u.pivots) == gauss_jordan(n, vectors)
    assert all(type(v) is Fraction for row in u.rows for v in row.values())
    assert all(type(row[p]) is Fraction and row[p] == 1
               for p, row in zip(u.pivots, u.rows))


@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + kernel_basis(m).dim == m.cols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m).basis:
        assert all(x == 0 for x in m.apply(vec))


@given(matrices())
def test_transpose_preserves_rank(m):
    assert m.rank() == m.transpose().rank()


@given(matrices(5, 5), matrices(5, 5))
def test_matrix_arithmetic(a, b):
    if (a.rows, a.cols) == (b.rows, b.cols):
        v = tuple(range(1, a.cols + 1))
        left = (a + b).apply(v)
        right = tuple(x + y for x, y in zip(a.apply(v), b.apply(v)))
        assert left == right
    if a.cols == b.rows:
        v = tuple(range(1, b.cols + 1))
        assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_subspace_canonical_basis():
    u = Subspace.from_vectors(3, [(2, 4, 0), (1, 2, 1)])
    w = Subspace.from_vectors(3, [(1, 2, 1), (3, 6, 1), (4, 8, 2)])
    assert u == w
    assert u.basis == ((1, 2, 0), (0, 0, 1))
    assert u.pivots == (0, 2)


def test_subspace_membership():
    u = Subspace.from_vectors(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
    assert u.contains((2, 3, 2, 3))
    assert not u.contains((1, 0, 0, 0))
    assert u.contains((0, 0, 0, 0))
    assert u.contains((1, 1, 1, 1))
    with pytest.raises(ValueError):
        u.contains((1, 0))


def test_zero_subspace():
    z = Subspace.zero(5)
    assert z.dim == 0
    assert z.contains([0] * 5)
    assert not z.contains([1, 0, 0, 0, 0])
    assert intersect(z, Subspace.from_vectors(5, [(1, 0, 0, 0, 0)])).dim == 0


def test_intersect_known():
    u = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    w = intersect(u, v)
    assert w.dim == 1
    assert w.contains((0, 5, 0))


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(2, 6))
    mk = lambda: Subspace.from_vectors(
        n,
        draw(
            st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=0,
                max_size=n,
            )
        ),
    )
    return mk(), mk()


@given(subspace_pairs())
def test_intersection_dimension_formula(pair):
    u, v = pair
    w = intersect(u, v)
    s = Subspace.from_vectors(u.ambient_dim, u.rows + v.rows)
    assert w.dim + s.dim == u.dim + v.dim
    for vec in w.basis:
        assert u.contains(vec) and v.contains(vec)
    for vec in u.basis:
        assert s.contains(vec)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(small_entries, min_size=n, max_size=n), max_size=n + 2),
)))
def test_from_vectors_dense_and_sparse_spellings_agree(case):
    n, dense = case
    sparse = [{i: x for i, x in enumerate(vec) if x} for vec in dense]
    a = Subspace.from_vectors(n, dense)
    b = Subspace.from_vectors(n, sparse)
    assert a == b
    assert (a.rows, a.pivots, a.basis) == (b.rows, b.pivots, b.basis)


def test_from_vectors_rejects_outside_coordinates():
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [{3: 1}])
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [{-1: 1}])
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [(1, 0)])


def test_column_space():
    m = SparseMatrix.from_rows([[1, 2], [0, 0], [1, 2]])
    cs = column_space(m)
    assert cs.dim == 1
    assert cs.contains((1, 0, 1))


def test_kernel_known():
    m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    k = kernel_basis(m)
    assert k.dim == 1
    assert k.contains((1, -1, 0))
