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

from oracles import gauss_jordan

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


@settings(max_examples=200)
@given(minor_positions())
def test_minor_nonsingular_agrees_with_dense_oracle(case):
    m, positions = case
    n = len(positions)
    minor = SparseMatrix(n, n, {(i, j): m.entry(r, c) for i, (_, r) in enumerate(positions)
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
    assert exact_linalg._annihilates(m, ker)
    row = dict(ker.rows[0])
    k = next(k for k in row if k != ker.pivots[0])
    row[k] += Fraction(1, 7)
    moved = Subspace(ker.ambient_dim, (row,) + ker.rows[1:], ker.pivots)
    assert not exact_linalg._annihilates(m, moved)


def _drop_vector(ker, pivots):
    return Subspace(ker.ambient_dim, ker.rows[1:], ker.pivots[1:])


def _perturb_entry(ker, pivots):
    row = dict(ker.rows[0])
    k = next(k for k in row if k != ker.pivots[0])
    row[k] += 1
    return Subspace(ker.ambient_dim, (row,) + ker.rows[1:], ker.pivots)


def _singular_minor(ker, pivots):
    # rows 0 and 1 of the matrix below are proportional
    pivots[:] = [(c, r) for (c, _), r in zip(pivots, (0, 1))]
    return ker


@pytest.mark.parametrize("tamper", [None, _drop_vector, _perturb_entry,
                                    _singular_minor])
def test_certified_rank_falls_back_when_the_proof_fails(monkeypatch, tamper):
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    kernel = exact_linalg.kernel_basis
    dense = exact_linalg.rank_dense
    if tamper is not None:
        monkeypatch.setattr(exact_linalg, "kernel_basis",
                            lambda m, pivots=None: tamper(kernel(m, pivots), pivots))
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
    kernel = exact_linalg.kernel_basis
    calls = []
    monkeypatch.setattr(exact_linalg, "kernel_basis",
                        lambda m, pivots=None: calls.append(m) or kernel(m, pivots))
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
