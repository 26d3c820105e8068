"""Exact linear algebra over the rationals.

Sparse matrices with Fraction entries, rank by sparse elimination, a
deliberately independent dense elimination used as an oracle, kernel
bases, and canonical subspaces (reduced row echelon bases, so that two
subspaces are equal as spans iff their stored bases are equal).
"""

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    >>> rat("2"), rat("-1/3"), rat(5)
    (Fraction(2, 1), Fraction(-1, 3), Fraction(5, 1))
    >>> rat("1/0")
    Traceback (most recent call last):
    ValueError: zero denominator in '1/0'
    """
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def rat_str(q) -> str:
    """Serialize a rational as "p/q", omitting the denominator when it is 1.

    >>> rat_str(Fraction(2)), rat_str(Fraction(-1, 3))
    ('2', '-1/3')
    """
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class SparseMatrix:
    """Immutable-by-convention sparse rational matrix.

    Entries are held in a dict keyed by (row, col); zeros are never stored.

    >>> m = SparseMatrix(2, 2, {(0, 0): rat(1), (1, 1): rat(2)})
    >>> m.rank()
    2
    >>> m.entry(0, 1)
    Fraction(0, 1)
    """

    __slots__ = ("rows", "cols", "entries", "_rank")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r},{c}) out of range")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        self._rank: Optional[int] = None

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SparseMatrix":
        """Build from a dense list of row lists.

        >>> SparseMatrix.from_rows([[1, 2], [0, 0]]).nnz
        2
        """
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        ent = {}
        for r, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    ent[(r, c)] = v
        return cls(nr, nc, ent)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def to_rows(self) -> list:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def row_dicts(self) -> list:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, vec of length cols."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for (r, c), v in self.entries.items():
            x = vec[c]
            if x:
                out[r] += v * Fraction(x)
        return tuple(out)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        by_row = [dict() for _ in range(other.rows)]
        for (r, c), v in other.entries.items():
            by_row[r][c] = v
        ent: dict = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row[k].items():
                key = (r, c)
                nv = ent.get(key, Fraction(0)) + a * b
                if nv:
                    ent[key] = nv
                else:
                    ent.pop(key, None)
        return SparseMatrix(self.rows, other.cols, ent)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        ent = dict(self.entries)
        for key, v in other.entries.items():
            nv = ent.get(key, Fraction(0)) + v
            if nv:
                ent[key] = nv
            else:
                ent.pop(key, None)
        return SparseMatrix(self.rows, self.cols, ent)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, a) -> "SparseMatrix":
        a = Fraction(a)
        if not a:
            return SparseMatrix.zero(self.rows, self.cols)
        return SparseMatrix(
            self.rows, self.cols, {k: a * v for k, v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def rank(self) -> int:
        """Rank over the rationals by sparse elimination.

        Pivots are chosen in the sparsest column, then the sparsest row
        within it (ties broken by index), which keeps fill-in low on the
        differential matrices this package produces.

        >>> SparseMatrix.identity(3).rank()
        3
        >>> SparseMatrix.zero(4, 7).rank()
        0
        """
        if self._rank is not None:
            return self._rank
        rows: dict = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        col_rows: dict = {}
        for r, row in rows.items():
            for c in row:
                col_rows.setdefault(c, set()).add(r)
        rank = 0
        while col_rows:
            c = min(col_rows, key=lambda cc: (len(col_rows[cc]), cc))
            p = min(col_rows[c], key=lambda rr: (len(rows[rr]), rr))
            prow = rows.pop(p)
            pv = prow[c]
            for cc in prow:
                s = col_rows.get(cc)
                if s is not None:
                    s.discard(p)
                    if not s:
                        del col_rows[cc]
            for r in sorted(col_rows.get(c, ())):
                row = rows[r]
                f = row[c] / pv
                for cc, vv in prow.items():
                    nv = row.get(cc, Fraction(0)) - f * vv
                    if nv:
                        if cc not in row:
                            col_rows.setdefault(cc, set()).add(r)
                        row[cc] = nv
                    else:
                        del row[cc]
                        s = col_rows.get(cc)
                        if s is not None:
                            s.discard(r)
                            if not s:
                                del col_rows[cc]
            rank += 1
        self._rank = rank
        return rank


def rank_dense(m: SparseMatrix) -> int:
    """Textbook dense Gaussian elimination; the independent rank oracle.

    Shares no elimination code with SparseMatrix.rank: rows are dense
    lists, pivots are taken in column order using the first nonzero row.

    >>> rank_dense(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    1
    """
    rows = m.to_rows()
    nrows, ncols = m.rows, m.cols
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pv = prow[c]
        pnz = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for r in range(nrows):
            if r == rank:
                continue
            row = rows[r]
            if row[c]:
                f = row[c] / pv
                for j, pvj in pnz:
                    row[j] -= f * pvj
        rank += 1
    return rank


def _sparse_rref(row_dicts: list, ncols: int) -> list:
    """Reduced row echelon form of sparse rows.

    Returns a list of (pivot_col, row_dict) with strictly increasing
    pivot columns, each pivot normalized to 1 and cleared from every
    other returned row. RREF is unique, so the output is canonical.
    """
    rows = [dict(r) for r in row_dicts if r]
    active = list(range(len(rows)))
    finished = []
    for c in range(ncols):
        piv = None
        best = None
        for rid in active:
            row = rows[rid]
            if c in row:
                key = (len(row), rid)
                if best is None or key < best:
                    best = key
                    piv = rid
        if piv is None:
            continue
        active.remove(piv)
        prow = rows[piv]
        pv = prow[c]
        if pv != 1:
            prow = {k: v / pv for k, v in prow.items()}
        survivors = []
        for rid in active:
            row = rows[rid]
            f = row.get(c)
            if f:
                for k, v in prow.items():
                    nv = row.get(k, Fraction(0)) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
            if row:
                survivors.append(rid)
        active = survivors
        finished.append((c, prow))
    # clear pivot columns above each pivot (back substitution)
    for idx in range(len(finished) - 1, -1, -1):
        c, prow = finished[idx]
        for jdx in range(idx):
            row = finished[jdx][1]
            f = row.get(c)
            if f:
                for k, v in prow.items():
                    nv = row.get(k, Fraction(0)) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
    return finished


class Subspace:
    """A linear subspace of Q^n stored via its unique RREF basis.

    >>> u = Subspace.from_vectors(2, [(2, 0), (1, 0)])
    >>> u.dim, u.basis
    (1, ((Fraction(1, 1), Fraction(0, 1)),))
    >>> u == Subspace.from_vectors(2, [(5, 0)])
    True
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: tuple, pivots: tuple):
        # internal; use from_vectors for canonicalization
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        row_dicts = []
        for vec in vectors:
            vec = list(vec)
            if len(vec) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            d = {}
            for i, v in enumerate(vec):
                v = Fraction(v)
                if v:
                    d[i] = v
            row_dicts.append(d)
        finished = _sparse_rref(row_dicts, ambient_dim)
        basis = []
        pivots = []
        for c, row in finished:
            vec = [Fraction(0)] * ambient_dim
            for k, v in row.items():
                vec[k] = v
            basis.append(tuple(vec))
            pivots.append(c)
        return cls(ambient_dim, tuple(basis), tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        return self._pivots

    def matrix(self) -> SparseMatrix:
        """Basis vectors stacked as rows."""
        ent = {}
        for r, vec in enumerate(self.basis):
            for c, v in enumerate(vec):
                if v:
                    ent[(r, c)] = v
        return SparseMatrix(self.dim, self.ambient_dim, ent)

    def contains(self, w: Sequence) -> bool:
        """Membership test via rank of the augmented basis matrix.

        >>> Subspace.from_vectors(2, [(1, 0)]).contains((2, 0))
        True
        >>> Subspace.from_vectors(2, [(1, 0)]).contains((0, 1))
        False
        """
        w = list(w)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if not any(Fraction(x) for x in w):
            return True
        stacked = [list(v) for v in self.basis] + [w]
        return SparseMatrix.from_rows(stacked).rank() == self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: SparseMatrix) -> Subspace:
    """Basis of the right null space {v : m v = 0}.

    rank(m) + dim kernel = cols(m).

    >>> kernel_basis(SparseMatrix.from_rows([[1, 2]])).basis
    ((Fraction(1, 1), Fraction(-1, 2)),)
    """
    finished = _sparse_rref(m.row_dicts(), m.cols)
    pivot_cols = [c for c, _ in finished]
    pivot_set = set(pivot_cols)
    vectors = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for c, row in finished:
            x = row.get(f)
            if x:
                vec[c] = -x
        vectors.append(vec)
    return Subspace.from_vectors(m.cols, vectors)


def column_space(m: SparseMatrix) -> Subspace:
    """Span of the columns of m, as a subspace of Q^rows."""
    return Subspace.from_vectors(
        m.rows, (tuple(col) for col in zip(*m.to_rows())) if m.cols else ()
    )


def sum_spaces(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(u.ambient_dim, list(u.basis) + list(v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces.

    Solved through the kernel of the matrix whose columns are the two
    bases side by side: a kernel vector (a | b) encodes a point
    sum(a_i u_i) = -sum(b_j v_j) of the intersection.

    >>> u = Subspace.from_vectors(2, [(1, 0), (0, 1)])
    >>> intersect(u, Subspace.from_vectors(2, [(1, 1)])).basis
    ((Fraction(1, 1), Fraction(1, 1)),)
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    du, dv = u.dim, v.dim
    if du == 0 or dv == 0:
        return Subspace.zero(u.ambient_dim)
    ent = {}
    for j, vec in enumerate(u.basis):
        for i, x in enumerate(vec):
            if x:
                ent[(i, j)] = x
    for j, vec in enumerate(v.basis):
        for i, x in enumerate(vec):
            if x:
                ent[(i, du + j)] = x
    ker = kernel_basis(SparseMatrix(u.ambient_dim, du + dv, ent))
    points = []
    for coeffs in ker.basis:
        vec = [Fraction(0)] * u.ambient_dim
        for j in range(du):
            a = coeffs[j]
            if a:
                for i, x in enumerate(u.basis[j]):
                    if x:
                        vec[i] += a * x
        points.append(vec)
    return Subspace.from_vectors(u.ambient_dim, points)


def contains(u: Subspace, w: Sequence) -> bool:
    return u.contains(w)
