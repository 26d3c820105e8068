"""Exact linear algebra over the rationals.

Sparse matrices with Fraction entries, rank by sparse elimination, kernel
bases, and canonical subspaces (reduced row echelon bases, so that two
subspaces are equal as spans iff their stored bases are equal).

The elimination runs on integers. Each row is scaled once, where it is
made, by the lcm of its denominators; that changes neither its span nor
its zero pattern, so the pivots are those of rational elimination. Rows
are then combined by integer multipliers and divided by the gcd of their
entries (fraction-free elimination). Fractions come back only at the
Subspace boundary: each reduced row is divided by its pivot value, so
Subspace rows hold exact Fractions with 1 on every pivot.

Two rank checks stand apart from the sparse elimination. rank_dense is a
deliberately independent dense elimination. certified_rank proves a rank
from the sparse elimination's own output: its kernel basis, checked to be
independent and annihilated exactly (an integer product), bounds the rank
from above, and the minor on its pivot rows and columns, checked
nonsingular modulo a prime by a sparse elimination of its own, bounds it
from below. Both checks are written apart from _echelon and its helpers,
so a fault there cannot certify itself. When the bounds do not meet,
rank_dense decides.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    A float is refused: its binary value is rarely the number meant.

    >>> rat("2"), rat("-1/3"), rat(5), rat("0.1")
    (Fraction(2, 1), Fraction(-1, 3), Fraction(5, 1), Fraction(1, 10))
    >>> rat("1/0")
    Traceback (most recent call last):
    ValueError: zero denominator in '1/0'
    >>> rat(0.1)
    Traceback (most recent call last):
    ValueError: inexact float coefficient 0.1: write an integer or a string such as "1/10"
    """
    if isinstance(x, float):
        raise ValueError(
            f'inexact float coefficient {x!r}: write an integer or a string such as "1/10"'
        )
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
    A Fraction entry is stored as given; any other value is coerced to one.

    >>> m = SparseMatrix(2, 2, {(0, 0): rat(1), (1, 1): rat(2)})
    >>> m.rank()
    2
    >>> m.entry(0, 1)
    Fraction(0, 1)
    >>> SparseMatrix(1, 4, {(0, 0): 3, (0, 1): "1/2", (0, 2): Fraction(0),
    ...                     (0, 3): Fraction(-2, 3)}).entries
    {(0, 0): Fraction(3, 1), (0, 1): Fraction(1, 2), (0, 3): Fraction(-2, 3)}
    >>> SparseMatrix(1, 1, {(0, 1): 1})
    Traceback (most recent call last):
    ValueError: entry index (0,1) out of range
    """

    __slots__ = ("rows", "cols", "entries", "_rank", "_certified")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r},{c}) out of range")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        self._rank: Optional[int] = None
        self._certified: Optional[int] = None

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
        """The non-empty rows as {col: value} dicts, in row order."""
        out: dict = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return [out[r] for r in sorted(out)]

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
        """Rank over the rationals: the number of pivots of _echelon.

        >>> SparseMatrix.identity(3).rank()
        3
        >>> SparseMatrix.zero(4, 7).rank()
        0
        """
        if self._rank is None:
            self._rank = sum(1 for _ in _echelon(_integer_rows(self.row_dicts())))
        return self._rank


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


# a prime; a rational minor that is nonsingular modulo it is nonsingular
_P = (1 << 61) - 1


def certified_rank(m: SparseMatrix) -> int:
    """Rank of m proven from the sparse elimination's own output, with
    rank_dense deciding whenever the proof does not close.

    Upper bound: the kernel_basis vectors are independent by their RREF
    pattern and m k = 0 is checked exactly for each, in integers, so rank
    <= cols - dim ker. Lower bound: the minor of m on the r pivot rows and
    columns of the same elimination is nonsingular modulo the prime _P,
    hence over Q, so rank >= r; a sparse elimination mod _P in the same
    pivot order shows it. The two meet when r = cols - dim ker. Neither
    bound reads m.rank(), so a wrong sparse rank cannot certify itself.

    The result is memoised on m itself, in the _certified slot beside
    _rank, so each matrix object is certified once.

    >>> certified_rank(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    1
    """
    if m._certified is None:
        pivots: list = []
        ker = kernel_basis(m, pivots)
        r = len(pivots)
        proven = (r == m.cols - ker.dim and _annihilates(m, ker)
                  and _minor_nonsingular(m, pivots))
        m._certified = r if proven else rank_dense(m)
    return m._certified


def _annihilates(m: SparseMatrix, ker: "Subspace") -> bool:
    """ker's rows are independent (1 on their own pivot, 0 on every other
    pivot) and m k = 0 exactly for each row k. The product runs in integers
    by a column-indexed sweep: each row of m is scaled by the lcm of its
    denominators, which leaves its zero products zero, and so is each k."""
    pivots = set(ker.pivots)
    if ker.ambient_dim != m.cols or len(pivots) != len(ker.rows):
        return False
    for p, row in zip(ker.pivots, ker.rows):
        if row.get(p) != 1 or any(row[k] for k in row if k != p and k in pivots):
            return False
    dens: dict = {}
    for (r, _), v in m.entries.items():
        d = v.denominator
        if d != 1:
            dens[r] = lcm(dens.get(r, 1), d)
    by_col: dict = {}
    for (r, c), v in m.entries.items():
        scaled = v.numerator * (dens.get(r, 1) // v.denominator)
        by_col.setdefault(c, []).append((r, scaled))
    for row in ker.rows:
        den = 1
        for x in row.values():
            if x.denominator != 1:
                den = lcm(den, x.denominator)
        out: dict = {}
        for c, x in row.items():
            if not 0 <= c < m.cols:
                return False
            x = x.numerator * (den // x.denominator)
            for r, v in by_col.get(c, ()):
                out[r] = out.get(r, 0) + v * x
        if any(out.values()):
            return False
    return True


def _minor_nonsingular(m: SparseMatrix, pivots: list) -> bool:
    """The minor of m on the (column, row) positions is nonsingular modulo
    _P, by a sparse forward elimination over Z/_P in the given pivot order.

    The minor is held as {column: value mod _P} rows, numbered in pivot
    order, with a column index (column -> ids of the rows holding it). For
    column j the pivot is row j, the row the checked elimination took,
    while it holds the column, and otherwise the lowest remaining row that
    does; fill-in then stays inside the fill-in of that elimination. False
    when no remaining row holds a column, or when _P divides a denominator
    inside the minor."""
    n = len(pivots)
    col_of = {c: j for j, (c, _) in enumerate(pivots)}
    row_of = {r: i for i, (_, r) in enumerate(pivots)}
    if len(col_of) != n or len(row_of) != n:
        return False
    rows: list = [{} for _ in range(n)]
    for (r, c), v in m.entries.items():
        i, j = row_of.get(r), col_of.get(c)
        if i is None or j is None:
            continue
        if v.denominator % _P == 0:
            return False
        x = v.numerator * pow(v.denominator, -1, _P) % _P
        if x:
            rows[i][j] = x
    holders: list = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].append(i)
    for j in range(n):
        col = holders[j]
        if not col:
            return False
        p = j if rows[j] is not None and j in rows[j] else min(col)
        col.remove(p)
        prow, rows[p] = rows[p], None
        for k in prow:
            if k != j:
                holders[k].remove(p)
        inv = pow(prow[j], -1, _P)
        tail = [(k, x) for k, x in prow.items() if k != j]
        for i in col:
            row = rows[i]
            f = row.pop(j) * inv % _P
            for k, x in tail:
                nv = (row.get(k, 0) - f * x) % _P
                if nv:
                    if k not in row:
                        holders[k].append(i)
                    row[k] = nv
                else:
                    del row[k]
                    holders[k].remove(i)
    return True


def _integer_rows(rows: list) -> list:
    """Scale each {col: rational} row of rows, in place, by the lcm of its
    denominators, so that every value becomes an int; returns rows."""
    for row in rows:
        den = 1
        for v in row.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        for k, v in row.items():
            row[k] = v.numerator * (den // v.denominator)
    return rows


def _echelon(rows: list):
    """Fraction-free forward elimination of sparse integer rows, the one
    elimination kernel.

    Goes through the columns in order and yields (pivot_col, row_id, row)
    for each pivot: row_id is the pivot row's index in rows, and row the
    pivot row, free of every earlier pivot column, with its pivot value at
    row[pivot_col]. The pivot is the sparsest row holding the column, ties
    going to the lowest row id; a column index (column -> ids of the rows
    holding it) finds the rows without scanning. The index holds lists, not
    sets: columns are short, and a set costs several times the memory of a
    list. A row holding the column becomes a*row - b*prow, with the
    multipliers of _scale, and when a != 1 it is then divided by the gcd of
    its entries. Integer rows keep the zero patterns of the rational rows
    they stand for, so pivots and counts are those of rational elimination.
    Consumes rows, a list of {col: int} dicts: pivot rows are taken out of
    it and the others are reduced in place.
    """
    col_rows: dict = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, []).append(rid)
    for c in range(max(col_rows, default=-1) + 1):
        holders = col_rows.pop(c, None)
        if not holders:
            continue
        p = min(holders, key=lambda rid: (len(rows[rid]), rid))
        holders.remove(p)
        prow, rows[p] = rows[p], None
        for k in prow:
            if k != c:
                col_rows[k].remove(p)
        pv = prow[c]
        tail = [(k, v) for k, v in prow.items() if k != c]
        for rid in holders:
            row = rows[rid]
            a, b = _scale(row, pv, row.pop(c))
            for k, v in tail:
                nv = row.get(k, 0) - b * v
                if nv:
                    if k not in row:
                        col_rows.setdefault(k, []).append(rid)
                    row[k] = nv
                else:
                    del row[k]
                    col_rows[k].remove(rid)
            if a != 1:
                _divide_content(row)
        yield c, p, prow


def _rref(rows: list) -> list:
    """Reduced row echelon form of sparse integer rows, as the (pivot_col,
    row_id, row) triples of _echelon with every pivot column cleared from
    the other rows. The back substitution is fraction-free like _echelon;
    only then is each row divided by its pivot value, so the rows come out
    as {col: Fraction} dicts with an exact 1 on the pivot. RREF is unique,
    so the output is canonical. Consumes rows."""
    finished = list(_echelon(rows))
    # back substitution, last pivot first: the rows in reduced are free of
    # every other pivot column, so combining with them adds no pivot column
    reduced: dict = {}
    for c, _, row in reversed(finished):
        for p in [k for k in row if k in reduced]:
            prow = reduced[p]
            a, b = _scale(row, prow[p], row[p])
            _subtract(row, b, prow)
            if a != 1:
                _divide_content(row)
        reduced[c] = row
    for c, _, row in finished:
        pv = row[c]
        for k, v in row.items():
            row[k] = Fraction(v, pv)
    return finished


def _scale(row: dict, pv: int, f: int) -> tuple:
    """(a, b) with a*f == b*pv: a = pv/g and b = f/g for g = gcd(pv, f)
    taken with the sign of pv, so a > 0. Multiplies the integer row by a
    in place, ready for subtracting b times the row whose pivot value is
    pv."""
    g = gcd(pv, f)
    if pv < 0:
        g = -g
    a = pv // g
    if a != 1:
        for k in row:
            row[k] *= a
    return a, f // g


def _divide_content(row: dict) -> None:
    """Divide the integer row, in place, by the gcd of its entries."""
    h = gcd(*row.values())
    if h > 1:
        for k in row:
            row[k] //= h


def _subtract(w: dict, f, row: dict) -> None:
    """w -= f * row on sparse {coordinate: value} dicts, dropping zeros;
    f must be nonzero."""
    for k, v in row.items():
        nv = w.get(k, 0) - f * v
        if nv:
            w[k] = nv
        else:
            del w[k]


def stacked(blocks, cols: int) -> SparseMatrix:
    """The blocks, each with cols columns, one above the other."""
    ent = {}
    offset = 0
    for b in blocks:
        for (row, col), v in b.entries.items():
            ent[(offset + row, col)] = v
        offset += b.rows
    return SparseMatrix(offset, cols, ent)


def to_dense(row: dict, n: int) -> tuple:
    """The length-n coordinate tuple of a sparse {coordinate: value} row."""
    vec = [Fraction(0)] * n
    for k, v in row.items():
        vec[k] = v
    return tuple(vec)


class Subspace:
    """A linear subspace of Q^n stored via its unique RREF basis.

    rows holds the basis as sparse {coordinate: value} dicts and pivots
    their leading coordinates, so two subspaces are equal as spans iff
    their rows are equal.

    >>> u = Subspace.from_vectors(2, [(2, 0), (1, 0)])
    >>> u.dim, u.basis
    (1, ((Fraction(1, 1), Fraction(0, 1)),))
    >>> u == Subspace.from_vectors(2, [{0: 5}])
    True
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: tuple, pivots: tuple):
        # internal; use from_vectors for canonicalization
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        """Span of the vectors, each a length-ambient_dim sequence or a
        {coordinate: value} dict."""
        rows = []
        for vec in vectors:
            if isinstance(vec, dict):
                if any(not 0 <= i < ambient_dim for i in vec):
                    raise ValueError("vector coordinate outside the ambient dimension")
                items = vec.items()
            else:
                vec = list(vec)
                if len(vec) != ambient_dim:
                    raise ValueError("vector length does not match ambient dimension")
                items = enumerate(vec)
            row = {}
            for i, v in items:
                if not isinstance(v, (int, Fraction)):
                    v = Fraction(v)
                if v:
                    row[i] = v
            if row:
                rows.append(row)
        finished = _rref(_integer_rows(rows))
        return cls(ambient_dim, tuple(row for _, _, row in finished),
                   tuple(c for c, _, _ in finished))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The RREF basis as dense coordinate tuples."""
        return tuple(to_dense(row, self.ambient_dim) for row in self.rows)

    def matrix(self) -> SparseMatrix:
        """Basis vectors stacked as rows."""
        return SparseMatrix(self.dim, self.ambient_dim, {
            (r, c): v for r, row in enumerate(self.rows) for c, v in row.items()
        })

    def reduce(self, w: dict) -> dict:
        """Clear every pivot coordinate of the sparse vector w (in place)
        by subtracting basis rows; the rest is empty iff w lies in the span.

        >>> Subspace.from_vectors(2, [(1, 1)]).reduce({0: 2})
        {1: Fraction(-2, 1)}
        """
        for p, row in zip(self.pivots, self.rows):
            f = w.get(p)
            if f:
                _subtract(w, f, row)
        return w

    def contains(self, w: Sequence) -> bool:
        """Membership test: w reduces to zero against the basis.

        >>> Subspace.from_vectors(2, [(1, 0)]).contains((2, 0))
        True
        >>> Subspace.from_vectors(2, [(1, 0)]).contains((0, 1))
        False
        """
        w = [Fraction(x) for x in w]
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not self.reduce({i: x for i, x in enumerate(w) if x})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        # equal RREF rows have equal pivots
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: SparseMatrix, pivots: Optional[list] = None) -> Subspace:
    """Basis of the right null space {v : m v = 0}.

    rank(m) + dim kernel = cols(m). When a list is passed as pivots, the
    elimination appends to it the position (column, row of m) of each
    pivot it took, in the order taken: certified_rank's lower bound.

    >>> kernel_basis(SparseMatrix.from_rows([[1, 2]])).basis
    ((Fraction(1, 1), Fraction(-1, 2)),)
    """
    finished = _rref(_integer_rows(m.row_dicts()))
    if pivots is not None:
        row_ids = sorted({r for r, _ in m.entries})  # the rows of row_dicts
        pivots.extend((c, row_ids[rid]) for c, rid, _ in finished)
    pivot_cols = {c for c, _, _ in finished}
    # one vector per free column f: 1 at f, minus column f of the RREF
    vectors = {f: {f: Fraction(1)} for f in range(m.cols) if f not in pivot_cols}
    for c, _, row in finished:
        for f, x in row.items():
            if f != c:
                vectors[f][c] = -x
    return Subspace.from_vectors(m.cols, vectors.values())


def column_space(m: SparseMatrix) -> Subspace:
    """Span of the columns of m, as a subspace of Q^rows."""
    columns = [{} for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    return Subspace.from_vectors(m.rows, columns)


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
    for j, row in enumerate(u.rows + v.rows):
        for i, x in row.items():
            ent[(i, j)] = x
    ker = kernel_basis(SparseMatrix(u.ambient_dim, du + dv, ent))
    return _combinations(u, ker)


def kernel_within(m: SparseMatrix, u: Subspace) -> Subspace:
    """The part of u that m annihilates, ker(m) cap u.

    One kernel, of m restricted to the basis of u: a kernel vector a of
    m u^T gives the point sum(a_i u_i).

    >>> u = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 1)])
    >>> kernel_within(SparseMatrix.from_rows([[0, 1, -1]]), u) == u
    True
    """
    return _combinations(u, kernel_basis(m @ u.matrix().transpose()))


def _combinations(u: Subspace, coeffs: Subspace) -> Subspace:
    """Span of the points sum(a_i u_i), one for each coefficient row a of
    coeffs; coefficients past the basis of u are ignored."""
    points = []
    for row in coeffs.rows:
        point: dict = {}
        for j, a in row.items():
            if j < u.dim:
                _subtract(point, -a, u.rows[j])
        points.append(point)
    return Subspace.from_vectors(u.ambient_dim, points)
