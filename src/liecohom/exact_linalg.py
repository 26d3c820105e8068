"""Exact linear algebra over the rationals.

A SparseMatrix stores each non-empty row once, as a {col: int} dict with a
positive denominator: the row's rational entries are its integers divided
by that denominator, which is the lcm of their own denominators. So the
integers and the denominator share no factor and the storage is unique.
The Fraction entries are a view, built when read.

A matrix is eliminated at most once. The first call to rank, kernel_basis,
column_space or certified_rank runs _echelon, the one elimination kernel,
on copies of the stored rows it may change, and the matrix keeps the
result: its pivots and integer pivot rows. The elimination is fraction-free: rows are combined by integer
multipliers and divided by the gcd of their entries, which keeps the zero
patterns of the rational rows, so the pivots are those of rational
elimination. It takes the columns from last to first. Back substitution
of a copy of the stored echelon then gives one kernel vector per free
column whose leading coordinate is that free column, so the vectors are
already the reduced row echelon (RREF) basis of the kernel.

A Subspace holds the RREF basis of a span, with Fractions and 1 on every
pivot, so two subspaces are equal as spans iff their stored bases are
equal. Subspace.from_vectors runs the same _echelon in column order, then
the same back substitution.

Two rank checks stand apart from _echelon. rank_dense is a deliberately
independent dense elimination of the Fraction view. certified_rank proves
the stored echelon's rank: its kernel vectors, independent by their
free-column pattern and annihilated by the stored rows exactly (an integer
product), bound the rank from above, and the minor on its pivot rows and
columns, checked nonsingular modulo a prime by a sparse elimination of its
own, bounds it from below. Both checks are written apart from _echelon and
its helpers, so a fault there cannot certify itself. When the bounds do not
meet, rank_dense decides.
"""

from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

# the largest decimal exponent rat accepts: Fraction expands "1e30000000"
# into a 30-million-digit integer before anything can refuse it
_MAX_EXPONENT = 100


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational.

    A float is refused: its binary value is rarely the number meant. So are
    a bool and a string whose decimal exponent exceeds _MAX_EXPONENT.

    >>> rat("2"), rat("-1/3"), rat(5), rat("0.1"), rat("25e-2")
    (Fraction(2, 1), Fraction(-1, 3), Fraction(5, 1), Fraction(1, 10), Fraction(1, 4))
    >>> rat("1/0")
    Traceback (most recent call last):
    ValueError: zero denominator in '1/0'
    >>> rat(0.1)
    Traceback (most recent call last):
    ValueError: inexact float coefficient 0.1: write an integer or a string such as "1/10"
    >>> rat(True)
    Traceback (most recent call last):
    ValueError: boolean coefficient True: write an integer or a string
    >>> rat("1e30000000")
    Traceback (most recent call last):
    ValueError: exponent too large in '1e30000000': at most 100
    """
    if isinstance(x, bool):
        raise ValueError(f"boolean coefficient {x!r}: write an integer or a string")
    if isinstance(x, float):
        raise ValueError(
            f'inexact float coefficient {x!r}: write an integer or a string such as "1/10"'
        )
    if isinstance(x, str):
        _, e, exp = x.strip().lower().rpartition("e")
        exp = exp.lstrip("+-").replace("_", "").lstrip("0")
        if e and exp.isdecimal() and (len(exp) > 3 or int(exp) > _MAX_EXPONENT):
            raise ValueError(f"exponent too large in {x!r}: at most {_MAX_EXPONENT}")
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

    Each non-empty row is stored as a {col: int} dict with a positive
    denominator, the lcm of its entries' denominators; zeros are never
    stored. entries is the {(row, col): Fraction} view, built on each read.
    The constructor takes entries of any int, string or Fraction value.

    The first rank, kernel_basis, column_space or certified_rank call keeps
    the elimination in the _elimination slot, and later calls only read it;
    _rank is its pivot count and _certified the certified rank.

    >>> m = SparseMatrix(2, 2, {(0, 0): rat(1), (1, 1): rat(2)})
    >>> m.rank()
    2
    >>> SparseMatrix(1, 4, {(0, 0): 3, (0, 1): "1/2", (0, 2): Fraction(0),
    ...                     (0, 3): Fraction(-2, 3)}).entries
    {(0, 0): Fraction(3, 1), (0, 1): Fraction(1, 2), (0, 3): Fraction(-2, 3)}
    >>> SparseMatrix(1, 1, {(0, 1): 1})
    Traceback (most recent call last):
    ValueError: entry index (0,1) out of range
    """

    __slots__ = ("rows", "cols", "_rows", "_dens", "_elimination", "_rank", "_certified")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        by_row: dict = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r},{c}) out of range")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                by_row.setdefault(r, {})[c] = v
        self._rows = by_row
        self._dens = {}
        for r, row in by_row.items():
            den = _clear_denominators(row)
            if den != 1:
                self._dens[r] = den
        self._elimination: list | None = None
        self._rank: int | None = None
        self._certified: int | None = None

    @classmethod
    def from_integer_rows(cls, rows: int, cols: int, int_rows: dict,
                          dens: dict | None = None) -> "SparseMatrix":
        """The matrix whose row r is int_rows[r] divided by dens.get(r, 1).

        int_rows maps row indices to non-empty {col: nonzero int} dicts and
        dens to positive ints; neither is checked. The matrix keeps the
        dicts: a row with a denominator is divided in place by the factor
        it shares with it, and no one may change them afterwards.
        """
        m = cls(rows, cols)
        m._rows = int_rows
        for r, den in (dens or {}).items():
            row = int_rows[r]
            g = gcd(den, *row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
                den //= g
            if den != 1:
                m._dens[r] = den
        return m

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
                ent[(r, c)] = v
        return cls(nr, nc, ent)

    def integer_rows(self):
        """(row, {col: int}, denominator) for each non-empty row: its
        entries are the ints divided by the denominator. The dicts are the
        matrix's own and must not be changed."""
        dens = self._dens
        for r, row in self._rows.items():
            yield r, row, dens.get(r, 1)

    @property
    def entries(self) -> dict:
        """The nonzero entries as {(row, col): Fraction}, built on each read."""
        return {(r, c): Fraction(v, den)
                for r, row, den in self.integer_rows() for c, v in row.items()}

    @property
    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def transpose(self) -> "SparseMatrix":
        # column c of self, as a row, takes the lcm of its rows' denominators
        col_dens: dict = {}
        for r, den in self._dens.items():
            for c in self._rows[r]:
                col_dens[c] = lcm(col_dens.get(c, 1), den)
        out: dict = {}
        for r, row, den in self.integer_rows():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v * (col_dens.get(c, 1) // den)
        return SparseMatrix.from_integer_rows(self.cols, self.rows, out, col_dens)

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product on sparse {coordinate: value} vectors,
        vec's coordinates in [0, cols); the product holds its nonzeros only.
        """
        check_coordinates(vec, self.cols)
        out = {}
        for r, row, den in self.integer_rows():
            s = 0
            for c, v in row.items():
                x = vec.get(c)
                if x:
                    s += v * x
            if s:
                out[r] = Fraction(s, den)
        return out

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        orows, odens = other._rows, other._dens
        out, dens = {}, {}
        for r, row, den in self.integer_rows():
            # sum over k of row[k] * other's row k, over one denominator
            common = lcm(*[odens.get(k, 1) for k in row])
            acc: dict = {}
            for k, a in row.items():
                brow = orows.get(k)
                if brow is not None:
                    f = a * (common // odens.get(k, 1))
                    for c, b in brow.items():
                        acc[c] = acc.get(c, 0) + f * b
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
                if den * common != 1:
                    dens[r] = den * common
        return SparseMatrix.from_integer_rows(self.rows, other.cols, out, dens)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        ent = self.entries
        for key, v in other.entries.items():
            ent[key] = ent.get(key, 0) + v
        return SparseMatrix(self.rows, self.cols, ent)

    def scale(self, a) -> "SparseMatrix":
        a = Fraction(a)
        return SparseMatrix(
            self.rows, self.cols, {k: a * v for k, v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
            and self._dens == other._dens
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(
            (r, den, frozenset(row.items())) for r, row, den in self.integer_rows())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def rank(self) -> int:
        """Rank over the rationals: the pivot count of the stored echelon.

        >>> SparseMatrix.identity(3).rank()
        3
        >>> SparseMatrix.zero(4, 7).rank()
        0
        """
        if self._rank is None:
            _stored_echelon(self)
        return self._rank


def _clear_denominators(row: dict) -> int:
    """Scale the {col: rational} row in place by the lcm of its
    denominators, so that every value becomes an int; returns the lcm."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    for k, v in row.items():
        row[k] = v.numerator * (den // v.denominator)
    return den


def _stored_echelon(m: SparseMatrix) -> list:
    """m's forward elimination as (pivot_col, row of m, integer pivot row)
    triples, columns taken from last to first: run once, on copies of the
    stored rows, and kept on m with its pivot count in _rank. _echelon never
    changes a row that starts as a singleton, so those are not copied."""
    if m._elimination is None:
        ids = list(m._rows)
        rows = [row if len(row) == 1 else dict(row) for row in m._rows.values()]
        m._elimination = [(c, ids[i], row) for c, i, row in _echelon(rows, True)]
        m._rank = len(m._elimination)
    return m._elimination


def _kernel(m: SparseMatrix) -> tuple:
    """(pivots, kernel) from back substitution of a copy of m's stored
    echelon. pivots lists the (column, row of m) of each pivot in the order
    taken. kernel maps each free column f, ascending, to an integer kernel
    vector that is nonzero at f and zero at every other free column.

    The columns were eliminated last to first, so a reduced pivot row has
    no entry right of its pivot, and the vector of f has none left of f:
    divided by its value at f, it is the RREF kernel basis vector of f.
    """
    finished = [(c, r, dict(row)) for c, r, row in _stored_echelon(m)]
    _back_substitute(finished)
    pivot_cols = {c for c, _, _ in finished}
    terms: dict = {f: [] for f in range(m.cols) if f not in pivot_cols}
    for c, _, row in finished:
        pv = row[c]
        for f, x in row.items():
            if f != c:
                terms[f].append((c, x, pv))
    kernel = {}
    for f, column in terms.items():
        # v = L e_f - sum of (x / pv) L e_c, with L a multiple of every pv
        L = lcm(*[pv for _, _, pv in column])
        vec = {f: L}
        for c, x, pv in column:
            vec[c] = -x * (L // pv)
        kernel[f] = vec
    return [(c, r) for c, r, _ in finished], kernel


def rank_dense(m: SparseMatrix) -> int:
    """Textbook dense Gaussian elimination; the independent rank oracle.

    Shares no elimination code with SparseMatrix.rank: rows are dense
    lists of the Fraction entries, pivots are taken in column order using
    the first nonzero row.

    >>> rank_dense(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    1
    """
    rows = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
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
    """Rank of m proven from its stored echelon, with rank_dense deciding
    whenever the proof does not close.

    _kernel back-substitutes a copy of the stored echelon (m is eliminated
    first if it has not been) and gives its r pivots and one integer kernel
    vector per free column. Upper bound: the vectors are independent, each
    nonzero on its own free column and zero on the others, and m k = 0 is
    checked exactly for each against the stored integer rows, so rank <=
    cols - dim ker. Lower bound: the minor of m on the pivot rows and
    columns is nonsingular modulo the prime _P, hence over Q, so rank >= r;
    a sparse elimination mod _P in the same pivot order shows it. The two
    meet when r = cols - dim ker. Neither check reads m.rank() or shares
    code with _echelon, so a wrong elimination cannot certify itself.

    The result is kept on m, in the _certified slot, so each matrix object
    is certified once.

    >>> certified_rank(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    1
    """
    if m._certified is None:
        pivots, kernel = _kernel(m)
        r = len(pivots)
        proven = (r == m.cols - len(kernel) and _annihilates(m, kernel)
                  and _minor_nonsingular(m, pivots))
        m._certified = r if proven else rank_dense(m)
    return m._certified


def _annihilates(m: SparseMatrix, kernel: dict) -> bool:
    """The vectors of kernel, {free column: {coordinate: value}}, are
    independent (each nonzero on its own free column and zero on the
    others) and m k = 0 exactly for each: every stored integer row of m,
    a positive multiple of the rational row, times every vector is 0. The
    product sweeps the rows of m against an index of the vectors by
    coordinate; a row that meets no coordinate of any vector is skipped."""
    free = set(kernel)
    by_coord: dict = {}
    for j, (f, vec) in enumerate(kernel.items()):
        if not vec.get(f) or any(k in free for k in vec if k != f):
            return False
        for k, x in vec.items():
            if not 0 <= k < m.cols:
                return False
            by_coord.setdefault(k, []).append((j, x))
    coords = by_coord.keys()
    for row in m._rows.values():
        if coords.isdisjoint(row):
            continue
        out: dict = {}
        for c, v in row.items():
            for j, x in by_coord.get(c, ()):
                out[j] = out.get(j, 0) + v * x
        if any(out.values()):
            return False
    return True


def _minor_nonsingular(m: SparseMatrix, pivots: list) -> bool:
    """The minor of m on the (column, row) positions is nonsingular modulo
    _P, by a sparse forward elimination over Z/_P in the given pivot order.

    The minor is held as {column: value mod _P} rows, numbered in pivot
    order, with a column index (column -> ids of the rows holding it). Its
    rows are m's stored integer rows, each a multiple of the rational row
    by its denominator, which changes no rank when _P does not divide it.
    For column j the pivot is row j, the row the checked elimination took,
    while it holds the column, and otherwise the lowest remaining row that
    does; fill-in then stays inside the fill-in of that elimination. False
    when no remaining row holds a column, or when _P divides the
    denominator of a row inside the minor."""
    n = len(pivots)
    col_of = {c: j for j, (c, _) in enumerate(pivots)}
    row_of = {r: i for i, (_, r) in enumerate(pivots)}
    if len(col_of) != n or len(row_of) != n:
        return False
    rows: list = [{} for _ in range(n)]
    for r, i in row_of.items():
        if m._dens.get(r, 1) % _P == 0:
            return False
        for c, v in m._rows.get(r, {}).items():
            j = col_of.get(c)
            if j is not None and v % _P:
                rows[i][j] = v  # any representative mod _P serves
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
        if len(prow) == 1:
            # a pivot alone in its row only clears its column
            for i in col:
                del rows[i][j]
            continue
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


def _echelon(rows: list, last_first: bool = False):
    """Fraction-free forward elimination of sparse integer rows, the one
    elimination kernel.

    Goes through the columns in order, or from the last to the first when
    last_first is set, and yields (pivot_col, row_id, row) for each pivot:
    row_id is the pivot row's index in rows, and row the pivot row, free of
    every earlier pivot column, with its pivot value at row[pivot_col]. The
    pivot is the sparsest row holding the column, ties going to the lowest
    row id; a column index (column -> ids of the rows holding it) finds the
    rows without scanning. The index holds lists, not sets: columns are
    short, and a set costs several times the memory of a list. A row
    holding the column becomes a*row - b*prow, with the multipliers of
    _scale, and when a != 1 it is then divided by the gcd of its entries.
    Integer rows keep the zero patterns of the rational rows they stand
    for, so pivots and counts are those of rational elimination. Consumes
    rows, a list of {col: int} dicts: the rows holding a pivot column are
    reduced in place.

    Two shortcuts give the same pivots and rows. A row that starts as a
    singleton {c: v} holds no other column, so nothing changes it before
    column c is reached, and then it is the sparsest kind of holder: such
    rows stay out of the index, never change, and the lowest of them in
    column c competes for the pivot there; the others in column c would
    only become empty. And when the pivot row is a singleton, a*row - b*prow
    divided by its content is the row without column c, divided by its
    content exactly when a != 1, that is when pv does not divide row[c].
    """
    col_rows = defaultdict(list)
    single: dict = {}  # column -> lowest id of a row that starts as {column: v}
    for rid, row in enumerate(rows):
        if len(row) == 1:
            (c,) = row
            single.setdefault(c, rid)
        else:
            for c in row:
                col_rows[c].append(rid)
    top = max(max(col_rows, default=-1), max(single, default=-1))
    for c in range(top, -1, -1) if last_first else range(top + 1):
        holders = col_rows.pop(c, ())
        s = single.get(c)
        if s is not None:
            p, n = s, 1
        elif holders:
            p = holders[0]
            n = len(rows[p])
        else:
            continue
        for rid in holders:
            k = len(rows[rid])
            if k < n or k == n and rid < p:
                p, n = rid, k
        prow = rows[p]
        pv = prow[c]
        if p != s:
            holders.remove(p)
            for k in prow:
                if k != c:
                    col_rows[k].remove(p)
        if n == 1:
            for rid in holders:
                row = rows[rid]
                f = row.pop(c)
                if not row:
                    rows[rid] = None
                elif f % pv:
                    _divide_content(row)
            yield c, p, prow
            continue
        tail = [(k, v) for k, v in prow.items() if k != c]
        for rid in holders:
            row = rows[rid]
            f = row.pop(c)
            # the multipliers of _scale
            g = gcd(pv, f)
            if pv < 0:
                g = -g
            a, b = pv // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in tail:
                nv = row.get(k, 0) - b * v
                if nv:
                    if k not in row:
                        col_rows[k].append(rid)
                    row[k] = nv
                else:
                    del row[k]
                    col_rows[k].remove(rid)
            if not row:
                rows[rid] = None  # an emptied dict keeps its table
            elif a != 1:
                _divide_content(row)
        yield c, p, prow


def _back_substitute(finished: list) -> None:
    """Clear every pivot column from the other rows of the (pivot_col,
    row_id, row) triples of _echelon, in place and fraction-free, last
    pivot first: the rows already reduced are free of every other pivot
    column, so combining with them adds no pivot column."""
    reduced: dict = {}
    for c, _, row in reversed(finished):
        for p in [k for k in row if k in reduced]:
            prow = reduced[p]
            a, b = _scale(row, prow[p], row[p])
            _subtract(row, b, prow)
            if a != 1:
                _divide_content(row)
        reduced[c] = row


def _rref(rows: list) -> list:
    """Reduced row echelon form of sparse integer rows, as the (pivot_col,
    row_id, row) triples of _echelon after _back_substitute; only then is
    each row divided by its pivot value, so the rows come out as {col:
    Fraction} dicts with an exact 1 on the pivot. RREF is unique, so the
    output is canonical. Consumes rows."""
    finished = list(_echelon(rows))
    _back_substitute(finished)
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


def check_coordinates(vec: dict, n: int) -> None:
    """Refuse a sparse {coordinate: value} vector with a coordinate outside
    [0, n)."""
    for k in vec:
        if not 0 <= k < n:
            raise ValueError(f"coordinate {k} outside [0, {n})")


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
    """The blocks, each with cols columns, one above the other; the result
    shares their stored rows."""
    rows, dens = {}, {}
    offset = 0
    for b in blocks:
        for r, row, den in b.integer_rows():
            rows[offset + r] = row
            if den != 1:
                dens[offset + r] = den
        offset += b.rows
    return SparseMatrix.from_integer_rows(offset, cols, rows, dens)


def column_slice(m: SparseMatrix, cols: Sequence[int]) -> SparseMatrix:
    """The columns cols of m, in that order, as columns 0, 1, ...

    >>> sorted(column_slice(SparseMatrix.from_rows([[1, 2, 3]]), [2, 0]).entries.items())
    [((0, 0), Fraction(3, 1)), ((0, 1), Fraction(1, 1))]
    """
    place = {c: i for i, c in enumerate(cols)}
    rows, dens = {}, {}
    for r, row, den in m.integer_rows():
        kept = {place[c]: v for c, v in row.items() if c in place}
        if kept:
            rows[r] = kept
            if den != 1:
                dens[r] = den
    return SparseMatrix.from_integer_rows(m.rows, len(place), rows, dens)


class Subspace:
    """A linear subspace of Q^n stored via its unique RREF basis.

    rows holds the basis as sparse {coordinate: value} dicts and pivots
    their leading coordinates, so two subspaces are equal as spans iff
    their rows are equal.

    >>> u = Subspace.from_vectors(2, [(2, 0), (1, 0)])
    >>> u.dim, u.rows
    (1, ({0: Fraction(1, 1)},))
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
                check_coordinates(vec, ambient_dim)
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
                _clear_denominators(row)
                rows.append(row)
        finished = _rref(rows)
        return cls(ambient_dim, tuple(row for _, _, row in finished),
                   tuple(c for c, _, _ in finished))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

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

    def contains(self, w: dict) -> bool:
        """Membership test for a sparse {coordinate: value} vector: it
        reduces to zero against the basis.

        >>> Subspace.from_vectors(2, [(1, 0)]).contains({0: 2})
        True
        >>> Subspace.from_vectors(2, [(1, 0)]).contains({1: 1})
        False
        """
        check_coordinates(w, self.ambient_dim)
        return not self.reduce({i: x for i, x in w.items() if x})

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


def kernel_basis(m: SparseMatrix) -> Subspace:
    """Basis of the right null space {v : m v = 0}, read off m's stored
    echelon: the vectors of _kernel, each divided by its value at its free
    column, are the RREF basis.

    rank(m) + dim kernel = cols(m).

    >>> kernel_basis(SparseMatrix.from_rows([[1, 2]])).rows
    ({0: Fraction(1, 1), 1: Fraction(-1, 2)},)
    """
    _, kernel = _kernel(m)
    rows = tuple({k: Fraction(v, vec[f]) for k, v in vec.items()}
                 for f, vec in kernel.items())
    return Subspace(m.cols, rows, tuple(kernel))


def column_space(m: SparseMatrix) -> Subspace:
    """Span of the columns of m, as a subspace of Q^rows. Row operations
    keep the linear relations among columns, so the pivot columns of m's
    stored echelon are a basis of the span, and only they are passed, each
    as the integer row of the transpose, a positive multiple."""
    columns = m.transpose()._rows
    return Subspace.from_vectors(m.rows, [columns[c] for c in
                                          sorted(c for c, _, _ in _stored_echelon(m))])


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces.

    Solved through the kernel of the matrix whose columns are the two
    bases side by side: a kernel vector (a | b) encodes a point
    sum(a_i u_i) = -sum(b_j v_j) of the intersection.

    >>> u = Subspace.from_vectors(2, [(1, 0), (0, 1)])
    >>> intersect(u, Subspace.from_vectors(2, [(1, 1)])).rows
    ({0: Fraction(1, 1), 1: Fraction(1, 1)},)
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
