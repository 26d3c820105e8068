"""Cochain spaces and the Chevalley-Eilenberg differential.

C^n(r, M) is Hom of the n-th exterior power of r into M. A cochain is a
coordinate vector against the basis indexed by pairs (I, m): I a
strictly increasing n-tuple of r-basis indices in lexicographic order,
m a module coordinate; the flat index is tuple_index * module_dim + m.

The differential is

  (d phi)(e_0,...,e_n) = sum_i (-1)^i e_i . phi(..., omit i, ...)
      + sum_{i<j} (-1)^{i+j} phi([e_i, e_j], ..., omit i and j, ...)

with both sums over 0..n. Cocycles are ker d_n, coboundaries im d_{n-1},
cohomology the quotient. M must be an r-module: d squares to zero, and the
reduction below holds, only when the actions respect the bracket.

Weight-zero reduction. When some basis element x acts diagonally on r and
on M, [x, e_j] = lam_j e_j and x . v_m = mu_m v_m, with a weight not zero
(h in every basis of sl2, sch_n and their quotients), x acts on the
cochain (J, m) by mu_m - sum_{j in J} lam_j, and d preserves this weight.
By Cartan's formula L_x = d i_x + i_x d, i_x / w contracts the subcomplex
of each weight w != 0, so only the weight-zero cochains carry cohomology
(Hochschild and Serre, Ann. Math. 57, 1953). cohomology therefore takes
the rank of d_n from its weight-zero rows, plus the rank of the acyclic
rest counted from the weight multiplicities, unless the module already
holds d_n.
"""

import json
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations, islice
from math import comb, lcm

from .exact_linalg import (
    SparseMatrix,
    Subspace,
    column_space,
    kernel_basis,
    rat,
    rat_str,
    to_dense,
)
from .lie_core import LieAlgebra, as_index
from .representations import Representation


def _check_pair(r: LieAlgebra, M: Representation):
    if M.algebra is not r and M.algebra != r:
        raise ValueError("module is not a representation of the given algebra")


def cochain_dim(r: LieAlgebra, M: Representation, n: int) -> int:
    """binomial(dim r, n) * module_dim; zero when n exceeds dim r."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _check_pair(r, M)
    return comb(r.dim, n) * M.module_dim


class CochainSpace:
    """Basis bookkeeping for C^n(r, M)."""

    __slots__ = ("algebra", "module", "degree", "_tuples", "_index")

    def __init__(self, r: LieAlgebra, M: Representation, n: int):
        if n < 0:
            raise ValueError("degree must be nonnegative")
        _check_pair(r, M)
        self.algebra = r
        self.module = M
        self.degree = n
        self._tuples = None
        self._index = None

    @property
    def tuples(self) -> list:
        if self._tuples is None:
            self._tuples = list(combinations(range(self.algebra.dim), self.degree))
        return self._tuples

    @property
    def dim(self) -> int:
        return len(self.tuples) * self.module.module_dim

    def index_of(self, I: Sequence[int], m: int) -> int:
        if self._index is None:
            self._index = {t: a for a, t in enumerate(self.tuples)}
        I = tuple(I)
        if I not in self._index:
            raise ValueError(f"{I} is not a strictly increasing basis tuple")
        if not 0 <= m < self.module.module_dim:
            raise ValueError("module coordinate out of range")
        return self._index[I] * self.module.module_dim + m

    def vector_of(self, assignments: dict) -> tuple:
        """Cochain from {(I, m): coefficient}; unlisted coordinates are zero."""
        vec = [Fraction(0)] * self.dim
        for (I, m), c in assignments.items():
            vec[self.index_of(I, m)] = Fraction(c)
        return tuple(vec)

    def serialize(self, vec: Sequence) -> str:
        """Sparse text form: [[ [i_1,...,i_n], m, "p/q" ], ...]."""
        if len(vec) != self.dim:
            raise ValueError("cochain vector has the wrong length")
        md = self.module.module_dim
        items = []
        for flat, x in enumerate(vec):
            if x:
                I = self.tuples[flat // md]
                items.append([list(I), flat % md, rat_str(x)])
        return json.dumps(items)

    def parse(self, text: str) -> tuple:
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
        vec = [Fraction(0)] * self.dim
        try:
            for I, m, c in data:
                if not isinstance(I, list):
                    raise ValueError(f"index tuple {I!r} is not a list of indices")
                vec[self.index_of(tuple(as_index(i) for i in I), as_index(m))] += rat(c)
        except TypeError as exc:
            raise ValueError(f"malformed cochain data: {exc}") from exc
        return tuple(vec)


class CohomologyResult:
    """Dimensions of one cohomology group. representatives is computed by
    compute_representatives when first read, so a caller that wants only
    dimensions does no kernel or echelon work for it. Results compare by
    their dimensions."""

    def __init__(self, degree: int, dim_cochain: int, dim_cocycles: int,
                 dim_coboundaries: int, dim_cohomology: int,
                 compute_representatives: Callable):
        self.degree = degree
        self.dim_cochain = dim_cochain
        self.dim_cocycles = dim_cocycles
        self.dim_coboundaries = dim_coboundaries
        self.dim_cohomology = dim_cohomology
        self.compute_representatives = compute_representatives

    def __eq__(self, other) -> bool:
        return type(other) is CohomologyResult and self.as_dict() == other.as_dict()

    @cached_property
    def representatives(self) -> tuple:
        reps = self.compute_representatives() if self.dim_cohomology > 0 else ()
        if len(reps) != self.dim_cohomology:
            raise AssertionError("representative extension lost rank")
        return reps

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim_cochain": self.dim_cochain,
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_cohomology": self.dim_cohomology,
        }


def differential(r: LieAlgebra, M: Representation, n: int) -> SparseMatrix:
    """Matrix of d_n : C^n(r, M) -> C^{n+1}(r, M). Cached per module."""
    _check_pair(r, M)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cached = M._dcache.get(n)
    if cached is None:
        cached = M._dcache[n] = _assemble(r, M, n)
    return cached


def _assemble(r: LieAlgebra, M: Representation, n: int, grading=None,
              contract=False) -> SparseMatrix:
    """d_n, or with a grading (lam, mu) from _grading only its rows (J, m)
    of weight zero, mu[m] = sum of lam[j] over j in J, in d_n's shape.

    With contract, i_0 d_n, square on the cochains of span(e_1, ...): the
    rows (0,) + T of d_n on the columns without 0. When that span is an
    ideal, only e_0's action and brackets reach them, and this is e_0's
    action L_0 w = i_0 d w (Cartan's formula, as i_0 w = 0).

    Assembled as integer rows over one denominator D, the lcm of the
    denominators of the structure constants and of the action rows: every
    term is an int, and only an entry hit twice is added.
    """
    if n > r.dim:  # C^n = C^{n+1} = 0
        return SparseMatrix.zero(0, 0)
    md = M.module_dim
    idx_in = {t: a for a, t in enumerate(combinations(range(int(contract), r.dim), n))}
    # the positions i of J whose terms are assembled
    heads = range(1 if contract else n + 1)
    actions = [list(a.integer_rows()) for a in M.actions]
    D = lcm(*[c.denominator for comps in r.structure.values() for c in comps.values()],
            *[den for rows in actions for _, _, den in rows])
    # acts[g] and acts[r.dim + g]: the entries of e_g's action times D, with
    # sign + and -
    acts = [[(mr, mc, v * (D // den)) for mr, row, den in rows for mc, v in row.items()]
            for rows in actions]
    acts += [[(mr, mc, -v) for mr, mc, v in terms] for terms in acts]
    structure = {key: {k: c.numerator * (D // c.denominator) for k, c in comps.items()}
                 for key, comps in r.structure.items()}
    cols = len(idx_in) * md
    # every column index as one shared int object: an index computed anew
    # for each entry would cost an int object per entry
    col_ids = list(range(cols))
    rows: dict = {}
    for out_pos, J, ms, kept_acts in _graded_rows(grading, r.dim, md, n + 1, acts,
                                                  contract):
        block = [{} for _ in ms]
        # the first entries of each row: one column block per i, no key
        # repeats
        for i in heads:
            co = idx_in[J[:i] + J[i + 1:]] * md
            for p, mc, x in kept_acts[J[i] + i % 2 * r.dim]:
                block[p][col_ids[co + mc]] = x
        cancelled = False
        for i in heads:
            for j in range(i + 1, n + 1):
                comps = structure.get((J[i], J[j]))
                if comps is None:
                    continue
                rest = J[:i] + J[i + 1:j] + J[j + 1:]
                for k, c in comps.items():
                    if k in rest:
                        continue
                    pos = sum(1 for t in rest if t < k)
                    s = c if (i + j + pos) % 2 == 0 else -c
                    co = idx_in[tuple(sorted(rest + (k,)))] * md
                    for m, row in zip(ms, block):
                        key = col_ids[co + m]
                        y = row.get(key)
                        if y is None:
                            row[key] = s
                        else:
                            row[key] = y = y + s
                            if not y:
                                cancelled = True
        for m, row in zip(ms, block):
            if cancelled and 0 in row.values():
                row = {k: v for k, v in row.items() if v}
            if row:
                rows[out_pos * md + m] = row
    return SparseMatrix.from_integer_rows(
        cols if contract else comb(r.dim, n + 1) * md, cols, rows,
        dict.fromkeys(rows, D) if D != 1 else None)


def _graded_rows(grading, dim: int, md: int, k: int, acts: list, contract=False):
    """(position, J, ms, kept) for each k-tuple J of range(dim), in order,
    or with contract only those J starting with 0, which come first,
    with rows (J, m) of weight zero under a grading (lam, mu), all rows
    without one: ms lists those m, and kept is acts, lists of (mr, mc, x)
    terms, with each mr in ms replaced by its position there."""
    if k > dim:  # no k-tuple
        return
    lam, mu = grading or ([0] * dim, [0] * md)
    kept: dict = {}
    for m, w in enumerate(mu):
        kept.setdefault(w, []).append(m)
    for w, ms in kept.items():
        place = {m: p for p, m in enumerate(ms)}
        kept[w] = ms, [[(place[mr], mc, x) for mr, mc, x in terms if mr in place]
                       for terms in acts]
    tuples = islice(combinations(range(dim), k), comb(dim - 1, k - 1) if contract else None)
    weights = map(sum, combinations(lam, k))
    for pos, (J, w) in enumerate(zip(tuples, weights)):
        if w in kept:
            yield pos, J, *kept[w]


def _grading(r: LieAlgebra, M: Representation):
    """(lam, mu) of _grading_element over every basis element of r, or
    None."""
    found = _grading_element(r, M, range(r.dim))
    return found and found[1:]


def _grading_element(r: LieAlgebra, M: Representation, among):
    """(x, lam, mu) for the first basis element x in among whose ad matrix
    and action on M are both diagonal, [x, e_j] = lam[j] e_j and
    x . v_m = mu[m] v_m, with some weight nonzero; None when there is no
    such element. The weights are scaled by one positive factor to ints."""
    # ad[x]: the nonzero weights {j: lam_j} of ad x, None once it is not
    # diagonal
    ad = [{} for _ in range(r.dim)]
    for (i, j), comps in r.structure.items():
        for x, y in ((i, j), (j, i)):
            if ad[x] is not None and comps.keys() == {y}:
                ad[x][y] = comps[y] if x == i else -comps[y]
            else:
                ad[x] = None
    for x in among:
        weights = ad[x]
        mu = None if weights is None else _diagonal(M.actions[x])
        if mu is not None and (weights or any(mu)):
            lam = [weights.get(j, Fraction(0)) for j in range(r.dim)]
            D = lcm(*[w.denominator for w in lam + mu])
            return (x, [w.numerator * (D // w.denominator) for w in lam],
                    [w.numerator * (D // w.denominator) for w in mu])
    return None


def _diagonal(a: SparseMatrix):
    """The diagonal of a square matrix, or None when it has an entry off it."""
    diag = [Fraction(0)] * a.rows
    for i, row, den in a.integer_rows():
        if row.keys() != {i}:
            return None
        diag[i] = Fraction(row[i], den)
    return diag


def _cochain_counts(k: int, grading, v: int = 0) -> list:
    """The number of i-cochains (J, m) of weight v, mu[m] - sum of lam[j]
    over j in J = v, for i = 0, ..., k."""
    lam, mu = grading
    # subsets[i][w]: the number of i-tuples J with weight sum w
    subsets = [{0: 1}] + [{} for _ in range(k)]
    for w in lam:
        for i in range(k, 0, -1):
            counts = subsets[i]
            for s, count in subsets[i - 1].items():
                counts[s + w] = counts.get(s + w, 0) + count
    return [sum(subsets[i].get(m - v, 0) for m in mu) for i in range(k + 1)]


def _acyclic_rank(k: int, grading) -> int:
    """Rank of d_k on the cochains of nonzero weight, mu[m] - sum of
    lam[j] over j in J. They form an exact complex (see the module
    docstring), so this is the sum over i <= k of (-1)^(k-i) times the
    number of i-cochains of nonzero weight."""
    lam, mu = grading
    if k > len(lam):
        return 0
    rank = 0
    for i, zero in enumerate(_cochain_counts(k, grading)):
        rank = comb(len(lam), i) * len(mu) - zero - rank
    return rank


def _coboundary_space(r: LieAlgebra, M: Representation, n: int) -> Subspace:
    """Image of d_{n-1} inside C^n; the zero space when n = 0."""
    if n == 0:
        return Subspace.zero(cochain_dim(r, M, 0))
    return column_space(differential(r, M, n - 1))


def _extend_echelon(base: Subspace, candidates: Subspace, want: int) -> tuple:
    """Reduce candidate vectors against an echelon set seeded from base;
    the survivors, normalized at their leading coordinate, are the
    representatives.

    Each candidate is reduced in coordinate order, only until its first
    nonzero coordinate that is not yet a pivot; that coordinate becomes the
    pivot of the survivor, which joins the echelon set as it stands.
    """
    echelon = dict(zip(base.pivots, base.rows))
    reps = []
    for cand in candidates.rows:
        vec = dict(cand)
        heap = sorted(vec)
        while heap:
            c = heappop(heap)
            x = vec.get(c)
            if not x:
                continue
            row = echelon.get(c)
            if row is None:
                break
            for t, y in row.items():
                nv = vec.get(t, 0) - x * y
                if nv:
                    if t not in vec:
                        heappush(heap, t)
                    vec[t] = nv
                else:
                    del vec[t]
        else:
            continue
        lead = vec[c]
        vec = {t: x / lead for t, x in vec.items()}
        echelon[c] = vec
        reps.append(to_dense(vec, base.ambient_dim))
        if len(reps) == want:
            break
    return tuple(reps)


def _rank(r: LieAlgebra, M: Representation, k: int) -> int:
    """Rank of d_k: read from d_k when M holds it, else with a grading the
    rank of its weight-zero block plus the exact count of _acyclic_rank,
    kept on M under ("rank", k)."""
    dk = M._dcache.get(k)
    if dk is not None:
        return dk.rank()
    key = ("rank", k)
    if key not in M._dcache:
        grading = _grading(r, M)
        if grading is None:
            return differential(r, M, k).rank()
        M._dcache[key] = _assemble(r, M, k, grading).rank() + _acyclic_rank(k, grading)
    return M._dcache[key]


def cohomology(r: LieAlgebra, M: Representation, n: int) -> CohomologyResult:
    """Dimensions of Z^n, B^n, H^n plus representative cocycles, which
    are computed when .representatives is first read. M must be an
    r-module.

    Each rank, of d_n and d_{n-1}, is read from the matrix when M holds it
    already; otherwise, when r has a grading element, it comes from the
    weight-zero block (see the module docstring) and d_n itself is not
    built, so a caller that wants representatives builds d_n and d_{n-1}
    first.

    Representatives extend an echelon basis of the coboundaries by
    reduced kernel vectors taken in lexicographic coordinate order; they
    are empty exactly when the cohomology vanishes.

    >>> from liecohom import catalog
    >>> from liecohom.representations import adjoint_rep
    >>> g = catalog.resolve("schrodinger:2")
    >>> res = cohomology(g, adjoint_rep(g), 2)
    >>> res.dim_cohomology
    1
    >>> len(res.representatives)
    1
    """
    dim_c = cochain_dim(r, M, n)
    dim_z = dim_c - _rank(r, M, n)
    dim_b = 0 if n == 0 else _rank(r, M, n - 1)
    dim_h = dim_z - dim_b

    def representatives():
        # the kernel first: its elimination sets the peak memory, which is
        # lower while the coboundary space is not yet held
        zspace = kernel_basis(differential(r, M, n))
        return _extend_echelon(_coboundary_space(r, M, n), zspace, dim_h)

    return CohomologyResult(
        degree=n,
        dim_cochain=dim_c,
        dim_cocycles=dim_z,
        dim_coboundaries=dim_b,
        dim_cohomology=dim_h,
        compute_representatives=representatives,
    )


def is_cocycle(r: LieAlgebra, M: Representation, n: int, phi: Sequence) -> bool:
    dn = differential(r, M, n)
    if len(phi) != dn.cols:
        raise ValueError("cochain vector has the wrong length")
    return not any(dn.apply(phi))


def is_coboundary(r: LieAlgebra, M: Representation, n: int, phi: Sequence) -> bool:
    if len(phi) != cochain_dim(r, M, n):
        raise ValueError("cochain vector has the wrong length")
    return _coboundary_space(r, M, n).contains(phi)
