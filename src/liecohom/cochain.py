"""Cochain spaces and the Chevalley-Eilenberg differential.

C^n(r, M) is Hom of the n-th exterior power of r into M. A cochain is a
coordinate vector against the basis indexed by pairs (I, m): I a
strictly increasing n-tuple of r-basis indices in lexicographic order,
m a module coordinate; the flat index is tuple_index * module_dim + m.

The differential is

  (d phi)(e_0,...,e_n) = sum_i (-1)^i e_i . phi(..., omit i, ...)
      + sum_{i<j} (-1)^{i+j} phi([e_i, e_j], ..., omit i and j, ...)

with both sums over 0..n. Cocycles are ker d_n, coboundaries im d_{n-1},
cohomology the quotient.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from typing import Callable, Sequence

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
                vec[self.index_of(tuple(as_index(i) for i in I), as_index(m))] += rat(c)
        except TypeError as exc:
            raise ValueError(f"malformed cochain data: {exc}") from exc
        return tuple(vec)


@dataclass(frozen=True)
class CohomologyResult:
    """Dimensions of one cohomology group. representatives is computed by
    compute_representatives when first read, so a caller that wants only
    dimensions does no kernel or echelon work for it."""

    degree: int
    dim_cochain: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    compute_representatives: Callable = field(repr=False, compare=False)

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
    """Matrix of d_n : C^n(r, M) -> C^{n+1}(r, M). Cached per module.

    Assembly stores the action and structure-constant Fractions as they
    are, without re-coercing them: only an entry hit twice is added.
    """
    _check_pair(r, M)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cached = M._dcache.get(n)
    if cached is not None:
        return cached
    md = M.module_dim
    tuples_out = list(combinations(range(r.dim), n + 1))
    idx_in = {t: a for a, t in enumerate(combinations(range(r.dim), n))}
    rows = comb(r.dim, n + 1) * md
    cols = comb(r.dim, n) * md
    # acts[parity][g]: the entries of e_g's action, with sign (-1)^parity
    acts = [[[(mr, mc, v) for (mr, mc), v in a.entries.items()] for a in M.actions],
            [[(mr, mc, -v) for (mr, mc), v in a.entries.items()] for a in M.actions]]
    structure = r.structure
    ent: dict = {}
    get = ent.get
    for out_pos, J in enumerate(tuples_out):
        ro = out_pos * md
        # the first entries of row block ro, one column block per i: no
        # key repeats
        for i in range(n + 1):
            co = idx_in[J[:i] + J[i + 1:]] * md
            for mr, mc, x in acts[i % 2][J[i]]:
                ent[(ro + mr, co + mc)] = x
        for i in range(n + 1):
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
                    for m in range(md):
                        key = (ro + m, co + m)
                        y = get(key)
                        ent[key] = s if y is None else y + s
    out = SparseMatrix(rows, cols, ent)
    M._dcache[n] = out
    return out


def _cocycle_space(r: LieAlgebra, M: Representation, n: int) -> Subspace:
    key = ("Z", n)
    if key not in M._dcache:
        M._dcache[key] = kernel_basis(differential(r, M, n))
    return M._dcache[key]


def _coboundary_space(r: LieAlgebra, M: Representation, n: int) -> Subspace:
    """Image of d_{n-1} inside C^n; the zero space when n = 0."""
    key = ("B", n)
    if key not in M._dcache:
        if n == 0:
            M._dcache[key] = Subspace.zero(cochain_dim(r, M, 0))
        else:
            M._dcache[key] = column_space(differential(r, M, n - 1))
    return M._dcache[key]


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


def cohomology(r: LieAlgebra, M: Representation, n: int) -> CohomologyResult:
    """Dimensions of Z^n, B^n, H^n plus representative cocycles, which
    are computed when .representatives is first read.

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
    dn = differential(r, M, n)
    dim_z = dim_c - dn.rank()
    dim_b = 0 if n == 0 else differential(r, M, n - 1).rank()
    dim_h = dim_z - dim_b

    def representatives():
        # the kernel first: its elimination sets the peak memory, which is
        # lower while the coboundary space is not yet held
        zspace = _cocycle_space(r, M, n)
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
