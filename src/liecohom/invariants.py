"""Invariant cochains under a distinguished subalgebra.

Given g = s (+) r with r an ideal, an element v of s transforms a
cochain on r by

  (v . w)(e_1,...,e_n) = v . w(e_1,...,e_n) - sum_i w(e_1,...,[v,e_i],...,e_n)

and the invariant cohomology here is (Z^n cap Inv) / (B^n cap Inv),
where Inv is the common kernel of these transforms over a basis of s.
The cohomology of the invariant subcomplex (Inv, d restricted) is
available separately as a consistency check; the two agree when s acts
completely reducibly.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact_linalg import (
    SparseMatrix,
    Subspace,
    intersect,
    kernel_basis,
    kernel_within,
    stacked,
)
from .lie_core import LieAlgebra, subalgebra_on_indices
from .representations import Representation, restrict_to_indices
from .cochain import (
    CochainSpace,
    CohomologyResult,
    _coboundary_space,
    _extend_echelon,
    _keep_block,
    cochain_dim,
    differential,
)


class InvariantSetup:
    """A split g = s (+) r with a g-module, ready for invariant computations.

    levi and radical are disjoint tuples of basis indices covering g;
    the levi part must be a subalgebra and the radical part an ideal.
    """

    __slots__ = ("ambient", "levi", "radical", "module", "levi_algebra",
                 "radical_algebra", "radical_module", "_cache")

    def __init__(self, ambient: LieAlgebra, levi: Sequence[int],
                 radical: Sequence[int], module: Representation):
        if module.algebra is not ambient and module.algebra != ambient:
            raise ValueError("module is not a representation of the ambient algebra")
        levi = tuple(sorted(set(int(i) for i in levi)))
        radical = tuple(sorted(set(int(i) for i in radical)))
        if set(levi) & set(radical):
            raise ValueError("levi and radical indices overlap")
        if set(levi) | set(radical) != set(range(ambient.dim)):
            raise ValueError("levi and radical must cover the basis")
        radical_set = set(radical)
        for p in radical:
            for i in range(ambient.dim):
                for k in ambient.bracket_basis(i, p):
                    if k not in radical_set:
                        raise ValueError(
                            f"radical is not an ideal: [{ambient.labels[i]}, "
                            f"{ambient.labels[p]}] leaves it"
                        )
        self.ambient = ambient
        self.levi = levi
        self.radical = radical
        self.module = module
        self.levi_algebra = subalgebra_on_indices(ambient, levi)
        self.radical_algebra = subalgebra_on_indices(ambient, radical)
        self.radical_module = restrict_to_indices(module, radical)
        self._cache: dict = {}

    def cochain_space(self, n: int) -> CochainSpace:
        return CochainSpace(self.radical_algebra, self.radical_module, n)


def cochain_action(setup: InvariantSetup, v: Sequence, n: int) -> SparseMatrix:
    """Matrix of w -> v . w on C^n(r, M) for v given in ambient coordinates.

    v must be supported on the levi indices. As in cochain.differential,
    the rows are assembled as integers over one denominator D, the lcm of
    the denominators of the moved brackets and of the action of v.
    """
    g = setup.ambient
    if len(v) != g.dim:
        raise ValueError("element coordinates must have ambient length")
    v = [Fraction(x) for x in v]
    levi_set = set(setup.levi)
    for i, x in enumerate(v):
        if x and i not in levi_set:
            raise ValueError("element is not in the levi subalgebra")
    space = setup.cochain_space(n)
    md = setup.module.module_dim
    rad = setup.radical
    rad_pos = {p: a for a, p in enumerate(rad)}
    # moved[a]: [v, e_a] over the radical basis, nonzero components only
    moved = []
    for b in rad:
        comps: dict = {}
        for li, x in enumerate(v):
            if x:
                for k, c in g.bracket_basis(li, b).items():
                    kr = rad_pos[k]
                    comps[kr] = comps.get(kr, Fraction(0)) + x * c
        moved.append([(kr, c) for kr, c in comps.items() if c])
    rho = list(setup.module.action(v).integer_rows())
    D = lcm(*[c.denominator for terms in moved for _, c in terms],
            *[den for _, _, den in rho])
    rho_v = [(mr, mc, x * (D // den)) for mr, row, den in rho for mc, x in row.items()]
    # moved[a] as (k, -c, c) times D: the entry of a slot in even and in odd
    # position
    moved = [[(kr, -c.numerator * (D // c.denominator), c.numerator * (D // c.denominator))
              for kr, c in terms] for terms in moved]
    tuples = space.tuples
    index = {t: a for a, t in enumerate(tuples)}
    col_ids = list(range(space.dim))  # shared int objects, as in differential
    rows: dict = {}
    for tpos, T in enumerate(tuples):
        ro = tpos * md
        block = [{} for _ in range(md)]
        # the first entries of each row: no key repeats
        for mr, mc, x in rho_v:
            block[mr][col_ids[ro + mc]] = x
        cancelled = False
        for i, a in enumerate(T):
            rest = T[:i] + T[i + 1:]
            for kr, even, odd in moved[a]:
                if kr in rest:
                    continue
                pos = sum(1 for t in rest if t < kr)
                x = odd if (i + pos) % 2 else even
                co = index[tuple(sorted(rest + (kr,)))] * md
                for m, row in enumerate(block):
                    key = col_ids[co + m]
                    y = row.get(key)
                    if y is None:
                        row[key] = x
                    else:
                        row[key] = y = y + x
                        if not y:
                            cancelled = True
        _keep_block(rows, ro, enumerate(block), cancelled)
    return SparseMatrix.from_integer_rows(space.dim, space.dim, rows,
                                          dict.fromkeys(rows, D) if D != 1 else None)


def generator_actions(setup: InvariantSetup, n: int) -> list:
    """Action matrices of the levi basis generators on C^n(r, M)."""
    key = ("acts", n)
    if key not in setup._cache:
        g = setup.ambient
        mats = []
        for li in setup.levi:
            v = [Fraction(int(t == li)) for t in range(g.dim)]
            mats.append(cochain_action(setup, v, n))
        setup._cache[key] = mats
    return setup._cache[key]


def invariant_subspace(setup: InvariantSetup, n: int) -> Subspace:
    """Common kernel of the levi generator actions on C^n(r, M)."""
    key = ("inv", n)
    if key not in setup._cache:
        space_dim = cochain_dim(setup.radical_algebra, setup.radical_module, n)
        setup._cache[key] = kernel_basis(stacked(generator_actions(setup, n), space_dim))
    return setup._cache[key]


def invariant_cohomology(setup: InvariantSetup, n: int) -> CohomologyResult:
    """(Z^n cap Inv) / (B^n cap Inv) with representatives, which are
    computed when .representatives is first read. Kept per setup and
    degree.

    dim_cochain reports the full C^n(r, M) dimension; dim_cocycles and
    dim_coboundaries are the invariant intersections. Z^n cap Inv is the
    kernel of d_n restricted to the Inv basis, so the full Z^n is never
    formed.
    """
    key = ("H", n)
    if key in setup._cache:
        return setup._cache[key]
    r, M = setup.radical_algebra, setup.radical_module
    inv = invariant_subspace(setup, n)
    z_inv = kernel_within(differential(r, M, n), inv)
    b_inv = intersect(_coboundary_space(r, M, n), inv)
    dim_h = z_inv.dim - b_inv.dim
    setup._cache[key] = CohomologyResult(
        degree=n,
        dim_cochain=cochain_dim(r, M, n),
        dim_cocycles=z_inv.dim,
        dim_coboundaries=b_inv.dim,
        dim_cohomology=dim_h,
        compute_representatives=lambda: _extend_echelon(b_inv, z_inv, dim_h),
    )
    return setup._cache[key]


def invariant_subcomplex_cohomology(setup: InvariantSetup, n: int) -> dict:
    """Dimensions of H^n of the subcomplex (Inv^*, d restricted).

    Returns dim Inv^n, the rank of d_n on it, the rank of d_{n-1} on
    Inv^{n-1}, and the resulting cohomology dimension. Used to check
    that quotients of invariants agree with invariants of the quotient.
    """
    r, M = setup.radical_algebra, setup.radical_module
    inv_n = invariant_subspace(setup, n)
    rank_dn = (differential(r, M, n) @ inv_n.matrix().transpose()).rank()
    if n == 0:
        rank_prev = 0
    else:
        prev = invariant_subspace(setup, n - 1)
        rank_prev = (differential(r, M, n - 1) @ prev.matrix().transpose()).rank()
    dim_ker = inv_n.dim - rank_dn
    return {
        "dim_invariants": inv_n.dim,
        "dim_kernel": dim_ker,
        "dim_image": rank_prev,
        "dim_cohomology": dim_ker - rank_prev,
    }
