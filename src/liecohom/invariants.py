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

    v must be supported on the levi indices.
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
    rho_v = setup.module.action(v)
    ent: dict = {}
    tuples = space.tuples
    index = {t: a for a, t in enumerate(tuples)}
    for tpos, T in enumerate(tuples):
        ro = tpos * md
        for (mr, mc), val in rho_v.entries.items():
            key = (ro + mr, tpos * md + mc)
            ent[key] = ent.get(key, 0) + val
        for i, a in enumerate(T):
            # [v, e_i] expanded over the radical basis
            moved: dict = {}
            for li, x in enumerate(v):
                if not x:
                    continue
                for k, c in g.bracket_basis(li, rad[a]).items():
                    kr = rad_pos[k]
                    moved[kr] = moved.get(kr, Fraction(0)) + x * c
            rest = T[:i] + T[i + 1:]
            for kr, c in moved.items():
                if not c or kr in rest:
                    continue
                p = sum(1 for t in rest if t < kr)
                TT = tuple(sorted(rest + (kr,)))
                sign = 1 if (i + p) % 2 == 0 else -1
                co = index[TT] * md
                for m in range(md):
                    key = (ro + m, co + m)
                    ent[key] = ent.get(key, 0) - sign * c
    return SparseMatrix(space.dim, space.dim, ent)


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
    computed when .representatives is first read.

    dim_cochain reports the full C^n(r, M) dimension; dim_cocycles and
    dim_coboundaries are the invariant intersections. Z^n cap Inv is the
    kernel of d_n restricted to the Inv basis, so the full Z^n is never
    formed.
    """
    r, M = setup.radical_algebra, setup.radical_module
    inv = invariant_subspace(setup, n)
    z_inv = kernel_within(differential(r, M, n), inv)
    b_inv = intersect(_coboundary_space(r, M, n), inv)
    dim_h = z_inv.dim - b_inv.dim
    return CohomologyResult(
        degree=n,
        dim_cochain=cochain_dim(r, M, n),
        dim_cocycles=z_inv.dim,
        dim_coboundaries=b_inv.dim,
        dim_cohomology=dim_h,
        compute_representatives=lambda: _extend_echelon(b_inv, z_inv, dim_h),
    )


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
