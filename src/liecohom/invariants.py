"""Invariant cochains under a distinguished subalgebra.

Given g = s (+) r with r an ideal, an element v of s transforms a
cochain on r by

  (v . w)(e_1,...,e_n) = v . w(e_1,...,e_n) - sum_i w(e_1,...,[v,e_i],...,e_n)

As r is an ideal, v . w = L_v w = i_v d w for w extended by zero to
<v> + r (Cartan's formula, as i_v w = 0): the rows (v,) + T of that
algebra's d_n on the columns without v (cochain._assemble, contract).

The invariant cohomology here is (Z^n cap Inv) / (B^n cap Inv),
where Inv is the common kernel of these transforms over the levi basis
elements, each given by its ambient basis index.
The cohomology of the invariant subcomplex (Inv, d restricted) is
available separately as a consistency check; the two agree when s acts
completely reducibly.

Levi grading. When a levi basis element x acts diagonally on g and on M
(h in every catalog split), it acts on the cochain (J, m) by the weight
mu_m - sum of lam_j over j in J, so every invariant lies on the cochains
of weight zero. A generator v with [x, v] = w v maps those to weight w,
and d keeps the weight (Hochschild and Serre, Ann. Math. 57, 1953), so
Inv, Z^n cap Inv and B^n cap Inv are computed from the weight-zero
columns and the rows of matching weight. Without such an x every weight
is 0 and nothing is dropped.

sl2 characters. When the levi part is sl2 with e of x-weight w, a
finite-dimensional levi module V is a sum of irreducibles, each with an
invariant exactly when it has weight 0 and none of weight w, so
dim V^sl2 = dim V_0 - dim V_w (Humphreys, Introduction to Lie Algebras,
section 7). The levi action commutes with d, so C^n, Z^n and B^n are
such modules, and character_dims reads their invariant dimensions from
weight counts and ranks, without any invariant basis.
"""

from collections.abc import Sequence

from .exact_linalg import (
    SparseMatrix,
    Subspace,
    column_slice,
    column_space,
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
    _assemble,
    _cochain_counts,
    _extend_echelon,
    _graded_rows,
    _grading_element,
    cochain_dim,
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


def cochain_action(setup: InvariantSetup, li: int, n: int,
                   grading=None) -> SparseMatrix:
    """Matrix of w -> v . w on C^n(r, M) for the ambient basis element v
    of index li, or with a grading (lam, mu) only its rows (T, m) with
    mu[m] = sum of lam[t] over t in T, as in cochain._assemble.

    li must be a levi index. The matrix is cochain._assemble's
    contraction i_v d_n on the algebra <v> + r with v as basis element 0
    (see the module docstring), whose algebra and module are kept per
    setup and li.
    """
    if li not in setup.levi:
        raise ValueError(f"basis index {li} is not in the levi part")
    key = ("extended", li)
    if key not in setup._cache:
        r = setup.radical_algebra
        pos = {p: a + 1 for a, p in enumerate(setup.radical)}
        structure = {(a + 1, b + 1): {k + 1: c for k, c in comps.items()}
                     for (a, b), comps in r.structure.items()}
        for p, a in pos.items():
            structure[(0, a)] = {pos[k]: c for k, c in
                                 setup.ambient.bracket_basis(li, p).items()}
        vr = LieAlgebra((setup.ambient.labels[li],) + r.labels, structure)
        setup._cache[key] = vr, Representation(
            vr, (setup.module.actions[li],) + setup.radical_module.actions,
            setup.module.module_dim)
    if grading is not None:  # v of weight 0: the rows (0,) + T keep their weight
        grading = [0] + list(grading[0]), grading[1]
    return _assemble(*setup._cache[key], n, grading, contract=True)


def _levi_grading(setup: InvariantSetup) -> tuple:
    """(x, lam, mu, weight): the levi element x of _grading_element and
    its weights on the radical basis, on M and on the ambient basis; x is
    None and every weight 0 without one."""
    if "grading" not in setup._cache:
        g = setup.ambient
        found = _grading_element(g, setup.module, setup.levi)
        x, lam, mu = found or (None, [0] * g.dim, [0] * setup.module.module_dim)
        setup._cache["grading"] = x, [lam[p] for p in setup.radical], mu, lam
    return setup._cache["grading"]


def _block(setup: InvariantSetup, k: int, v: int = 0) -> SparseMatrix:
    """The rows of d_k on C^k(r, M) of levi weight v, kept per setup."""
    key = ("block", k, v)
    if key not in setup._cache:
        _, lam, mu, _ = _levi_grading(setup)
        setup._cache[key] = _assemble(setup.radical_algebra, setup.radical_module,
                                      k, (lam, [m - v for m in mu]))
    return setup._cache[key]


def character_dims(setup: InvariantSetup, n: int, rank):
    """(dim Inv^n, dim Z^n cap Inv, dim B^n cap Inv) = (c_0 - c_w, z_0 - z_w,
    b_0 - b_w) by sl2 characters (see the module docstring), each rank
    taken by rank(matrix): c_v counts the n-cochains of weight v,
    z_v = c_v - rank d_n on them, b_v is the rank of d_{n-1} on the
    (n-1)-cochains of weight v. None unless the levi part is an sl2
    triple: the x of _levi_grading and two elements of x-weights w > 0
    and -w with a nonzero bracket."""
    x, lam, mu, weight = _levi_grading(setup)
    pair = [li for li in setup.levi if li != x]
    if (x is None or len(pair) != 2 or not weight[pair[0]]
            or weight[pair[0]] + weight[pair[1]]
            or not setup.ambient.bracket_basis(*pair)):
        return None
    dims = []
    for v in (0, abs(weight[pair[0]])):
        c = _cochain_counts(n, (lam, mu), v)[n]
        dims.append((c, c - rank(_block(setup, n, v)),
                     rank(_block(setup, n - 1, v)) if n else 0))
    return tuple(at0 - atw for at0, atw in zip(*dims))


def invariant_subspace(setup: InvariantSetup, n: int) -> Subspace:
    """Common kernel of the levi generator actions on C^n(r, M).

    Solved on the weight-zero columns, the kernel of x, with each other
    generator's rows of its own weight: mapped back in increasing order,
    the RREF is that of the full common kernel.
    """
    key = ("inv", n)
    if key not in setup._cache:
        x, lam, mu, weight = _levi_grading(setup)
        md = len(mu)
        zero = [pos * md + m for pos, _, ms, _ in _graded_rows((lam, mu), len(lam), md, n, [])
                for m in ms]
        acts = [column_slice(cochain_action(setup, li, n,
                                            (lam, [w - weight[li] for w in mu])), zero)
                for li in setup.levi if li != x]
        ker = kernel_basis(stacked(acts, len(zero)))
        setup._cache[key] = Subspace(
            cochain_dim(setup.radical_algebra, setup.radical_module, n),
            tuple({zero[c]: v for c, v in row.items()} for row in ker.rows),
            tuple(zero[c] for c in ker.pivots))
    return setup._cache[key]


def invariant_cohomology(setup: InvariantSetup, n: int) -> CohomologyResult:
    """(Z^n cap Inv) / (B^n cap Inv) with representatives, which are
    computed when .representatives is first read. Kept per setup and
    degree.

    dim_cochain reports the full C^n(r, M) dimension; dim_cocycles and
    dim_coboundaries are the invariant intersections, read from the
    weight-zero rows of d_n and d_{n-1}: the kernel of the first on the
    Inv basis, and Inv met with the column space of the second.
    """
    key = ("H", n)
    if key in setup._cache:
        return setup._cache[key]
    inv = invariant_subspace(setup, n)
    z_inv = kernel_within(_block(setup, n), inv)
    b_inv = (intersect(column_space(_block(setup, n - 1)), inv) if n
             else Subspace.zero(inv.ambient_dim))
    dim_h = z_inv.dim - b_inv.dim
    setup._cache[key] = CohomologyResult(
        degree=n,
        dim_cochain=inv.ambient_dim,
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
    inv_n = invariant_subspace(setup, n)
    rank_dn = (_block(setup, n) @ inv_n.matrix().transpose()).rank()
    if n == 0:
        rank_prev = 0
    else:
        prev = invariant_subspace(setup, n - 1)
        rank_prev = (_block(setup, n - 1) @ prev.matrix().transpose()).rank()
    dim_ker = inv_n.dim - rank_dn
    return {
        "dim_invariants": inv_n.dim,
        "dim_kernel": dim_ker,
        "dim_image": rank_prev,
        "dim_cohomology": dim_ker - rank_prev,
    }
