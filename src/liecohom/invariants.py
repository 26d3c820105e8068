"""Invariant cochains under a distinguished subalgebra.

Given g = s (+) r with r an ideal, an element v of s transforms a
cochain on r by

  (v . w)(e_1,...,e_n) = v . w(e_1,...,e_n) - sum_i w(e_1,...,[v,e_i],...,e_n)

and the invariant cohomology here is (Z^n cap Inv) / (B^n cap Inv),
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
"""

from math import lcm
from typing import Sequence

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
    _extend_echelon,
    _graded_rows,
    _grading_element,
    _keep_block,
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
    of index li, or with a grading (lam, mu) only its rows (J, m) with
    mu[m] = sum of lam[j] over j in J, as in cochain._assemble.

    li must be a levi index. As in cochain.differential, the rows are
    assembled as integers over one denominator D, the lcm of the
    denominators of the moved brackets and of the action of v.
    """
    if li not in setup.levi:
        raise ValueError(f"basis index {li} is not in the levi part")
    g = setup.ambient
    space = setup.cochain_space(n)
    md = setup.module.module_dim
    rad = setup.radical
    rad_pos = {p: a for a, p in enumerate(rad)}
    # moved[a]: [v, e_a] over the radical basis
    moved = [[(rad_pos[k], c) for k, c in g.bracket_basis(li, b).items()] for b in rad]
    rho = list(setup.module.actions[li].integer_rows())
    D = lcm(*[c.denominator for terms in moved for _, c in terms],
            *[den for _, _, den in rho])
    rho_v = [(mr, mc, x * (D // den)) for mr, row, den in rho for mc, x in row.items()]
    # moved[a] as (k, -c, c) times D: the entry of a slot in even and in odd
    # position
    moved = [[(kr, -c.numerator * (D // c.denominator), c.numerator * (D // c.denominator))
              for kr, c in terms] for terms in moved]
    index = {t: a for a, t in enumerate(space.tuples)}
    col_ids = list(range(space.dim))  # shared int objects, as in differential
    rows: dict = {}
    for tpos, T, ms, (kept_rho,) in _graded_rows(grading, len(rad), md, n, [rho_v]):
        ro = tpos * md
        block = [{} for _ in ms]
        # the first entries of each row: no key repeats
        for p, mc, x in kept_rho:
            block[p][col_ids[ro + mc]] = x
        cancelled = False
        for i, a in enumerate(T):
            rest = T[:i] + T[i + 1:]
            for kr, even, odd in moved[a]:
                if kr in rest:
                    continue
                pos = sum(1 for t in rest if t < kr)
                x = odd if (i + pos) % 2 else even
                co = index[tuple(sorted(rest + (kr,)))] * md
                for m, row in zip(ms, block):
                    key = col_ids[co + m]
                    y = row.get(key)
                    if y is None:
                        row[key] = x
                    else:
                        row[key] = y = y + x
                        if not y:
                            cancelled = True
        _keep_block(rows, ro, zip(ms, block), cancelled)
    return SparseMatrix.from_integer_rows(space.dim, space.dim, rows,
                                          dict.fromkeys(rows, D) if D != 1 else None)


def generator_actions(setup: InvariantSetup, n: int) -> list:
    """Action matrices of the levi basis generators on C^n(r, M)."""
    key = ("acts", n)
    if key not in setup._cache:
        setup._cache[key] = [cochain_action(setup, li, n) for li in setup.levi]
    return setup._cache[key]


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


def _block(setup: InvariantSetup, k: int) -> SparseMatrix:
    """The rows of d_k on C^k(r, M) of levi weight zero, kept per setup."""
    key = ("block", k)
    if key not in setup._cache:
        _, lam, mu, _ = _levi_grading(setup)
        setup._cache[key] = _assemble(setup.radical_algebra, setup.radical_module,
                                      k, (lam, mu))
    return setup._cache[key]


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
