"""Central extensions and the Hochschild-Serre dimension cross-check.

A 2-cocycle phi with trivial coefficients defines a bracket
[x + a, y + b] = [x, y] + phi(x, y) on g (+) extra central directions;
the result is a Lie algebra exactly when phi is a cocycle. For a split
g = s (+) r with s semisimple the dimension identity

  dim H^p(g, M) = sum_{m+n=p} dim H^m(s, triv) * dim H^n(r, M)^s

holds in every degree (Hochschild and Serre, Ann. Math. 57, 1953) and is
checked by computing both sides independently.
"""

from fractions import Fraction
from itertools import combinations

from .exact_linalg import SparseMatrix, check_coordinates
from .lie_core import JacobiViolation, LieAlgebra
from .representations import trivial_rep
from .cochain import cochain_dim, cohomology
from .invariants import InvariantSetup, character_dims, invariant_cohomology


class NotACocycle(ValueError):
    """The proposed extension bracket violates Jacobi."""

    def __init__(self, violation: JacobiViolation):
        self.violation = violation
        super().__init__(f"extension is not a Lie algebra: {violation}")


class ExtensionInput:
    """A base algebra, a 2-cochain with values in Q^k as a sparse
    {flat index: Fraction} dict, and k."""

    def __init__(self, base: LieAlgebra, cocycle: dict, k: int = 1):
        check_coordinates(cocycle, cochain_dim(base, trivial_rep(base, k), 2))
        self.base = base
        self.cocycle = cocycle
        self.k = k

    def __eq__(self, other) -> bool:
        return (type(other) is ExtensionInput
                and (self.base, self.cocycle, self.k) == (other.base, other.cocycle, other.k))


def central_extension(inp: ExtensionInput) -> LieAlgebra:
    """The extension algebra, or NotACocycle carrying the Jacobi witness.

    The table is assembled unconditionally and then validated, so the
    error reports the exact basis triple where the would-be bracket
    fails.
    """
    g, k = inp.base, inp.k
    pairs = list(combinations(range(g.dim), 2))
    structure: dict = {}
    for (i, j), comps in g.structure.items():
        structure[(i, j)] = dict(comps)
    for flat, c in sorted(inp.cocycle.items()):
        if c:
            t, m = divmod(flat, k)
            structure.setdefault(pairs[t], {})[g.dim + m] = Fraction(c)
    labels = list(g.labels) + [f"c{m + 1}" for m in range(k)]
    out = LieAlgebra(
        labels, structure, name=f"{g.name}+center{k}" if g.name else ""
    )
    bad = out.validate()
    if bad is not None:
        raise NotACocycle(bad)
    return out


def hs_factorized_dim(setup: InvariantSetup, p: int) -> int:
    """sum over m + n = p of dim H^m(s, triv) * dim H^n(r, M)^s.

    The levi cohomology is computed, not assumed, so semisimplicity
    enters only through the vanishing it produces. The setup keeps one
    trivial levi module, so its differentials are built and eliminated
    once per setup. For an sl2 levi, dim H^n(r, M)^s is
    (z_0 - z_w) - (b_0 - b_w) of invariants.character_dims, from ranks
    alone; for any other levi it is invariant_cohomology's.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    s = setup.levi_algebra
    if "levi_trivial" not in setup._cache:
        setup._cache["levi_trivial"] = trivial_rep(s, 1)
    triv = setup._cache["levi_trivial"]
    total = 0
    for m in range(min(p, s.dim) + 1):  # H^m(s) = 0 for m > dim s
        left = cohomology(s, triv, m).dim_cohomology
        if left:
            dims = character_dims(setup, p - m, SparseMatrix.rank)
            total += left * (dims[1] - dims[2] if dims
                             else invariant_cohomology(setup, p - m).dim_cohomology)
    return total


def hs_crosscheck(setup: InvariantSetup, p: int) -> dict:
    """Both sides of the factorization at degree p, with an agreement flag."""
    direct = cohomology(setup.ambient, setup.module, p).dim_cohomology
    factorized = hs_factorized_dim(setup, p)
    return {"direct": direct, "factorized": factorized, "agree": direct == factorized}
