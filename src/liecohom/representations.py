"""Finite-dimensional modules over a Lie algebra.

A representation is the list of action matrices of the basis elements.
The defining law action([b_i, b_j]) = [action(b_i), action(b_j)] is
checked by validate_rep; the adjoint construction satisfies it because
of Jacobi and the trivial one vacuously.
"""

from collections.abc import Sequence

from .exact_linalg import SparseMatrix
from .lie_core import LieAlgebra, ad_matrices


class RepViolation:
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair

    def __eq__(self, other) -> bool:
        return type(other) is RepViolation and self.pair == other.pair

    def __str__(self):
        i, j = self.pair
        return f"module law fails on basis pair ({i},{j})"


class Representation:
    __slots__ = ("algebra", "module_dim", "actions", "_dcache")

    def __init__(self, algebra: LieAlgebra, actions: Sequence[SparseMatrix], module_dim: int | None = None):
        actions = tuple(actions)
        if len(actions) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        if module_dim is None:
            if not actions:
                raise ValueError("module_dim required for a 0-dimensional algebra")
            module_dim = actions[0].rows
        for a in actions:
            if (a.rows, a.cols) != (module_dim, module_dim):
                raise ValueError("action matrices must be square of module dimension")
        self.algebra = algebra
        self.module_dim = module_dim
        self.actions = actions
        self._dcache: dict = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Representation)
            and self.algebra == other.algebra
            and self.module_dim == other.module_dim
            and self.actions == other.actions
        )

    def __hash__(self):
        return hash((self.algebra, self.module_dim, self.actions))

    def __repr__(self):
        return (
            f"Representation({self.algebra.name or 'unnamed'}, "
            f"module_dim={self.module_dim})"
        )


def trivial_rep(g: LieAlgebra, d: int) -> Representation:
    """The d-dimensional module with every action zero."""
    if d < 0:
        raise ValueError("module dimension must be nonnegative")
    return Representation(g, [SparseMatrix.zero(d, d)] * g.dim, module_dim=d)


def adjoint_rep(g: LieAlgebra) -> Representation:
    """g acting on itself by v . w = [v, w]."""
    return Representation(g, ad_matrices(g), module_dim=g.dim)


def validate_rep(rep: Representation) -> RepViolation | None:
    """None when the module law holds on all basis pairs, else the first failure."""
    g = rep.algebra
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            # rho([e_i, e_j]) + rho(e_j) rho(e_i) against rho(e_i) rho(e_j)
            lhs = rep.actions[j] @ rep.actions[i]
            for k, c in g.bracket_basis(i, j).items():
                lhs = lhs + rep.actions[k].scale(c)
            if lhs != rep.actions[i] @ rep.actions[j]:
                return RepViolation((i, j))
    return None

