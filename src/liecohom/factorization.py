"""Central extensions and the Hochschild-Serre dimension cross-check.

A 2-cocycle phi with trivial coefficients defines a bracket
[x + a, y + b] = [x, y] + phi(x, y) on g (+) extra central directions;
the result is a Lie algebra exactly when phi is a cocycle. For a split
g = s (+) r with s semisimple the dimension identity

  dim H^p(g, M) = sum_{m+n=p} dim H^m(s, triv) * dim H^n(r, M)^s

is checked by computing both sides independently.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .lie_core import JacobiViolation, LieAlgebra
from .representations import trivial_rep
from .cochain import cochain_dim, cohomology
from .invariants import InvariantSetup, invariant_cohomology

HS_DEGREE_CAP = 3


class NotACocycle(ValueError):
    """The proposed extension bracket violates Jacobi."""

    def __init__(self, violation: JacobiViolation):
        self.violation = violation
        super().__init__(f"extension is not a Lie algebra: {violation}")


@dataclass(frozen=True)
class ExtensionInput:
    base: LieAlgebra
    cocycle: tuple
    k: int = 1

    def __post_init__(self):
        expected = cochain_dim(self.base, trivial_rep(self.base, self.k), 2)
        if len(self.cocycle) != expected:
            raise ValueError(
                f"cocycle vector must have {expected} coordinates, "
                f"got {len(self.cocycle)}"
            )


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
    for t, (i, j) in enumerate(pairs):
        for m in range(k):
            c = Fraction(inp.cocycle[t * k + m])
            if c:
                structure.setdefault((i, j), {})[g.dim + m] = c
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
    enters only through the vanishing it produces.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if p > HS_DEGREE_CAP:
        raise ValueError(f"factorized sum implemented for p <= {HS_DEGREE_CAP}")
    s = setup.levi_algebra
    triv = trivial_rep(s, 1)
    total = 0
    for m in range(p + 1):
        left = cohomology(s, triv, m).dim_cohomology
        if left:
            total += left * invariant_cohomology(setup, p - m).dim_cohomology
    return total


def hs_crosscheck(setup: InvariantSetup, p: int) -> dict:
    """Both sides of the factorization at degree p, with an agreement flag."""
    direct = cohomology(setup.ambient, setup.module, p).dim_cohomology
    factorized = hs_factorized_dim(setup, p)
    return {"direct": direct, "factorized": factorized, "agree": direct == factorized}
