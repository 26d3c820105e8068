"""Lie algebras by structure constants.

An algebra is stored as a basis plus the brackets [b_i, b_j] for i < j;
antisymmetry and [b_i, b_i] = 0 hold by construction. The Jacobi
identity is checked by validate, which reports the first failing triple
instead of raising.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .exact_linalg import (
    SparseMatrix,
    Subspace,
    _subtract,
    kernel_basis,
    rat,
    rat_str,
)


class JacobiViolation:
    """First basis triple (i < j < k) where the Jacobi sum is nonzero."""

    def __init__(self, triple: tuple[int, int, int], residual: tuple):
        self.triple = triple
        self.residual = residual

    def __eq__(self, other) -> bool:
        return (type(other) is JacobiViolation
                and (self.triple, self.residual) == (other.triple, other.residual))

    def __str__(self):
        i, j, k = self.triple
        res = "(" + ", ".join(rat_str(x) for x in self.residual) + ")"
        return f"Jacobi identity fails at basis triple ({i},{j},{k}), residual {res}"


class NotAnIdeal(Exception):
    """Raised by quotient when the subspace is not bracket-stable."""

    def __init__(self, generator_index: int, ideal_vector_index: int):
        self.witness = (generator_index, ideal_vector_index)
        super().__init__(
            f"[b_{generator_index}, ideal basis vector {ideal_vector_index}] "
            "falls outside the subspace"
        )


class NotASubalgebra(ValueError):
    """Raised when a coordinate span is not closed under the bracket."""


class ActionNotDerivation(Exception):
    def __init__(self, generator_index: int, pair: tuple[int, int]):
        self.witness = (generator_index, pair)
        super().__init__(
            f"action of generator {generator_index} violates Leibniz on pair {pair}"
        )


class ActionNotHomomorphism(Exception):
    def __init__(self, pair: tuple[int, int]):
        self.witness = pair
        super().__init__(f"action does not respect the bracket of pair {pair}")


def as_index(x) -> int:
    """Coerce a basis or module index read from a file to an int. A float
    or a bool is refused rather than truncated.

    >>> as_index(2), as_index("3")
    (2, 3)
    >>> as_index(1.7)
    Traceback (most recent call last):
    ValueError: non-integer index 1.7
    """
    if isinstance(x, (bool, float)):
        raise ValueError(f"non-integer index {x!r}")
    return int(x)


def _clean_structure(dim: int, structure) -> dict[tuple[int, int], dict[int, Fraction]]:
    clean: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), comps in structure.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"structure key ({i},{j}) must satisfy 0 <= i < j < dim")
        row = {}
        for k, c in comps.items():
            if not 0 <= k < dim:
                raise ValueError(f"structure target {k} out of range")
            c = Fraction(c)
            if c:
                row[k] = c
        if row:
            clean[(i, j)] = row
    return clean


class LieAlgebra:
    """Finite-dimensional Lie algebra with a distinguished basis.

    structure maps (i, j) with i < j to {k: c} meaning
    [b_i, b_j] = sum c * b_k. Pairs absent from the map bracket to zero.
    """

    __slots__ = ("dim", "labels", "structure", "name")

    def __init__(self, labels: Sequence[str], structure, name: str = ""):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.dim = len(labels)
        self.labels = labels
        self.structure = _clean_structure(self.dim, structure)
        self.name = name

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[b_i, b_j] as a sparse coordinate dict, any index order."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear alternating extension of the basis brackets.

        Expands through the structure constants; u and v are coordinate
        vectors of length dim.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        u = [Fraction(x) for x in u]
        v = [Fraction(x) for x in v]
        out = [Fraction(0)] * self.dim
        for (i, j), comps in self.structure.items():
            coeff = u[i] * v[j] - u[j] * v[i]
            if coeff:
                for k, c in comps.items():
                    out[k] += coeff * c
        return tuple(out)

    def ad_matrix(self, i: int) -> SparseMatrix:
        """Matrix of ad_{b_i} : v -> [b_i, v] in the given basis."""
        ent = {}
        for j in range(self.dim):
            for k, c in self.bracket_basis(i, j).items():
                ent[(k, j)] = c
        return SparseMatrix(self.dim, self.dim, ent)

    def validate(self) -> JacobiViolation | None:
        """None when Jacobi holds on all basis triples, else the first failure.

        The residual of i < j < k is the dense tuple of [[b_i, b_j], b_k] +
        [[b_j, b_k], b_i] + [[b_k, b_i], b_j]. Only triples reached through
        nonzero brackets can fail, so the check makes one pass over each
        stored [b_p, b_q] and each nonzero [b_m, b_o] with m a component of
        it, summing every residual at once, so the cost follows the nonzero
        brackets, not the C(dim, 3) triples. The failure reported is the
        lexicographically smallest failing triple.
        """
        nbr: dict = {}  # m -> [(o, [b_m, b_o] read off the stored bracket, sign)]
        for (a, b), comps in self.structure.items():
            nbr.setdefault(a, []).append((b, comps, 1))
            nbr.setdefault(b, []).append((a, comps, -1))
        residuals: dict = {}
        for (p, q), comps in self.structure.items():
            for m, c in comps.items():
                for o, br, sign in nbr.get(m, ()):
                    if o == p or o == q:
                        continue
                    # (p, q) is the pair (i, k) of the triple exactly when
                    # p < o < q, and that term is [[b_k, b_i], b_j]
                    s = -c * sign if p < o < q else c * sign
                    res = residuals.setdefault(tuple(sorted((p, q, o))), {})
                    for t, d in br.items():
                        res[t] = res.get(t, 0) + s * d
        bad = min((t for t, res in residuals.items() if any(res.values())), default=None)
        if bad is None:
            return None
        res = residuals[bad]
        return JacobiViolation(bad, tuple(res.get(t, Fraction(0)) for t in range(self.dim)))

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j) in sorted(self.structure):
            comps = self.structure[(i, j)]
            brackets.append(
                {
                    "left": i,
                    "right": j,
                    "result": [[k, rat_str(comps[k])] for k in sorted(comps)],
                }
            )
        return {"name": self.name, "basis": list(self.labels), "brackets": brackets}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LieAlgebra":
        try:
            labels = data["basis"]
            if not isinstance(labels, list):
                raise ValueError("malformed algebra data: basis must be a list of labels")
            name = data.get("name", "")
            if not isinstance(name, str):
                raise ValueError("malformed algebra data: name must be a string")
            structure: dict = {}
            for item in data.get("brackets", []):
                i, j = as_index(item["left"]), as_index(item["right"])
                if i >= j:
                    raise ValueError(
                        f"bracket pair ({i},{j}) must have left < right"
                    )
                comps = {}
                for k, c in item["result"]:
                    k = as_index(k)
                    comps[k] = comps.get(k, Fraction(0)) + rat(c)
                if (i, j) in structure:
                    raise ValueError(f"duplicate bracket pair ({i},{j})")
                structure[(i, j)] = comps
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed algebra data: {exc}") from exc
        return cls(labels, structure, name=name)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.labels == other.labels
            and self.structure == other.structure
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.labels, self.name))

    def __repr__(self):
        return f"LieAlgebra({self.name or 'unnamed'}, dim={self.dim})"


def center(g: LieAlgebra) -> Subspace:
    """{v : [b_i, v] = 0 for all i}, the kernel of the stacked ad matrices,
    read off the stored brackets: row i * dim + k, column j is [b_i, b_j]_k."""
    ent = {}
    for (i, j), comps in g.structure.items():
        for k, c in comps.items():
            ent[(i * g.dim + k, j)] = c
            ent[(j * g.dim + k, i)] = -c
    return kernel_basis(SparseMatrix(g.dim * g.dim, g.dim, ent))


def _leibniz_system(g: LieAlgebra) -> SparseMatrix:
    """Linear system on flattened dim x dim matrices D (entry (r,c) at r*dim+c)
    expressing D[b_i,b_j] = [D b_i, b_j] + [b_i, D b_j] for all i < j.

    Assembled as integer rows over den, the lcm of the structure constants'
    denominators, as cochain.differential assembles its rows."""
    dim = g.dim
    den = lcm(*[c.denominator for comps in g.structure.values() for c in comps.values()])
    # br[i][j]: [b_i, b_j] times den, any index order
    br = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in g.structure.items():
        for k, c in comps.items():
            br[i][j][k] = x = c.numerator * (den // c.denominator)
            br[j][i][k] = -x
    rows: dict = {}
    base = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            block = [{} for _ in range(dim)]
            for m, c in br[i][j].items():
                for k in range(dim):
                    block[k][k * dim + m] = c
            for m in range(dim):
                for col, bm in ((m * dim + i, br[m][j]), (m * dim + j, br[i][m])):
                    for k, c in bm.items():
                        block[k][col] = block[k].get(col, 0) - c
            for k, row in enumerate(block):
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows[base + k] = row
            base += dim
    return SparseMatrix.from_integer_rows(base, dim * dim, rows,
                                          dict.fromkeys(rows, den) if den != 1 else None)


def derivation_space(g: LieAlgebra) -> Subspace:
    """All derivations as flattened matrices, canonical basis."""
    return kernel_basis(_leibniz_system(g))


def derivations(g: LieAlgebra) -> list:
    """Basis of the derivation algebra, as matrices."""
    dim = g.dim
    return [SparseMatrix(dim, dim, {divmod(idx, dim): v for idx, v in row.items()})
            for row in derivation_space(g).rows]


def inner_derivations(g: LieAlgebra) -> Subspace:
    """Span of the ad matrices, flattened; dim = dim(g) - dim center(g)."""
    vectors = [{r * g.dim + c: v for (r, c), v in g.ad_matrix(i).entries.items()}
               for i in range(g.dim)]
    return Subspace.from_vectors(g.dim * g.dim, vectors)


def subalgebra_on_indices(g: LieAlgebra, indices: Sequence[int]) -> LieAlgebra:
    """The subalgebra spanned by the listed basis vectors, with induced bracket.

    Raises NotASubalgebra when some [b_p, b_q] leaves the span.
    """
    indices = tuple(sorted(set(int(i) for i in indices)))
    if indices and not (0 <= indices[0] and indices[-1] < g.dim):
        raise ValueError("subalgebra index out of range")
    pos = {p: a for a, p in enumerate(indices)}
    structure: dict = {}
    for a, p in enumerate(indices):
        for b in range(a + 1, len(indices)):
            q = indices[b]
            comps = {}
            for k, c in g.bracket_basis(p, q).items():
                if k not in pos:
                    raise NotASubalgebra(
                        f"[{g.labels[p]}, {g.labels[q]}] leaves the span of "
                        f"indices {indices}"
                    )
                comps[pos[k]] = c
            if comps:
                structure[(a, b)] = comps
    return LieAlgebra(
        [g.labels[p] for p in indices], structure, name=f"{g.name}|{indices}"
    )


def quotient(g: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """g modulo a bracket-stable subspace.

    The complement basis is the set of basis vectors of g away from the
    echelon pivots of the ideal, so labels of survivors are preserved.
    """
    if ideal.ambient_dim != g.dim:
        raise ValueError("ideal lives in the wrong ambient space")
    for w_idx, w in enumerate(ideal.rows):
        for i in range(g.dim):
            image: dict = {}  # [b_i, w], without stored zeros
            for t, wt in w.items():
                _subtract(image, -wt, g.bracket_basis(i, t))
            if ideal.reduce(image):
                raise NotAnIdeal(i, w_idx)
    pivots = set(ideal.pivots)
    comp = [i for i in range(g.dim) if i not in pivots]
    cpos = {p: a for a, p in enumerate(comp)}
    structure: dict = {}
    for a, p in enumerate(comp):
        for b in range(a + 1, len(comp)):
            w = ideal.reduce(g.bracket_basis(p, comp[b]))
            comps = {cpos[t]: w[t] for t in sorted(w)}
            if comps:
                structure[(a, b)] = comps
    out = LieAlgebra(
        [g.labels[p] for p in comp], structure, name=f"{g.name}/ideal" if g.name else ""
    )
    bad = out.validate()
    if bad is not None:
        raise ValueError(f"quotient produced a non-Lie table: {bad}")
    return out


def semidirect(s: LieAlgebra, r: LieAlgebra, action: Sequence[SparseMatrix]) -> LieAlgebra:
    """Semidirect sum s acting on the ideal r.

    action[i] is the matrix by which s basis element i acts on r. Each
    must be a derivation of r and the assignment must respect the
    bracket of s. Both laws are Jacobi identities of the assembled table:
    Jacobi on (s_i, r_a, r_b) is the derivation law of action[i] at
    (a, b), and Jacobi on (s_i, s_j, r_a) the homomorphism law at (i, j).
    So validate checks them, and its first failing triple in lexicographic
    order is the witness: ActionNotDerivation(i, (a, b)) or
    ActionNotHomomorphism((i, j)), whichever law that triple belongs to.
    A failing triple inside s or inside r raises ValueError.
    """
    if len(action) != s.dim:
        raise ValueError("need one action matrix per basis element of s")
    for i, A in enumerate(action):
        if (A.rows, A.cols) != (r.dim, r.dim):
            raise ValueError(f"action matrix {i} has the wrong shape")
    ds = s.dim
    structure: dict = {}
    for (i, j), comps in s.structure.items():
        structure[(i, j)] = dict(comps)
    for (a, b), comps in r.structure.items():
        structure[(ds + a, ds + b)] = {ds + k: c for k, c in comps.items()}
    for i, A in enumerate(action):
        for (k, a), c in A.entries.items():
            structure.setdefault((i, ds + a), {})[ds + k] = c
    out = LieAlgebra(
        list(s.labels) + list(r.labels),
        structure,
        name=f"{s.name}|x{r.name}" if s.name and r.name else "",
    )
    bad = out.validate()
    if bad is not None:
        i, j, k = bad.triple
        if i < ds <= j:
            raise ActionNotDerivation(i, (j - ds, k - ds))
        if j < ds <= k:
            raise ActionNotHomomorphism((i, j))
        raise ValueError(f"semidirect table violates Jacobi: {bad}")
    return out
