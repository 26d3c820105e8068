"""Independent reference implementations used only by the tests.

Everything here evaluates the defining formulas pointwise, tuple by
tuple, without reusing the library's matrix assembly, so agreement is
evidence rather than tautology. Shared inputs are limited to structure
constants and action matrix entries, which are the data under test's
own ground truth. reference_echelon and reference_leibniz_system are the
exceptions: frozen copies of an earlier elimination kernel and of the
earlier Fraction assembly of the Leibniz system, which the current code
must match exactly.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from liecohom.exact_linalg import SparseMatrix
from liecohom.lie_core import LieAlgebra


def sort_with_sign(args):
    """Bubble sort returning (sign, sorted list); sign of the permutation."""
    a = list(args)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                sign = -sign
                changed = True
    return sign, a


def cochain_lookup(dim, module_dim, n, vec):
    """Wrap a flat degree-n cochain vector as a callable on index lists.

    The callable accepts arbitrary (possibly unsorted, possibly repeating)
    basis index lists and applies alternation itself.
    """
    tuples = list(combinations(range(dim), n))
    pos = {t: i for i, t in enumerate(tuples)}

    def phi(args):
        if len(set(args)) < len(args):
            return [Fraction(0)] * module_dim
        sign, ordered = sort_with_sign(args)
        base = pos[tuple(ordered)] * module_dim
        return [sign * Fraction(vec[base + m]) for m in range(module_dim)]

    return phi


def naive_d_apply(g: LieAlgebra, rep, n: int, vec):
    """Evaluate the Chevalley-Eilenberg differential of vec pointwise.

    (d phi)(e_0..e_n) = sum_i (-1)^i e_i . phi(.. e_i-hat ..)
                      + sum_{i<j} (-1)^{i+j} phi([e_i,e_j], .. hats ..)
    """
    md = rep.module_dim
    phi = cochain_lookup(g.dim, md, n, vec)
    out = []
    for T in combinations(range(g.dim), n + 1):
        acc = [Fraction(0)] * md
        for i, ei in enumerate(T):
            rest = list(T[:i] + T[i + 1:])
            val = phi(rest)
            s = Fraction((-1) ** i)
            for (r, c), x in rep.actions[ei].entries.items():
                if val[c]:
                    acc[r] += s * x * val[c]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                br = g.bracket_basis(T[i], T[j])
                if not br:
                    continue
                s = Fraction((-1) ** (i + j))
                rest = [T[t] for t in range(n + 1) if t not in (i, j)]
                for k, c in br.items():
                    val = phi([k] + rest)
                    for m in range(md):
                        if val[m]:
                            acc[m] += s * c * val[m]
        out.extend(acc)
    return out


def naive_cochain_action_apply(setup, v_ambient: int, n: int, vec):
    """Evaluate (v . omega)(a_1..a_n) pointwise for an ambient basis index v.

    (v . omega)(a_1..a_n) = rho(v) omega(a_1..a_n)
                          - sum_i omega(a_1, .., [v, a_i], .., a_n)
    """
    r = setup.radical_algebra
    md = setup.radical_module.module_dim
    amb = setup.ambient
    rad_pos = {amb_idx: loc for loc, amb_idx in enumerate(setup.radical)}
    phi = cochain_lookup(r.dim, md, n, vec)
    rho_v = setup.module.actions[v_ambient]
    out = []
    for T in combinations(range(r.dim), n):
        val = phi(list(T))
        acc = [Fraction(0)] * md
        for (row, col), x in rho_v.entries.items():
            if val[col]:
                acc[row] += x * val[col]
        for i, ai in enumerate(T):
            br = amb.bracket_basis(v_ambient, setup.radical[ai])
            for k, c in br.items():
                args = list(T)
                args[i] = rad_pos[k]
                w = phi(args)
                for m in range(md):
                    if w[m]:
                        acc[m] -= c * w[m]
        out.extend(acc)
    return out


def permute_algebra(g: LieAlgebra, perm):
    """Relabel basis vectors: old index i becomes perm[i]."""
    structure = {}
    for (i, j), row in g.structure.items():
        a, b = perm[i], perm[j]
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        structure[(a, b)] = {perm[k]: sign * c for k, c in row.items()}
    labels = [""] * g.dim
    for i, lab in enumerate(g.labels):
        labels[perm[i]] = lab
    return LieAlgebra(labels, structure, name=(g.name or "g") + "-permuted")


def rescale_basis(g: LieAlgebra, index: int, factor):
    """The same algebra on the basis with b_index replaced by factor * b_index."""
    s = [Fraction(factor) if t == index else Fraction(1) for t in range(g.dim)]
    structure = {
        (i, j): {k: c * s[i] * s[j] / s[k] for k, c in row.items()}
        for (i, j), row in g.structure.items()
    }
    return LieAlgebra(g.labels, structure, name=g.name)


def dense_bracket(g: LieAlgebra, u, v):
    """[u, v] summed over every ordered pair of basis indices, reading
    [b_b, b_a] = -[b_a, b_b] off the stored constants."""
    out = [Fraction(0)] * g.dim
    for a in range(g.dim):
        for b in range(g.dim):
            if a == b or not u[a] or not v[b]:
                continue
            sign, key = (1, (a, b)) if a < b else (-1, (b, a))
            for k, c in g.structure.get(key, {}).items():
                out[k] += sign * u[a] * v[b] * c
    return out


def naive_jacobi(g: LieAlgebra):
    """((i, j, k), residual) for the first triple i < j < k in lexicographic
    order whose Jacobi sum [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j]
    is nonzero, or None."""
    e = [[Fraction(int(t == i)) for t in range(g.dim)] for i in range(g.dim)]
    for i, j, k in combinations(range(g.dim), 3):
        terms = [
            dense_bracket(g, dense_bracket(g, e[x], e[y]), e[z])
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
        ]
        res = tuple(sum(col, Fraction(0)) for col in zip(*terms))
        if any(res):
            return (i, j, k), res
    return None


def gauss_jordan(n: int, vectors):
    """(rows, pivots) of the reduced row echelon form of the span of the
    length-n vectors, by textbook Gauss-Jordan elimination on dense Fraction
    rows: first nonzero row as pivot, pivot row divided by its pivot value,
    the column cleared from every other row. rows are {coordinate: value}
    dicts without zeros."""
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    out = tuple({k: x for k, x in enumerate(row) if x} for row in rows[:len(pivots)])
    return out, tuple(pivots)


def reference_echelon(rows: list, last_first: bool = False):
    """The elimination kernel as it stood before its fast paths, kept
    verbatim as the reference they must match triple for triple.

    Fraction-free forward elimination of sparse integer rows, columns in
    order or from the last to the first, yielding (pivot_col, row_id, row)
    for each pivot: the sparsest row holding the column, ties going to the
    lowest row id. A holder becomes a*row - b*prow, and when a != 1 it is
    divided by the gcd of its entries. Consumes rows."""
    col_rows: dict = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, []).append(rid)
    top = max(col_rows, default=-1)
    for c in range(top, -1, -1) if last_first else range(top + 1):
        holders = col_rows.pop(c, None)
        if not holders:
            continue
        p = min(holders, key=lambda rid: (len(rows[rid]), rid))
        holders.remove(p)
        prow, rows[p] = rows[p], None
        for k in prow:
            if k != c:
                col_rows[k].remove(p)
        pv = prow[c]
        tail = [(k, v) for k, v in prow.items() if k != c]
        for rid in holders:
            row = rows[rid]
            a, b = _reference_scale(row, pv, row.pop(c))
            for k, v in tail:
                nv = row.get(k, 0) - b * v
                if nv:
                    if k not in row:
                        col_rows.setdefault(k, []).append(rid)
                    row[k] = nv
                else:
                    del row[k]
                    col_rows[k].remove(rid)
            if not row:
                rows[rid] = None  # an emptied dict keeps its table
            elif a != 1:
                _reference_divide_content(row)
        yield c, p, prow


def _reference_scale(row: dict, pv: int, f: int) -> tuple:
    """(a, b) with a*f == b*pv: a = pv/g and b = f/g for g = gcd(pv, f)
    taken with the sign of pv, so a > 0; multiplies row by a in place."""
    g = gcd(pv, f)
    if pv < 0:
        g = -g
    a = pv // g
    if a != 1:
        for k in row:
            row[k] *= a
    return a, f // g


def _reference_divide_content(row: dict) -> None:
    h = gcd(*row.values())
    if h > 1:
        for k in row:
            row[k] //= h


def reference_leibniz_system(g: LieAlgebra) -> SparseMatrix:
    """lie_core._leibniz_system as it stood before its integer assembly,
    kept verbatim: Fraction entries added per term, then SparseMatrix(...).

    Linear system on flattened dim x dim matrices D (entry (r,c) at r*dim+c)
    expressing D[b_i,b_j] = [D b_i, b_j] + [b_i, D b_j] for all i < j."""
    dim = g.dim
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    ent: dict = {}
    for p, (i, j) in enumerate(pairs):
        base = p * dim
        for m, c in g.bracket_basis(i, j).items():
            for k in range(dim):
                key = (base + k, k * dim + m)
                ent[key] = ent.get(key, 0) + c
        for m in range(dim):
            for k, c in g.bracket_basis(m, j).items():
                key = (base + k, m * dim + i)
                ent[key] = ent.get(key, 0) - c
            for k, c in g.bracket_basis(i, m).items():
                key = (base + k, m * dim + j)
                ent[key] = ent.get(key, 0) - c
    return SparseMatrix(len(pairs) * dim, dim * dim, ent)
