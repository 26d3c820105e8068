import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecohom import catalog, exact_linalg
from liecohom.cochain import (
    CochainSpace,
    _acyclic_rank,
    _assemble,
    _grading,
    cochain_dim,
    cohomology,
    differential,
    is_coboundary,
    is_cocycle,
)
from liecohom.exact_linalg import kernel_basis
from liecohom.invariants import InvariantSetup, cochain_action, invariant_cohomology
from liecohom.representations import adjoint_rep, trivial_rep

from oracles import (
    dense_apply,
    naive_d_apply,
    permute_algebra,
    reference_serialize,
    rescale_basis,
    sparse,
    to_dense,
)

PSI_SCH2 = {
    ((3, 4), 0): 2,   # psi(x1, x2) = 2e
    ((5, 6), 1): -2,  # psi(y1, y2) = -2f
    ((3, 6), 2): -1,  # psi(x1, y2) = -h
    ((4, 5), 2): 1,   # psi(x2, y1) = h
    ((3, 7), 4): 3,   # psi(x1, z) = 3 x2
    ((5, 7), 6): 3,   # psi(y1, z) = 3 y2
    ((4, 7), 3): -3,  # psi(x2, z) = -3 x1
    ((6, 7), 5): -3,  # psi(y2, z) = -3 y1
}


def random_vec(rng, dim):
    return sparse(rng.randint(-3, 3) for _ in range(dim))


def test_cochain_dim_formula(sch2, sl2):
    adj = adjoint_rep(sch2)
    assert cochain_dim(sch2, adj, 0) == 8
    assert cochain_dim(sch2, adj, 2) == 28 * 8
    assert cochain_dim(sch2, trivial_rep(sch2, 1), 3) == 56
    assert cochain_dim(sl2, trivial_rep(sl2, 1), 4) == 0
    with pytest.raises(ValueError):
        cochain_dim(sl2, trivial_rep(sl2, 1), -1)
    with pytest.raises(ValueError):
        cochain_dim(sl2, adj, 1)  # module over a different algebra


def test_serialize_parse_round_trip(sch2, rng):
    space = CochainSpace(sch2, adjoint_rep(sch2), 2)
    vec = random_vec(rng, space.dim)
    assert space.parse(space.serialize(vec)) == vec
    psi = space.vector_of(PSI_SCH2)
    assert psi[space.index_of((3, 4), 0)] == 2
    assert space.serialize(space.vector_of({})) == "[]"


@st.composite
def sparse_cochains(draw):
    """(space, cochain): a random sparse cochain of C^2(sch_2, adj) or
    C^3(h_2, triv), values nonzero rationals."""
    g, n, adjoint = draw(st.sampled_from([("schrodinger:2", 2, True),
                                          ("heisenberg:2", 3, False)]))
    g = catalog.resolve(g)
    space = CochainSpace(g, adjoint_rep(g) if adjoint else trivial_rep(g, 1), n)
    values = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    return space, draw(st.dictionaries(st.integers(0, space.dim - 1), values))


@given(sparse_cochains())
def test_serialize_matches_the_dense_scan(case):
    space, vec = case
    text = space.serialize(vec)
    assert text == reference_serialize(space, vec)
    assert space.parse(text) == vec


def test_cochains_refuse_outside_coordinates(sch2):
    triv = trivial_rep(sch2, 1)
    space = CochainSpace(sch2, triv, 2)
    for key in (-1, space.dim):
        phi = {key: Fraction(1)}
        for call in (space.serialize, lambda v: is_cocycle(sch2, triv, 2, v),
                     lambda v: is_coboundary(sch2, triv, 2, v)):
            with pytest.raises(ValueError, match="outside"):
                call(phi)


def test_parse_sums_a_repeated_coordinate(sch2):
    space = CochainSpace(sch2, trivial_rep(sch2, 1), 2)
    assert space.parse('[[[0, 1], 0, "3/2"], [[0, 1], 0, "-3/2"]]') == {}
    assert space.parse('[[[0, 1], 0, "1"], [[0, 2], 0, "2"], [[0, 1], 0, "1/2"]]') == {
        space.index_of((0, 1), 0): Fraction(3, 2), space.index_of((0, 2), 0): 2}


def test_vector_of_refuses_inexact_coefficients(sch2):
    space = CochainSpace(sch2, trivial_rep(sch2, 1), 2)
    for c, words in ((0.1, "inexact float"), (True, "boolean")):
        with pytest.raises(ValueError, match=words):
            space.vector_of({((0, 1), 0): c})
    assert space.vector_of({((0, 1), 0): "1/3", ((0, 2), 0): 0}) == {
        space.index_of((0, 1), 0): Fraction(1, 3)}


def test_parse_allocates_only_the_nonzeros():
    # C^2(h_1, Q^(10^8)) has 3 * 10^8 coordinates: a dense vector of them
    # does not fit in a 1 GiB address space
    resource = pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = ("from liecohom import catalog\n"
            "from liecohom.cochain import CochainSpace\n"
            "from liecohom.representations import trivial_rep\n"
            "g = catalog.heisenberg(1)\n"
            "space = CochainSpace(g, trivial_rep(g, 10**8), 2)\n"
            "print(repr(space.parse('[[[0, 1], 0, \"1\"]]')))\n")
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, preexec_fn=limit, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "{0: Fraction(1, 1)}\n"


def test_parse_rejects_malformed(sch2):
    space = CochainSpace(sch2, trivial_rep(sch2, 1), 2)
    with pytest.raises(ValueError):
        space.parse('[[[4, 3], 0, "1"]]')  # not strictly increasing
    with pytest.raises(ValueError):
        space.parse('[[[0, 1], 5, "1"]]')  # module coordinate out of range
    with pytest.raises(Exception):
        space.parse("not json")
    with pytest.raises(ValueError, match="1/0"):
        space.parse('[[[0, 1], 0, "1/0"]]')
    with pytest.raises(ValueError):
        space.parse("5")


def test_d_squared_is_zero():
    modules = []
    for g in (catalog.sl2(), catalog.heisenberg(2), catalog.schrodinger(2),
              catalog.schrodinger_mod_center(2), catalog.abelian(3)):
        modules.append((g, trivial_rep(g, 1)))
        modules.append((g, adjoint_rep(g)))
    for g, rep in modules:
        for n in range(0, 3):
            dd = differential(g, rep, n + 1) @ differential(g, rep, n)
            assert dd.is_zero(), (g.name, n)


def test_differential_matches_naive_oracle(rng):
    # x_1 rescaled by 2/3: structure constants and actions 2/3 and 3/2
    sch2_scaled = rescale_basis(catalog.schrodinger(2), 3, Fraction(2, 3))
    assert sch2_scaled.validate() is None
    cases = [
        (catalog.schrodinger(2), "adjoint", 1),
        (catalog.schrodinger(2), "adjoint", 2),
        (catalog.heisenberg(2), "trivial", 2),
        (catalog.sl2(), "adjoint", 0),
        (catalog.schrodinger_mod_center(2), "adjoint", 2),
        (catalog.schrodinger_mod_center(2), "trivial", 3),
        (sch2_scaled, "adjoint", 1),
        (sch2_scaled, "adjoint", 3),
        (sch2_scaled, "trivial", 2),
        (sch2_scaled, "trivial", 3),
    ]
    for g, which, n in cases:
        rep = adjoint_rep(g) if which == "adjoint" else trivial_rep(g, 1)
        d = differential(g, rep, n)
        # no int and no stored zero may reach the elimination's v / pv
        assert all(type(v) is Fraction and v for v in d.entries.values())
        for _ in range(3):
            vec = to_dense(random_vec(rng, d.cols), d.cols)
            assert dense_apply(d, vec) == naive_d_apply(g, rep, n, vec), (g.name, n)
    # the rescaled basis gives an isomorphic algebra: rows assembled over
    # the common denominator 6 must give the catalog's cohomology
    sch2 = catalog.schrodinger(2)
    for n in (1, 2, 3):
        assert (cohomology(sch2_scaled, adjoint_rep(sch2_scaled), n).dim_cohomology
                == cohomology(sch2, adjoint_rep(sch2), n).dim_cohomology), n


def test_degree_zero_differential(sl2):
    # (d m)(v) = v . m for the adjoint module: phi(b_j) = [b_j, m]
    adj = adjoint_rep(sl2)
    d0 = differential(sl2, adj, 0)
    m = {0: Fraction(1)}  # e
    img = d0.apply(m)
    space = CochainSpace(sl2, adj, 1)
    # [f, e] = -h, [h, e] = 2e
    assert img[space.index_of((1,), 2)] == -1
    assert img[space.index_of((2,), 0)] == 2
    assert space.index_of((0,), 0) not in img


def test_whitehead_and_top_degree(sl2):
    triv = trivial_rep(sl2, 1)
    dims = [cohomology(sl2, triv, n).dim_cohomology for n in range(4)]
    assert dims == [1, 0, 0, 1]
    adj = adjoint_rep(sl2)
    assert [cohomology(sl2, adj, n).dim_cohomology for n in range(3)] == [0, 0, 0]


def test_heisenberg_trivial_h2(h1):
    triv = trivial_rep(h1, 1)
    res = cohomology(h1, triv, 2)
    assert (res.dim_cochain, res.dim_cocycles, res.dim_coboundaries) == (3, 3, 1)
    assert res.dim_cohomology == 2
    assert len(res.representatives) == 2


def test_schrodinger_trivial_h2():
    for n, expected in ((2, 2), (3, 5)):
        g = catalog.schrodinger(n)
        assert cohomology(g, trivial_rep(g, 1), 2).dim_cohomology == expected


def test_schrodinger_adjoint_low_degrees(sch2, sch3):
    assert cohomology(sch2, adjoint_rep(sch2), 2).dim_cohomology == 1
    assert cohomology(sch3, adjoint_rep(sch3), 2).dim_cohomology == 0
    assert cohomology(sch2, adjoint_rep(sch2), 1).dim_cohomology == 2


def test_quotient_adjoint_h2_vanishes(g2):
    # the full complex, with no invariance imposed, gives 0 here
    assert cohomology(g2, adjoint_rep(g2), 2).dim_cohomology == 0


def test_frozen_differential_ranks(sch2):
    adj = adjoint_rep(sch2)
    d1 = differential(sch2, adj, 1)
    d2 = differential(sch2, adj, 2)
    assert (d1.rows, d1.cols, d1.rank()) == (224, 64, 55)
    assert (d2.rows, d2.cols, d2.rank()) == (448, 224, 168)


def test_cocycle_dims_agree_with_kernel(sch2):
    # rank-based Z dimension vs an explicit kernel basis
    adj = adjoint_rep(sch2)
    res = cohomology(sch2, adj, 2)
    assert res.dim_cocycles == kernel_basis(differential(sch2, adj, 2)).dim


def test_coboundaries_are_cocycles(sch2):
    adj = adjoint_rep(sch2)
    d1 = differential(sch2, adj, 1)
    rng = random.Random(5)
    for _ in range(4):
        omega = random_vec(rng, d1.cols)
        assert is_cocycle(sch2, adj, 2, d1.apply(omega))
        assert is_coboundary(sch2, adj, 2, d1.apply(omega))


def test_representatives_are_independent_cocycles():
    cases = [
        (catalog.schrodinger(2), trivial_rep(catalog.schrodinger(2), 1), 2),
        (catalog.heisenberg(1), trivial_rep(catalog.heisenberg(1), 1), 2),
    ]
    for g, rep, n in cases:
        res = cohomology(g, rep, n)
        assert len(res.representatives) == res.dim_cohomology
        seen = []
        for v in res.representatives:
            assert is_cocycle(g, rep, n, v)
            assert not is_coboundary(g, rep, n, v)
            seen.append(v)
        # classes are independent: no nontrivial combination is a coboundary
        if len(seen) == 2:
            combo = {k: seen[0].get(k, 0) + seen[1].get(k, 0)
                     for k in seen[0].keys() | seen[1].keys()}
            assert not is_coboundary(g, rep, n, combo)


def test_distinguished_sch2_cocycle(sch2):
    adj = adjoint_rep(sch2)
    space = CochainSpace(sch2, adj, 2)
    psi = space.vector_of(PSI_SCH2)
    assert is_cocycle(sch2, adj, 2, psi)
    assert not is_coboundary(sch2, adj, 2, psi)


def test_permutation_invariance(sch2, rng):
    perm = list(range(8))
    rng.shuffle(perm)
    shuffled = permute_algebra(sch2, perm)
    assert shuffled.validate() is None
    for rep_of in (trivial_rep, adjoint_rep):
        a = rep_of(sch2, 1) if rep_of is trivial_rep else rep_of(sch2)
        b = rep_of(shuffled, 1) if rep_of is trivial_rep else rep_of(shuffled)
        for n in (1, 2):
            assert (
                cohomology(sch2, a, n).dim_cohomology
                == cohomology(shuffled, b, n).dim_cohomology
            )


def test_degree_beyond_dimension(sl2):
    triv = trivial_rep(sl2, 1)
    res = cohomology(sl2, triv, 4)
    assert res.dim_cochain == 0
    assert res.dim_cohomology == 0


# Serialized representatives recorded before the elimination kernel was
# unified; the canonical echelon choice must reproduce them byte for byte.
PINNED_REPRESENTATIVES = {
    "sch2 adjoint H^2": [
        '[[[3, 4], 0, "1"], [[3, 6], 2, "-1/2"], [[3, 7], 4, "3/2"], '
        '[[4, 5], 2, "1/2"], [[4, 7], 3, "-3/2"], [[5, 6], 1, "-1"], '
        '[[5, 7], 6, "3/2"], [[6, 7], 5, "-3/2"]]',
    ],
    "sch3 trivial H^3": ['[[[0, 1, 2], 0, "1"]]'],
    "sch2 adjoint invariant H^2": [
        '[[[0, 1], 0, "1"], [[0, 3], 2, "-1/2"], [[0, 4], 4, "3/2"], '
        '[[1, 2], 2, "1/2"], [[1, 4], 3, "-3/2"], [[2, 3], 1, "-1"], '
        '[[2, 4], 6, "3/2"], [[3, 4], 5, "-3/2"]]',
    ],
}


def test_pinned_representatives(sch2, sch3, sch2_adj_setup):
    adj = adjoint_rep(sch2)
    triv = trivial_rep(sch3, 1)
    cases = {
        "sch2 adjoint H^2": (CochainSpace(sch2, adj, 2), cohomology(sch2, adj, 2)),
        "sch3 trivial H^3": (CochainSpace(sch3, triv, 3), cohomology(sch3, triv, 3)),
        "sch2 adjoint invariant H^2": (
            sch2_adj_setup.cochain_space(2),
            invariant_cohomology(sch2_adj_setup, 2),
        ),
    }
    for name, (space, res) in cases.items():
        got = [space.serialize(v) for v in res.representatives]
        assert got == PINNED_REPRESENTATIVES[name], name


def entries_sha256(m):
    return hashlib.sha256(repr(sorted(m.entries.items())).encode()).hexdigest()


# Entry digests recorded before assembly stopped re-coercing Fractions; the
# matrices must stay equal entry by entry.
PINNED_MATRICES = {
    "d_2(sch3, adjoint)": "acd73e09ee14db9a07f5491833aee177629c014743a0d945dc134dc7b5cdf5c5",
    "d_3(sch4, adjoint)": "b535807358e5463c94cd749125ef16682fce3d40a8da09c83b0ff82b78f2cc5d",
    "sch3 adjoint levi action e on C^2": (
        "a40232e17c10d5b1748f4bd2b9ec04cd2e3a01d0213089b22a51eff8b9468e61"),
    "sch3 adjoint levi action f on C^2": (
        "3a6388ae80cee921162d9779d6ce17152567f7f33d68eebedd2d801ebb7ed2e9"),
    "sch3 adjoint levi action h on C^2": (
        "8db659b6e57c16becd1f5eb9a68eeb4bd04a70df4e5da35b281d2cf3855335d1"),
}


def test_pinned_matrices(sch3):
    sch4 = catalog.schrodinger(4)
    setup = InvariantSetup(sch3, *catalog.canonical_split(sch3), adjoint_rep(sch3))
    acts = [cochain_action(setup, li, 2) for li in setup.levi]
    got = {
        "d_2(sch3, adjoint)": differential(sch3, adjoint_rep(sch3), 2),
        "d_3(sch4, adjoint)": differential(sch4, adjoint_rep(sch4), 3),
        "sch3 adjoint levi action e on C^2": acts[0],
        "sch3 adjoint levi action f on C^2": acts[1],
        "sch3 adjoint levi action h on C^2": acts[2],
    }
    for name, m in got.items():
        assert entries_sha256(m) == PINNED_MATRICES[name], name


def test_pinned_pivots():
    """The (column, row) pivots of the stored elimination of d_3(sch4,
    adjoint), recorded when the elimination began taking columns from last
    to first: the certificate's minor and the traced work counters depend
    on them."""
    sch4 = catalog.schrodinger(4)
    d3 = differential(sch4, adjoint_rep(sch4), 3)
    pivots, _ = exact_linalg._kernel(d3)
    ker = kernel_basis(d3)
    assert (len(pivots), ker.dim) == (1925, 715)
    assert hashlib.sha256(json.dumps(pivots).encode()).hexdigest() == (
        "79bef1bfca52dee2dd4e7dccbb4dfa9263d7173790f8ec3a8ffd83980613d451")


def weight_zero_cases():
    """(algebra, top degree, graded): sl2 and the Schroedinger algebras and
    quotients carry h, Heisenberg and abelian algebras no grading element;
    the permuted sch_3 puts the central z, diagonal with every weight 0,
    before h, and the rescaled sch_2, read back from its file text, has
    structure denominators (D = 6)."""
    perm = list(range(10))
    random.Random(3).shuffle(perm)
    scaled = catalog.parse_algebra(catalog.serialize(
        rescale_basis(catalog.schrodinger(2), 3, Fraction(2, 3))))
    return [
        (catalog.sl2(), 3, True),
        *((catalog.schrodinger(n), 4 if n == 2 else 3, True) for n in (1, 2, 3, 4)),
        *((catalog.schrodinger_mod_center(n), 3, True) for n in (2, 3)),
        (catalog.heisenberg(2), 3, False),
        (catalog.abelian(0), 3, False),
        (catalog.abelian(3), 3, False),
        (permute_algebra(catalog.schrodinger(3), perm), 3, True),
        (scaled, 3, True),
    ]


def modules(g):
    return {"trivial": lambda: trivial_rep(g, 1), "adjoint": lambda: adjoint_rep(g)}


def test_weight_zero_dimensions_match_the_full_complex():
    for g, top, graded in weight_zero_cases():
        for coeff, make in modules(g).items():
            for p in range(top + 1):
                fresh = make()
                dims = cohomology(g, fresh, p).as_dict()
                assert (_grading(g, fresh) is not None) == graded, g.name
                # the weight-zero path builds no d_p and no d_{p-1}
                assert (p in fresh._dcache) == (not graded), (g.name, coeff, p)
                full = make()
                for k in range(max(p - 1, 0), p + 1):
                    differential(g, full, k)
                assert cohomology(g, full, p).as_dict() == dims, (g.name, coeff, p)


def test_weight_zero_block_is_the_weight_zero_rows_of_d():
    for g, top, graded in weight_zero_cases():
        if not graded:
            continue
        # the weights of h, read off its brackets independently of _grading
        h = g.labels.index("h")
        lam = [g.bracket_basis(h, j).get(j, Fraction(0)) for j in range(g.dim)]
        for coeff, make in modules(g).items():
            M = make()
            mu = lam if coeff == "adjoint" else [Fraction(0)]
            grading = _grading(g, M)
            for k in range(3):
                d = differential(g, M, k)
                tuples = list(itertools.combinations(range(g.dim), k + 1))
                zero = {a * M.module_dim + m for a, J in enumerate(tuples)
                        for m in range(M.module_dim) if mu[m] == sum(lam[j] for j in J)}
                block = _assemble(g, M, k, grading)
                assert (block.rows, block.cols) == (d.rows, d.cols)
                assert block.entries == {
                    (r, c): v for (r, c), v in d.entries.items() if r in zero}, (g.name, k)
                # the rows of nonzero weight are exact: their rank is counted
                assert block.rank() + _acyclic_rank(k, grading) == d.rank()
