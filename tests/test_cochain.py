import random
from fractions import Fraction

import pytest

from liecohom import catalog
from liecohom.cochain import (
    CochainSpace,
    cochain_dim,
    cohomology,
    differential,
    is_coboundary,
    is_cocycle,
)
from liecohom.exact_linalg import kernel_basis
from liecohom.representations import adjoint_rep, trivial_rep

from oracles import naive_d_apply, permute_algebra

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
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))


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
    cases = [
        (catalog.schrodinger(2), "adjoint", 1),
        (catalog.schrodinger(2), "adjoint", 2),
        (catalog.heisenberg(2), "trivial", 2),
        (catalog.sl2(), "adjoint", 0),
        (catalog.schrodinger_mod_center(2), "adjoint", 2),
    ]
    for g, which, n in cases:
        rep = adjoint_rep(g) if which == "adjoint" else trivial_rep(g, 1)
        d = differential(g, rep, n)
        for _ in range(3):
            vec = random_vec(rng, d.cols)
            assert list(d.apply(vec)) == naive_d_apply(g, rep, n, vec), (g.name, n)


def test_degree_zero_differential(sl2):
    # (d m)(v) = v . m for the adjoint module: phi(b_j) = [b_j, m]
    adj = adjoint_rep(sl2)
    d0 = differential(sl2, adj, 0)
    m = (1, 0, 0)  # e
    img = d0.apply(m)
    space = CochainSpace(sl2, adj, 1)
    # [f, e] = -h, [h, e] = 2e
    assert img[space.index_of((1,), 2)] == -1
    assert img[space.index_of((2,), 0)] == 2
    assert img[space.index_of((0,), 0)] == 0


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
            combo = tuple(a + b for a, b in zip(seen[0], seen[1]))
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
