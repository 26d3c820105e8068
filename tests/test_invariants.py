from fractions import Fraction

import pytest

from liecohom import catalog
from liecohom.cochain import differential, is_coboundary, is_cocycle
from liecohom.invariants import (
    InvariantSetup,
    cochain_action,
    invariant_cohomology,
    invariant_subcomplex_cohomology,
    invariant_subspace,
)
from liecohom.lie_core import LieAlgebra
from liecohom.representations import adjoint_rep, trivial_rep, validate_rep

from oracles import naive_cochain_action_apply, permute_algebra, rescale_basis


def test_setup_validation(sch2):
    adj = adjoint_rep(sch2)
    with pytest.raises(ValueError, match="overlap"):
        InvariantSetup(sch2, (0, 1, 2), (2, 3, 4, 5, 6, 7), adj)
    with pytest.raises(ValueError, match="cover"):
        InvariantSetup(sch2, (0, 1), (3, 4, 5, 6, 7), adj)
    with pytest.raises(ValueError, match="not an ideal"):
        # swapped roles: sl2 is not an ideal of sch2
        InvariantSetup(sch2, (3, 4, 5, 6, 7), (0, 1, 2), adj)
    other = adjoint_rep(catalog.schrodinger(3))
    with pytest.raises(ValueError, match="ambient"):
        InvariantSetup(sch2, (0, 1, 2), (3, 4, 5, 6, 7), other)


def test_setup_derived_parts(sch2_adj_setup):
    s = sch2_adj_setup
    assert s.levi_algebra.labels == ("e", "f", "h")
    assert s.radical_algebra.labels == ("x1", "x2", "y1", "y2", "z")
    assert s.radical_module.module_dim == 8
    assert s.cochain_space(2).dim == 80


def test_cochain_action_requires_levi_support(sch2_adj_setup):
    with pytest.raises(ValueError, match="levi"):
        cochain_action(sch2_adj_setup, 3, 1)  # x1 is not in the levi part


def test_cochain_action_matches_naive_oracle(sch2_adj_setup, sch2_triv_setup, rng):
    # x_1 rescaled by 2/3: structure constants and actions 2/3 and 3/2
    scaled = rescale_basis(catalog.schrodinger(2), 3, Fraction(2, 3))
    split = catalog.canonical_split(scaled)
    # e, f, h at indices 1, 5, 7, between radical ones: the sign of each
    # moved slot does not depend on where v sits in the ambient basis
    permuted = permute_algebra(catalog.schrodinger(2), [1, 5, 7, 0, 2, 3, 4, 6])
    interleaved = (1, 5, 7), (0, 2, 3, 4, 6)
    setups = (sch2_adj_setup, sch2_triv_setup,
              InvariantSetup(scaled, *split, adjoint_rep(scaled)),
              InvariantSetup(scaled, *split, trivial_rep(scaled, 1)),
              InvariantSetup(permuted, *interleaved, adjoint_rep(permuted)),
              InvariantSetup(permuted, *interleaved, trivial_rep(permuted, 1)))
    for setup in setups:
        for n in (1, 2, 3):
            dim = setup.cochain_space(n).dim
            for li in setup.levi:
                mat = cochain_action(setup, li, n)
                assert all(type(x) is Fraction and x for x in mat.entries.values())
                vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
                assert list(mat.apply(vec)) == naive_cochain_action_apply(
                    setup, li, n, vec
                )


def test_action_commutes_with_differential(sch2_adj_setup):
    """d(v . w) = v . (d w): the levi action is a chain map, which is what
    makes the invariant subcomplex a complex at all."""
    setup = sch2_adj_setup
    r, M = setup.radical_algebra, setup.radical_module
    for n in (0, 1, 2):
        dn = differential(r, M, n)
        act_n = [cochain_action(setup, li, n) for li in setup.levi]
        act_n1 = [cochain_action(setup, li, n + 1) for li in setup.levi]
        for a_small, a_big in zip(act_n, act_n1):
            assert (dn @ a_small) == (a_big @ dn)


def test_invariant_vectors_are_annihilated(sch2_adj_setup):
    setup = sch2_adj_setup
    inv = invariant_subspace(setup, 2)
    assert inv.dim == 8
    for mat in [cochain_action(setup, li, 2) for li in setup.levi]:
        for vec in inv.basis:
            assert not any(mat.apply(vec))


def test_invariant_one_cochains():
    for n, expected in ((2, 5), (3, 10)):
        g = catalog.schrodinger(n)
        levi, radical = catalog.canonical_split(g)
        setup = InvariantSetup(g, levi, radical, adjoint_rep(g))
        assert invariant_subspace(setup, 1).dim == expected  # n^2 + 1


def test_adjoint_invariant_cohomology_sch2(sch2_adj_setup):
    res = invariant_cohomology(sch2_adj_setup, 2)
    assert res.dim_cochain == 80
    assert res.dim_cocycles == 4
    assert res.dim_coboundaries == 3
    assert res.dim_cohomology == 1
    assert len(res.representatives) == 1


def test_trivial_invariant_cohomology_counts():
    for n, z_dim in ((2, 3), (3, 6)):
        g = catalog.schrodinger(n)
        levi, radical = catalog.canonical_split(g)
        setup = InvariantSetup(g, levi, radical, trivial_rep(g, 1))
        res = invariant_cohomology(setup, 2)
        assert res.dim_cocycles == z_dim  # n(n+1)/2
        assert res.dim_coboundaries == 1
        assert res.dim_cohomology == z_dim - 1


def test_setup_makes_no_bracket_probes(monkeypatch):
    # the ideal check, both subalgebras and the radical module are read
    # off the stored brackets: no pairwise bracket_basis calls, of which
    # 300 labels would need C(300, 2) per subalgebra
    g = LieAlgebra([f"a{i}" for i in range(300)], {})
    calls = []
    real = LieAlgebra.bracket_basis
    monkeypatch.setattr(LieAlgebra, "bracket_basis",
                        lambda self, i, j: calls.append((i, j)) or real(self, i, j))
    setup = InvariantSetup(g, (), range(300), trivial_rep(g, 1))
    assert setup.radical_algebra.dim == 300
    assert calls == []


def test_invariant_representatives_are_invariant_cocycles(sch2_adj_setup):
    setup = sch2_adj_setup
    r, M = setup.radical_algebra, setup.radical_module
    res = invariant_cohomology(setup, 2)
    for vec in res.representatives:
        assert is_cocycle(r, M, 2, vec)
        assert not is_coboundary(r, M, 2, vec)
        for mat in [cochain_action(setup, li, 2) for li in setup.levi]:
            assert not any(mat.apply(vec))


def test_subcomplex_agrees_with_intersections(sch2_adj_setup, sch2_triv_setup):
    """With a semisimple levi factor the cohomology of the invariant
    subcomplex equals the invariant part of the cohomology."""
    for setup in (sch2_adj_setup, sch2_triv_setup):
        for n in (0, 1, 2):
            via_intersections = invariant_cohomology(setup, n)
            via_subcomplex = invariant_subcomplex_cohomology(setup, n)
            assert via_subcomplex == via_intersections.dim_cohomology


def test_quotient_invariant_counts(g2):
    levi, radical = catalog.canonical_split(g2)
    setup = InvariantSetup(g2, levi, radical, adjoint_rep(g2))
    res = invariant_cohomology(setup, 2)
    assert invariant_subspace(setup, 2).dim == 1
    assert res.dim_cocycles == 0
    assert res.dim_coboundaries == 0
    assert res.dim_cohomology == 0


def test_invariant_cohomology_is_kept_per_setup_and_degree(sch2):
    levi, radical = catalog.canonical_split(sch2)
    setup = InvariantSetup(sch2, levi, radical, trivial_rep(sch2, 1))
    res = invariant_cohomology(setup, 2)
    assert invariant_cohomology(setup, 2) is res
    assert invariant_cohomology(setup, 1) is not res
    # a separate setup computes its own, with the same dimensions
    other = InvariantSetup(sch2, levi, radical, trivial_rep(sch2, 1))
    assert invariant_cohomology(other, 2) is not res
    assert invariant_cohomology(other, 2) == res
