import random
from fractions import Fraction

import pytest

from liecohom import catalog
from liecohom.cochain import CochainSpace, cochain_dim, cohomology, differential
from liecohom.factorization import (
    ExtensionInput,
    NotACocycle,
    central_extension,
    hs_crosscheck,
    hs_factorized_dim,
)
from liecohom.invariants import InvariantSetup
from liecohom.lie_core import derivation_space, inner_derivations
from liecohom.representations import adjoint_rep, trivial_rep


def adjoint_setup(g):
    levi, radical = catalog.canonical_split(g)
    return InvariantSetup(g, levi, radical, adjoint_rep(g))


def trivial_setup(g):
    levi, radical = catalog.canonical_split(g)
    return InvariantSetup(g, levi, radical, trivial_rep(g, 1))


def test_extension_of_heisenberg_like_cocycle(h1):
    # extending the 3-dimensional abelian algebra by the standard
    # symplectic cocycle on a1, a2 reproduces a Heisenberg table
    a3 = catalog.abelian(3)
    triv = trivial_rep(a3, 1)
    space = CochainSpace(a3, triv, 2)
    phi = space.vector_of({((0, 1), 0): 1})
    ext = central_extension(ExtensionInput(a3, phi, 1))
    assert ext.dim == 4
    assert ext.labels == ("a1", "a2", "a3", "c1")
    assert ext.bracket_basis(0, 1) == {3: 1}
    assert ext.validate() is None


def test_extension_bracket_combines_base_and_cocycle(sch2):
    triv = trivial_rep(sch2, 1)
    res = cohomology(sch2, triv, 2)
    assert res.dim_cohomology == 2
    phi = res.representatives[0]
    ext = central_extension(ExtensionInput(sch2, phi, 1))
    assert ext.dim == 9
    assert ext.validate() is None
    space = CochainSpace(sch2, triv, 2)
    pairs = list(space.tuples)
    for t, (i, j) in enumerate(pairs):
        expect = dict(sch2.bracket_basis(i, j))
        if phi[t]:
            expect[8] = Fraction(phi[t])
        assert ext.bracket_basis(i, j) == expect


def test_extension_rejects_non_cocycle(sch2):
    triv = trivial_rep(sch2, 1)
    space = CochainSpace(sch2, triv, 2)
    # phi(e, x1) = 1 is not closed: d(phi) is nonzero on (e, h, x1)
    phi = space.vector_of({((0, 3), 0): 1})
    assert any(differential(sch2, triv, 2).apply(phi))
    with pytest.raises(NotACocycle) as exc:
        central_extension(ExtensionInput(sch2, phi, 1))
    assert exc.value.violation.triple == (0, 2, 3)


def test_extension_input_length_check(sl2):
    with pytest.raises(ValueError):
        ExtensionInput(sl2, (Fraction(1),), 1)


def test_two_dimensional_center_extension(sch2):
    triv2 = trivial_rep(sch2, 2)
    space = CochainSpace(sch2, triv2, 2)
    one = trivial_rep(sch2, 1)
    reps = cohomology(sch2, one, 2).representatives
    assignments = {}
    for m, rep_vec in enumerate(reps):
        base = CochainSpace(sch2, one, 2)
        for flat, x in enumerate(rep_vec):
            if x:
                I = base.tuples[flat]
                assignments[(I, m)] = x
    phi = space.vector_of(assignments)
    ext = central_extension(ExtensionInput(sch2, phi, 2))
    assert ext.dim == 10
    assert ext.labels[-2:] == ("c1", "c2")
    assert ext.validate() is None


def test_extension_by_coboundary_is_trivial_extension(h1):
    """An extension by d(omega) is isomorphic to the trivial extension, so
    all cohomology dimensions in degrees 0..2 agree."""
    triv = trivial_rep(h1, 1)
    d1 = differential(h1, triv, 1)
    rng = random.Random(11)
    omega = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d1.cols))
    coboundary = d1.apply(omega)
    ext_cob = central_extension(ExtensionInput(h1, coboundary, 1))
    zero = tuple([Fraction(0)] * len(coboundary))
    ext_triv = central_extension(ExtensionInput(h1, zero, 1))
    for deg in (0, 1, 2):
        a = cohomology(ext_cob, trivial_rep(ext_cob, 1), deg).dim_cohomology
        b = cohomology(ext_triv, trivial_rep(ext_triv, 1), deg).dim_cohomology
        assert a == b
        aa = cohomology(ext_cob, adjoint_rep(ext_cob), deg).dim_cohomology
        bb = cohomology(ext_triv, adjoint_rep(ext_triv), deg).dim_cohomology
        assert aa == bb


def test_extension_validates_iff_cocycle_randomized(sl2, h1):
    rng = random.Random(20250819)
    bases = [catalog.abelian(4), h1, sl2, catalog.schrodinger(2)]
    for trial in range(60):
        g = bases[trial % len(bases)]
        triv = trivial_rep(g, 1)
        dim = cochain_dim(g, triv, 2)
        phi = tuple(
            Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
            for _ in range(dim)
        )
        closed = not any(differential(g, triv, 2).apply(phi))
        try:
            ext = central_extension(ExtensionInput(g, phi, 1))
            built = True
            assert ext.validate() is None
        except NotACocycle:
            built = False
        assert built == closed


def test_degree_cap():
    setup = trivial_setup(catalog.schrodinger(2))
    with pytest.raises(ValueError):
        hs_factorized_dim(setup, -1)


def test_hs_crosscheck_catalog_setups():
    setups = [
        adjoint_setup(catalog.schrodinger(2)),
        adjoint_setup(catalog.schrodinger(3)),
        adjoint_setup(catalog.schrodinger_mod_center(2)),
        adjoint_setup(catalog.schrodinger_mod_center(3)),
        trivial_setup(catalog.schrodinger(2)),
        trivial_setup(catalog.schrodinger(3)),
    ]
    for setup in setups:
        for p in (0, 1, 2):
            out = hs_crosscheck(setup, p)
            assert out["agree"], (setup.ambient.name, p, out)


def test_hs_first_degree_matches_outer_derivations(sch2):
    setup = adjoint_setup(sch2)
    out = hs_crosscheck(setup, 1)
    outer = derivation_space(sch2).dim - inner_derivations(sch2).dim
    assert out["direct"] == outer == 2
    assert out["factorized"] == 2
    assert out["agree"]


def test_hs_degree_three(sch2):
    out = hs_crosscheck(trivial_setup(sch2), 3)
    assert out["agree"], out


def test_hs_degrees_four_and_five(sch2, g2):
    # the factorization holds in every degree, not only up to 3
    for g in (sch2, g2):
        for setup in (adjoint_setup(g), trivial_setup(g)):
            for p in (4, 5):
                out = hs_crosscheck(setup, p)
                assert out["agree"], (g.name, p, out)


def test_hs_factorized_dim_keeps_one_levi_module_per_setup(monkeypatch, sch2):
    from liecohom import factorization

    built = []
    monkeypatch.setattr(factorization, "trivial_rep",
                        lambda g, d: built.append(g) or trivial_rep(g, d))
    setup = adjoint_setup(sch2)
    assert [hs_factorized_dim(setup, p) for p in (0, 1, 2, 2)] == [1, 2, 1, 1]
    assert len(built) == 1
    hs_factorized_dim(adjoint_setup(sch2), 1)
    assert len(built) == 2
