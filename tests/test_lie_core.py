from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecohom import catalog
from liecohom.cochain import cohomology
from liecohom.exact_linalg import SparseMatrix, Subspace
from liecohom.lie_core import (
    ActionNotDerivation,
    ActionNotHomomorphism,
    LieAlgebra,
    NotAnIdeal,
    NotASubalgebra,
    center,
    derivation_space,
    derivations,
    inner_derivations,
    quotient,
    semidirect,
    subalgebra_on_indices,
)
from liecohom.representations import adjoint_rep

coords = st.lists(st.integers(-3, 3), min_size=8, max_size=8)


def unit(dim, i):
    return tuple(Fraction(int(t == i)) for t in range(dim))


def test_validate_accepts_catalog(sl2, h2, sch2, sch3, g2):
    for g in (sl2, h2, sch2, sch3, g2, catalog.abelian(4)):
        assert g.validate() is None


def test_validate_reports_first_failure():
    # sl2 with [h, e] = e instead of 2e
    bad = LieAlgebra(
        ["e", "f", "h"], {(0, 1): {2: 1}, (0, 2): {0: -1}, (1, 2): {1: 2}}
    )
    violation = bad.validate()
    assert violation is not None
    assert violation.triple == (0, 1, 2)
    assert any(violation.residual)
    assert "basis triple (0,1,2)" in str(violation)


def test_structure_validation_errors():
    with pytest.raises(ValueError):
        LieAlgebra(["a", "b"], {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(["a", "b"], {(0, 1): {5: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(["a", "a"], {})


def test_bracket_basis_antisymmetry(sch2):
    for i in range(sch2.dim):
        assert sch2.bracket_basis(i, i) == {}
        for j in range(sch2.dim):
            fwd = sch2.bracket_basis(i, j)
            rev = sch2.bracket_basis(j, i)
            assert fwd == {k: -c for k, c in rev.items()}


@given(coords, coords)
def test_bracket_alternating_bilinear(u, v):
    g = catalog.schrodinger(2)
    assert g.bracket(u, u) == tuple([0] * g.dim)
    lhs = g.bracket(u, v)
    rhs = g.bracket(v, u)
    assert lhs == tuple(-x for x in rhs)
    two_u = [2 * x for x in u]
    assert g.bracket(two_u, v) == tuple(2 * x for x in lhs)


@given(coords, coords, coords)
def test_jacobi_on_vectors(u, v, w):
    g = catalog.schrodinger(2)
    total = [
        a + b + c
        for a, b, c in zip(
            g.bracket(u, g.bracket(v, w)),
            g.bracket(v, g.bracket(w, u)),
            g.bracket(w, g.bracket(u, v)),
        )
    ]
    assert not any(total)


def test_ad_matrix_matches_bracket(sl2):
    for i in range(sl2.dim):
        ad = sl2.ad_matrix(i)
        for j in range(sl2.dim):
            col = ad.apply(unit(sl2.dim, j))
            expect = [Fraction(0)] * sl2.dim
            for k, c in sl2.bracket_basis(i, j).items():
                expect[k] = c
            assert list(col) == expect


def test_center_dims(sl2, h2, sch3):
    assert center(sl2).dim == 0
    assert center(h2).dim == 1
    assert center(h2).contains(unit(5, 4))
    assert center(sch3).dim == 1
    assert center(sch3).contains(unit(10, 9))
    assert center(catalog.abelian(4)).dim == 4


def test_derivation_counts(sl2):
    assert derivation_space(sl2).dim == 3
    assert derivation_space(catalog.abelian(3)).dim == 9
    for n, expected in ((2, 9), (3, 13), (4, 18)):
        assert derivation_space(catalog.schrodinger(n)).dim == expected


def test_derivations_satisfy_leibniz(sch2):
    mats = derivations(sch2)
    assert len(mats) == 9
    for D in mats:
        for i in range(sch2.dim):
            for j in range(i + 1, sch2.dim):
                ei, ej = unit(sch2.dim, i), unit(sch2.dim, j)
                lhs = D.apply(sch2.bracket(ei, ej))
                rhs = [
                    a + b
                    for a, b in zip(
                        sch2.bracket(D.apply(ei), ej), sch2.bracket(ei, D.apply(ej))
                    )
                ]
                assert list(lhs) == rhs


def test_inner_derivations_inside_derivations(sch2, sl2):
    der = derivation_space(sch2)
    inn = inner_derivations(sch2)
    assert inn.dim == sch2.dim - center(sch2).dim == 7
    for vec in inn.basis:
        assert der.contains(vec)
    assert inner_derivations(sl2).dim == 3


def test_outer_dimension_equals_first_adjoint_cohomology(sl2):
    for g, h1_dim in (
        (sl2, 0),
        (catalog.schrodinger(2), 2),
        (catalog.schrodinger(3), 4),
    ):
        outer = derivation_space(g).dim - inner_derivations(g).dim
        assert outer == h1_dim
        assert cohomology(g, adjoint_rep(g), 1).dim_cohomology == h1_dim


def test_subalgebra_extraction(sch2, sl2):
    sub = subalgebra_on_indices(sch2, (0, 1, 2))
    assert sub.labels == ("e", "f", "h")
    assert sub.structure == sl2.structure
    heis = subalgebra_on_indices(sch2, range(3, 8))
    assert heis.structure == catalog.heisenberg(2).structure
    with pytest.raises(NotASubalgebra):
        subalgebra_on_indices(sch2, (0, 5))  # [e, y1] = x1 leaves the span
    with pytest.raises(ValueError):
        subalgebra_on_indices(sch2, (0, 99))


def test_quotient_by_center_matches_catalog(sch2, g2):
    q = quotient(sch2, center(sch2))
    assert q.labels == g2.labels
    assert q.structure == g2.structure


def test_quotient_rejects_non_ideal(sl2):
    span_e = Subspace.from_vectors(3, [unit(3, 0)])
    with pytest.raises(NotAnIdeal) as exc:
        quotient(sl2, span_e)
    gen, vec = exc.value.witness
    assert 0 <= gen < 3 and vec == 0


def test_semidirect_rebuilds_catalog(sl2, sch2):
    from liecohom.catalog import _schrodinger_action

    built = semidirect(sl2, catalog.heisenberg(2), _schrodinger_action(2))
    assert built.structure == sch2.structure
    assert built.labels == sch2.labels


def test_semidirect_rejects_non_derivation(h1):
    # the identity is not a derivation of a nonabelian algebra
    with pytest.raises(ActionNotDerivation) as exc:
        semidirect(catalog.abelian(1), h1, [SparseMatrix.identity(3)])
    gen, pair = exc.value.witness
    assert gen == 0 and pair == (0, 1)


def test_semidirect_rejects_non_homomorphism(sl2):
    eye = SparseMatrix.identity(2)
    with pytest.raises(ActionNotHomomorphism):
        semidirect(sl2, catalog.abelian(2), [eye, eye, eye])


def test_json_round_trip(sch3, h2):
    for g in (sch3, h2):
        again = LieAlgebra.from_json_dict(g.to_json_dict())
        assert again == g


def test_from_json_rejects_malformed():
    base = catalog.sl2().to_json_dict()
    bad_order = dict(base, brackets=[{"left": 1, "right": 0, "result": [[2, "1"]]}])
    with pytest.raises(ValueError):
        LieAlgebra.from_json_dict(bad_order)
    dup = dict(
        base,
        brackets=[
            {"left": 0, "right": 1, "result": [[2, "1"]]},
            {"left": 0, "right": 1, "result": [[2, "2"]]},
        ],
    )
    with pytest.raises(ValueError):
        LieAlgebra.from_json_dict(dup)
    with pytest.raises(ValueError):
        LieAlgebra.from_json_dict({"basis": ["a"], "brackets": [{"left": 0}]})
    with pytest.raises(ValueError, match="basis"):
        LieAlgebra.from_json_dict({"basis": "ab"})
    with pytest.raises(ValueError, match="1/0"):
        LieAlgebra.from_json_dict(
            dict(base, brackets=[{"left": 0, "right": 1, "result": [[2, "1/0"]]}])
        )
