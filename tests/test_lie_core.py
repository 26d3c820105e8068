import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecohom import catalog
from liecohom.cochain import cohomology, differential
from liecohom.exact_linalg import (
    SparseMatrix,
    Subspace,
    certified_rank,
    kernel_basis,
    stacked,
)
from liecohom.lie_core import (
    ActionNotDerivation,
    ActionNotHomomorphism,
    LieAlgebra,
    NotAnIdeal,
    NotASubalgebra,
    _leibniz_system,
    ad_matrices,
    center,
    derivation_space,
    inner_derivations,
    quotient,
    semidirect,
    subalgebra_on_indices,
)
from liecohom.representations import adjoint_rep

from oracles import (
    dense_apply,
    dense_bracket,
    naive_jacobi,
    permute_algebra,
    reference_leibniz_system,
    rescale_basis,
)

coords = st.lists(st.integers(-3, 3), min_size=8, max_size=8)


def unit(dim, i):
    return tuple(Fraction(int(t == i)) for t in range(dim))


def bracket(ads, u, v):
    """[u, v] = sum over i of u_i (ad b_i) v, read through ad_matrices."""
    out = [Fraction(0)] * len(v)
    for ui, ad in zip(u, ads):
        if ui:
            out = [a + ui * b for a, b in zip(out, dense_apply(ad, v))]
    return tuple(out)


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


@given(
    st.sampled_from(["sl2", "heisenberg:1", "schrodinger:2", "schrodinger-quotient:2"]),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99),
                  st.fractions(-3, 3, max_denominator=3)),
        max_size=3,
    ),
)
def test_validate_matches_naive_jacobi(spec, changes):
    """Overwrite a few structure constants at random; validate must give
    the naive oracle's first failing triple and dense residual."""
    g = catalog.resolve(spec)
    structure = {key: dict(row) for key, row in g.structure.items()}
    for a, b, k, c in changes:
        i, j = sorted((a % g.dim, b % g.dim))
        if i != j:
            structure.setdefault((i, j), {})[k % g.dim] = c
    perturbed = LieAlgebra(g.labels, structure)
    violation = perturbed.validate()
    expected = naive_jacobi(perturbed)
    if expected is None:
        assert violation is None
    else:
        assert (violation.triple, violation.residual) == expected
        assert all(type(x) is Fraction for x in violation.residual)


def test_validate_signs_the_term_whose_third_index_is_inside_the_pair():
    # [b_0, b_2] = b_3 and [b_1, b_3] = b_3: at (0,1,2) the only nonzero term
    # is [[b_2, b_0], b_1], whose third index lies between the pair's
    bad = LieAlgebra("abcd", {(0, 2): {3: 1}, (1, 3): {3: 1}})
    violation = bad.validate()
    assert (violation.triple, violation.residual) == ((0, 1, 2), (0, 0, 0, 1))
    assert naive_jacobi(bad) == ((0, 1, 2), (0, 0, 0, 1))


def test_validate_reports_the_smallest_of_several_failing_triples():
    # the same defect on b_4..b_7 (stored first) and on b_0..b_3
    late = {(4, 6): {7: 1}, (5, 7): {7: 1}}
    assert LieAlgebra("abcdefgh", late).validate().triple == (4, 5, 6)
    bad = LieAlgebra("abcdefgh", {**late, (0, 2): {3: 1}, (1, 3): {3: 1}})
    violation = bad.validate()
    assert violation.triple == (0, 1, 2)
    assert (violation.triple, violation.residual) == naive_jacobi(bad)


def test_validate_cost_follows_the_brackets_not_the_dimension():
    g = LieAlgebra([f"a{i}" for i in range(400)], {})  # C(400, 3) = 10.6M triples
    started = time.perf_counter()
    assert g.validate() is None
    assert time.perf_counter() - started < 5


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
    ads = ad_matrices(catalog.schrodinger(2))
    assert bracket(ads, u, u) == tuple([0] * len(u))
    lhs = bracket(ads, u, v)
    rhs = bracket(ads, v, u)
    assert lhs == tuple(-x for x in rhs)
    two_u = [2 * x for x in u]
    assert bracket(ads, two_u, v) == tuple(2 * x for x in lhs)


@given(coords, coords, coords)
def test_jacobi_on_vectors(u, v, w):
    ads = ad_matrices(catalog.schrodinger(2))
    total = [
        a + b + c
        for a, b, c in zip(
            bracket(ads, u, bracket(ads, v, w)),
            bracket(ads, v, bracket(ads, w, u)),
            bracket(ads, w, bracket(ads, u, v)),
        )
    ]
    assert not any(total)


def test_ad_matrix_matches_bracket(sl2, sch2):
    # a rescaled basis has denominators; the permuted sch_3 stores its
    # brackets out of key order
    permuted = permute_algebra(catalog.schrodinger(3), [4, 9, 0, 7, 2, 5, 8, 1, 6, 3])
    assert list(permuted.structure) != sorted(permuted.structure)
    for g in (sl2, sch2, catalog.resolve("schrodinger-quotient:3"),
              rescale_basis(sch2, 3, Fraction(2, 3)), permuted):
        ads = ad_matrices(g)
        assert len(ads) == g.dim
        for i, ad in enumerate(ads):
            assert (ad.rows, ad.cols) == (g.dim, g.dim)
            for j in range(g.dim):
                e_i, e_j = unit(g.dim, i), unit(g.dim, j)
                assert dense_apply(ad, e_j) == dense_bracket(g, e_i, e_j), (g.name, i, j)


def test_center_dims(sl2, h2, sch3):
    assert center(sl2).dim == 0
    assert center(h2).dim == 1
    assert center(h2).contains({4: 1})
    assert center(sch3).dim == 1
    assert center(sch3).contains({9: 1})
    assert center(catalog.abelian(4)).dim == 4


def test_derivation_counts(sl2):
    assert derivation_space(sl2).dim == 3
    assert derivation_space(catalog.abelian(3)).dim == 9
    for n, expected in ((2, 9), (3, 13), (4, 18)):
        assert derivation_space(catalog.schrodinger(n)).dim == expected


def test_integer_leibniz_system_matches_the_fraction_assembly():
    # x_1 of sch_2 rescaled by 2/3 and read back from its file text: the
    # structure denominators make den = 6, the path with row denominators
    scaled = catalog.parse_algebra(catalog.serialize(
        rescale_basis(catalog.schrodinger(2), 3, Fraction(2, 3))))
    algebras = [catalog.sl2(), catalog.abelian(3), catalog.heisenberg(2),
                *(catalog.schrodinger(n) for n in (2, 3, 4)),
                catalog.schrodinger_mod_center(3), scaled]
    for g in algebras:
        m, ref = _leibniz_system(g), reference_leibniz_system(g)
        assert m == ref and m._dens == ref._dens, g.name
        # Der(g) = Z^1(g, g): the adjoint d_1 gives the same dimension
        d1 = differential(g, adjoint_rep(g), 1)
        assert derivation_space(g).dim == g.dim ** 2 - certified_rank(d1), g.name
    assert _leibniz_system(scaled)._dens


def test_derivations_satisfy_leibniz(sch2):
    dim = sch2.dim
    rows = derivation_space(sch2).rows
    assert len(rows) == 9
    for row in rows:
        D = SparseMatrix(dim, dim, {divmod(idx, dim): v for idx, v in row.items()})
        for i in range(dim):
            for j in range(i + 1, dim):
                ei, ej = unit(dim, i), unit(dim, j)
                lhs = dense_apply(D, dense_bracket(sch2, ei, ej))
                rhs = [
                    a + b
                    for a, b in zip(
                        dense_bracket(sch2, dense_apply(D, ei), ej),
                        dense_bracket(sch2, ei, dense_apply(D, ej)),
                    )
                ]
                assert lhs == rhs


def test_inner_derivations_inside_derivations(sch2, sl2):
    der = derivation_space(sch2)
    inn = inner_derivations(sch2)
    assert inn.dim == sch2.dim - center(sch2).dim == 7
    for vec in inn.rows:
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


def test_quotient_names_the_smallest_failing_row_and_generator(sch2):
    # [f, x1] = y1 leaves span(x1); the first stored failing bracket is
    # [x1, y1] = z, so a reading in stored order would name (5, 0)
    assert sch2.labels[1] == "f" and sch2.labels[3] == "x1"
    with pytest.raises(NotAnIdeal) as exc:
        quotient(sch2, Subspace.from_vectors(8, [unit(8, 3)]))
    assert exc.value.witness == (1, 0)
    # span(b, c) with [a, c] = d: row 0 (b) is central, only row 1 (c) fails
    g = LieAlgebra("abcd", {(0, 2): {3: 1}})
    with pytest.raises(NotAnIdeal) as exc:
        quotient(g, Subspace.from_vectors(4, [unit(4, 1), unit(4, 2)]))
    assert exc.value.witness == (0, 1)


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
    with pytest.raises(ActionNotHomomorphism) as exc:
        semidirect(sl2, catalog.abelian(2), [eye, eye, eye])
    assert exc.value.witness == (0, 1)


def test_semidirect_classifies_perturbed_schrodinger_actions(sl2):
    from liecohom.catalog import _schrodinger_action

    e, f, h = _schrodinger_action(2)
    h2 = catalog.heisenberg(2)
    e_to_z = SparseMatrix(5, 5, {**e.entries, (4, 0): Fraction(1)})  # e.x1 gains z
    twice_h = SparseMatrix(5, 5, {k: 2 * v for k, v in h.entries.items()})
    for action, witness in (([e_to_z, f, h], (0, 2)), ([e, f, twice_h], (0, 1))):
        with pytest.raises(ActionNotHomomorphism) as exc:
            semidirect(sl2, h2, action)
        assert exc.value.witness == witness
    # the defining representation on span(x1, z) respects the bracket of
    # sl2 but is no derivation: e.z = x1 while [e.x1, y1] + [x1, e.y1] = 0
    on_x1_z = [SparseMatrix(5, 5, {(0, 4): 1}), SparseMatrix(5, 5, {(4, 0): 1}),
               SparseMatrix(5, 5, {(0, 0): 1, (4, 4): -1})]
    with pytest.raises(ActionNotDerivation) as exc:
        semidirect(sl2, h2, on_x1_z)
    assert exc.value.witness == (0, (0, 2))


def test_semidirect_reports_a_non_lie_part_as_plain_value_error():
    # [a, b] = b, [a, c] = c, [b, c] = a is not Lie; zero actions satisfy both laws
    bad = LieAlgebra("abc", {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}})
    assert bad.validate() is not None
    zero = SparseMatrix.zero(3, 3)
    with pytest.raises(ValueError, match="violates Jacobi"):
        semidirect(catalog.abelian(1), bad, [zero])


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


def test_center_reads_the_stored_brackets(monkeypatch):
    # the center, the adjoint module, the inner derivations and the quotient
    # read the stored brackets, not pairwise bracket_basis calls (90,000,
    # 90,000, 90,000 and 44,851 at 300 labels when they probed)
    catalog_algebras = [catalog.sl2(), catalog.heisenberg(2), catalog.schrodinger(3),
                        catalog.schrodinger_mod_center(3), catalog.abelian(3)]
    calls = []
    bracket_basis = LieAlgebra.bracket_basis

    def counted(g, i, j):
        calls.append((i, j))
        return bracket_basis(g, i, j)

    monkeypatch.setattr(LieAlgebra, "bracket_basis", counted)
    wide = LieAlgebra([f"a{i}" for i in range(300)], {(0, 1): {2: 1}})
    assert center(wide).dim == 298
    assert adjoint_rep(wide).module_dim == 300
    assert inner_derivations(wide).dim == 2
    q = quotient(wide, Subspace.from_vectors(300, [unit(300, 299)]))
    assert q.dim == 299 and q.structure == wide.structure
    assert calls == []
    for g in catalog_algebras:
        # the reference ad matrices from pairwise bracket_basis calls
        ads = [SparseMatrix(g.dim, g.dim, {(k, j): c for j in range(g.dim)
                                           for k, c in g.bracket_basis(i, j).items()})
               for i in range(g.dim)]
        ad = kernel_basis(stacked(ads, g.dim))
        got = center(g)
        assert (got.rows, got.pivots) == (ad.rows, ad.pivots)
