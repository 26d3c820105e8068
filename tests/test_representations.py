from fractions import Fraction

import pytest

from liecohom.exact_linalg import Subspace
from liecohom.invariants import InvariantSetup
from liecohom.lie_core import subalgebra_on_indices
from liecohom.representations import (
    Representation,
    adjoint_rep,
    trivial_rep,
    validate_rep,
)

from oracles import dense_apply, dense_bracket


def test_catalog_reps_validate(sl2, sch2, g2, h2):
    for g in (sl2, sch2, g2, h2):
        assert validate_rep(adjoint_rep(g)) is None
        assert validate_rep(trivial_rep(g, 3)) is None


def test_trivial_rep_is_zero(sl2):
    rep = trivial_rep(sl2, 4)
    assert rep.module_dim == 4
    assert all(a.is_zero() for a in rep.actions)
    assert rep.actions[0].apply({0: 1, 1: 2, 2: 3, 3: 4}) == {}


def test_adjoint_is_bracket(sch2):
    rep = adjoint_rep(sch2)
    u = tuple(range(1, 9))
    for i in range(sch2.dim):
        ei = tuple(Fraction(int(t == i)) for t in range(8))
        assert dense_apply(rep.actions[i], u) == dense_bracket(sch2, ei, u)


def test_validate_rep_catches_swap(sl2):
    adj = adjoint_rep(sl2)
    swapped = Representation(sl2, (adj.actions[1], adj.actions[0], adj.actions[2]))
    bad = validate_rep(swapped)
    assert bad is not None
    assert bad.pair == (0, 1)
    assert "module law fails" in str(bad)


def test_h_eigenvalues_on_adjoint(sch2):
    rep = adjoint_rep(sch2)
    h_action = rep.actions[2]
    diag = [h_action.entries.get((i, i), 0) for i in range(8)]
    assert diag == [2, -2, 0, 1, 1, -1, -1, 0]


def test_restrict_to_subalgebra(sch2, sl2):
    # a module restricts to the radical of a split as its radical_module
    rep = adjoint_rep(sch2)
    for module in (rep, trivial_rep(sch2, 2)):
        setup = InvariantSetup(sch2, (0, 1, 2), range(3, 8), module)
        sub = setup.radical_module
        assert sub.algebra is setup.radical_algebra
        assert sub.algebra.labels == ("x1", "x2", "y1", "y2", "z")
        assert sub.module_dim == module.module_dim
        assert validate_rep(sub) is None
        assert sub.actions == module.actions[3:]
    # every index: the module of the subalgebra on them, not the module itself
    whole = InvariantSetup(sch2, (), range(8), rep).radical_module
    assert whole.algebra == subalgebra_on_indices(sch2, range(8))
    assert whole.actions == rep.actions
    sl2_rep = adjoint_rep(sl2)
    unsorted = InvariantSetup(sl2, (), (2, 0, 1), sl2_rep).radical_module
    assert unsorted.algebra.labels == sl2.labels
    assert validate_rep(unsorted) is None
    assert unsorted.actions == sl2_rep.actions


def test_restrict_via_subspace(sch2):
    # the pivots of a coordinate-aligned subspace are its basis indices
    rep = adjoint_rep(sch2)
    aligned = Subspace.from_vectors(8, [{i: 1} for i in range(3, 8)])
    assert aligned.pivots == (3, 4, 5, 6, 7)
    sub = InvariantSetup(sch2, (0, 1, 2), aligned.pivots, rep).radical_module
    assert sub.algebra.dim == 5
    assert sub.algebra.labels == ("x1", "x2", "y1", "y2", "z")
    assert validate_rep(sub) is None
    assert sub.actions == rep.actions[3:]


def test_shape_errors(sl2):
    with pytest.raises(ValueError):
        Representation(sl2, [])
    with pytest.raises(ValueError):
        trivial_rep(sl2, -1)
    adj = adjoint_rep(sl2)
    with pytest.raises(ValueError):
        Representation(sl2, adj.actions[:2])
