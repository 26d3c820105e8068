"""Acceptance criteria, one test per criterion.

Each test produces a single "criterion NN: PASS/FAIL" line (echoed in
the terminal summary, past the capture plugin) and then asserts.
Criteria are asserted exactly as stated; where the computation
contradicts a stated value the test fails and says why, it does not
soften the claim.
"""

import json
import random
import time
from fractions import Fraction

from liecohom import catalog
from liecohom.cli import main as cli_main
from liecohom.cochain import (
    CochainSpace,
    cochain_dim,
    cohomology,
    differential,
    is_coboundary,
    is_cocycle,
)
from liecohom.exact_linalg import SparseMatrix, rank_dense
from liecohom.factorization import ExtensionInput, NotACocycle, central_extension, hs_crosscheck
from liecohom.invariants import InvariantSetup, cochain_action, invariant_cohomology
from liecohom.lie_core import derivation_space, inner_derivations
from liecohom.representations import adjoint_rep, trivial_rep

from conftest import ACCEPTANCE_LINES
from oracles import permute_algebra, sparse


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def adjoint_setup(g):
    levi, radical = catalog.canonical_split(g)
    return InvariantSetup(g, levi, radical, adjoint_rep(g))


def trivial_setup(g):
    levi, radical = catalog.canonical_split(g)
    return InvariantSetup(g, levi, radical, trivial_rep(g, 1))


PSI_SCH2 = {
    ((3, 4), 0): 2, ((5, 6), 1): -2, ((3, 6), 2): -1, ((4, 5), 2): 1,
    ((3, 7), 4): 3, ((5, 7), 6): 3, ((4, 7), 3): -3, ((6, 7), 5): -3,
}

PSI_G2 = {((3, 4), 0): 2, ((5, 6), 1): -2, ((3, 6), 2): -1, ((4, 5), 2): 1}


def test_criterion_01_trivial_h2_formula():
    details = []
    ok = True
    for n, expected in ((2, 2), (3, 5), (4, 9)):
        g = catalog.schrodinger(n)
        started = time.monotonic()
        got = cohomology(g, trivial_rep(g, 1), 2).dim_cohomology
        elapsed = time.monotonic() - started
        ok = ok and got == expected and elapsed < 30
        details.append(f"n={n}: {got} ({elapsed:.2f}s)")
    report(1, ok, "dim H^2(sch_n, triv) = (n-1)(n+2)/2; " + ", ".join(details))


def test_criterion_02_trivial_invariant_counts():
    ok = True
    details = []
    for n in (2, 3, 4):
        res = invariant_cohomology(trivial_setup(catalog.schrodinger(n)), 2)
        want_z = n * (n + 1) // 2
        ok = ok and res.dim_cocycles == want_z and res.dim_coboundaries == 1
        details.append(f"n={n}: Z={res.dim_cocycles}, B={res.dim_coboundaries}")
    report(2, ok, "invariant Z = n(n+1)/2 and B = 1 behind the formula; " + ", ".join(details))


def test_criterion_03_adjoint_vanishing():
    ok = True
    details = []
    for n in (3, 4):
        g = catalog.schrodinger(n)
        started = time.monotonic()
        direct = cohomology(g, adjoint_rep(g), 2).dim_cohomology
        hs = hs_crosscheck(adjoint_setup(g), 2)
        elapsed = time.monotonic() - started
        ok = ok and direct == 0 and hs["agree"] and hs["factorized"] == 0
        ok = ok and elapsed < 60
        details.append(
            f"n={n}: direct={direct}, factorized={hs['factorized']} ({elapsed:.2f}s)"
        )
    report(3, ok, "H^2(sch_n, sch_n) = 0 for n=3,4 directly and factorized; " + ", ".join(details))


def test_criterion_04_adjoint_invariant_counts():
    ok = True
    details = []
    for n in (3, 4):
        res = invariant_cohomology(adjoint_setup(catalog.schrodinger(n)), 2)
        want = n * (n + 1) // 2
        ok = ok and res.dim_cocycles == want and res.dim_coboundaries == want
        details.append(f"n={n}: Z={res.dim_cocycles}, B={res.dim_coboundaries}")
    report(4, ok, "adjoint invariant Z = B = n(n+1)/2 for n=3,4; " + ", ".join(details))


def test_criterion_05_sch2_adjudication(capsys):
    g = catalog.schrodinger(2)
    adj = adjoint_rep(g)
    d2 = differential(g, adj, 2)
    d1 = differential(g, adj, 1)
    dim_c = cochain_dim(g, adj, 2)
    sparse_h = dim_c - d2.rank() - d1.rank()
    dense_h = dim_c - rank_dense(d2) - rank_dense(d1)
    res = invariant_cohomology(adjoint_setup(g), 2)
    code = cli_main(["verify-paper", "--n-max", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    rows = {r["claim"]: r for r in payload["rows"]}
    disc = rows.get("dim H^2(sch_2, sch_2)", {})
    ok = (
        sparse_h == dense_h == 1
        and code == 0
        and disc.get("status") == "DISCREPANCY"
        and "supports 1" in disc.get("note", "")
        and res.dim_cocycles == 4
        and res.dim_coboundaries == 3
    )
    report(
        5,
        ok,
        f"computed dim H^2(sch_2, sch_2) = {sparse_h}, dense oracle {dense_h}, "
        f"discrepancy row status {disc.get('status')}, "
        f"invariant Z = {res.dim_cocycles}, B = {res.dim_coboundaries}",
    )


def test_criterion_06_distinguished_cocycles():
    g = catalog.schrodinger(2)
    adj = adjoint_rep(g)
    psi = CochainSpace(g, adj, 2).vector_of(PSI_SCH2)
    sch2_ok = is_cocycle(g, adj, 2, psi) and not is_coboundary(g, adj, 2, psi)
    q = catalog.schrodinger_mod_center(2)
    qadj = adjoint_rep(q)
    psi_q = CochainSpace(q, qadj, 2).vector_of(PSI_G2)
    g2_cocycle = is_cocycle(q, qadj, 2, psi_q)
    g2_ok = g2_cocycle and not is_coboundary(q, qadj, 2, psi_q)
    detail = f"sch_2 cocycle-and-not-coboundary: {sch2_ok}; g_2 likewise: {g2_ok}"
    if not g2_cocycle:
        detail += " (d(psi) is nonzero on (x1, x2, y1): the stated g_2 cocycle is not closed)"
    report(6, sch2_ok and g2_ok, detail)


def test_criterion_07_quotient_cohomology():
    parts = []
    ok = True
    for n in (3, 4):
        q = catalog.schrodinger_mod_center(n)
        got = cohomology(q, adjoint_rep(q), 2).dim_cohomology
        ok = ok and got == 0
        parts.append(f"H^2(g_{n}) = {got}")
    q2 = catalog.schrodinger_mod_center(2)
    got2 = cohomology(q2, adjoint_rep(q2), 2).dim_cohomology
    res = invariant_cohomology(adjoint_setup(q2), 2)
    ok = ok and got2 == 1 and res.dim_cocycles == 1 and res.dim_coboundaries == 0
    parts.append(
        f"H^2(g_2) = {got2} (stated 1), invariant Z = {res.dim_cocycles} (stated 1), "
        f"B = {res.dim_coboundaries} (stated 0)"
    )
    report(7, ok, "; ".join(parts))


def test_criterion_08_derivations():
    ok = True
    details = []
    for n, total in ((2, 9), (3, 13), (4, 18)):
        g = catalog.schrodinger(n)
        der = derivation_space(g).dim
        inn = inner_derivations(g).dim
        h1 = cohomology(g, adjoint_rep(g), 1).dim_cohomology
        ok = ok and der == total and der - inn == h1
        details.append(f"n={n}: Der={der}, outer={der - inn}, H^1={h1}")
    report(8, ok, "dim Der = (2n+3) + n(n-1)/2 + 1 and outer = H^1(adj); " + ", ".join(details))


def test_criterion_09_whitehead():
    s = catalog.sl2()
    triv = trivial_rep(s, 1)
    adj = adjoint_rep(s)
    vals = (
        cohomology(s, triv, 0).dim_cohomology,
        cohomology(s, triv, 1).dim_cohomology,
        cohomology(s, triv, 2).dim_cohomology,
        cohomology(s, adj, 1).dim_cohomology,
        cohomology(s, adj, 2).dim_cohomology,
    )
    ok = vals == (1, 0, 0, 0, 0)
    report(9, ok, f"(H^0, H^1, H^2 trivial; H^1, H^2 adjoint) = {vals}")


def test_criterion_10_property_suites():
    ok = True
    notes = []

    # d compose d vanishes on every catalog algebra, both modules, n <= 2
    algebras = [
        catalog.sl2(),
        catalog.heisenberg(1),
        catalog.heisenberg(2),
        catalog.schrodinger(2),
        catalog.schrodinger(3),
        catalog.schrodinger_mod_center(2),
        catalog.schrodinger_mod_center(3),
        catalog.abelian(3),
    ]
    dd_ok = True
    for g in algebras:
        for rep in (trivial_rep(g, 1), adjoint_rep(g)):
            for n in range(0, 3):
                if not (differential(g, rep, n + 1) @ differential(g, rep, n)).is_zero():
                    dd_ok = False
    ok = ok and dd_ok
    notes.append(f"d.d=0: {dd_ok}")

    # levi action commutes with the differential
    setup = adjoint_setup(catalog.schrodinger(2))
    r, M = setup.radical_algebra, setup.radical_module
    comm_ok = True
    for n in (0, 1, 2):
        dn = differential(r, M, n)
        for small, big in zip([cochain_action(setup, li, n) for li in setup.levi],
                              [cochain_action(setup, li, n + 1) for li in setup.levi]):
            if (dn @ small) != (big @ dn):
                comm_ok = False
    ok = ok and comm_ok
    notes.append(f"equivariance: {comm_ok}")

    # extension validates iff cocycle, 200 randomized trials, fixed seed
    rng = random.Random(20250819)
    bases = [catalog.abelian(4), catalog.heisenberg(1), catalog.sl2(), catalog.schrodinger(2)]
    ext_ok = True
    for trial in range(200):
        g = bases[trial % len(bases)]
        triv = trivial_rep(g, 1)
        dim = cochain_dim(g, triv, 2)
        phi = sparse(
            rng.randint(-2, 2) if rng.random() < 0.3 else 0
            for _ in range(dim)
        )
        closed = not differential(g, triv, 2).apply(phi)
        try:
            central_extension(ExtensionInput(g, phi, 1))
            built = True
        except NotACocycle:
            built = False
        if built != closed:
            ext_ok = False
    ok = ok and ext_ok
    notes.append(f"extension iff cocycle (200 trials): {ext_ok}")

    # sparse rank vs dense oracle on 100 random matrices
    rank_ok = True
    for _ in range(100):
        ent = {}
        for rr in range(30):
            for cc in range(30):
                if rng.random() < 0.25:
                    v = rng.randint(-3, 3)
                    if v:
                        ent[(rr, cc)] = Fraction(v)
        m = SparseMatrix(30, 30, ent)
        if m.rank() != rank_dense(m):
            rank_ok = False
    ok = ok and rank_ok
    notes.append(f"rank oracle (100 matrices): {rank_ok}")

    # permutation invariance of all cohomology dimensions, sch2 and sch3
    perm_ok = True
    for g in (catalog.schrodinger(2), catalog.schrodinger(3)):
        perm = list(range(g.dim))
        rng.shuffle(perm)
        shuffled = permute_algebra(g, perm)
        for make in ("trivial", "adjoint"):
            rep_a = trivial_rep(g, 1) if make == "trivial" else adjoint_rep(g)
            rep_b = trivial_rep(shuffled, 1) if make == "trivial" else adjoint_rep(shuffled)
            for n in (0, 1, 2):
                if (
                    cohomology(g, rep_a, n).dim_cohomology
                    != cohomology(shuffled, rep_b, n).dim_cohomology
                ):
                    perm_ok = False
    ok = ok and perm_ok
    notes.append(f"permutation invariance: {perm_ok}")

    report(10, ok, "; ".join(notes))
