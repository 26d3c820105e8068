"""Command-line front end.

Subcommands expose the library operations one-to-one, plus verify-paper,
which recomputes the whole catalog of claimed cohomology dimensions for
the n-th Schroedinger algebra family and reports each claim as PASS,
FAIL, or DISCREPANCY (the latter for claims whose own stated values
conflict). Every numeric payload is exact; exit codes are 0 success,
1 usage error, 2 invalid input algebra, 3 internal consistency failure.

Each cmd_* returns (algebra description, payload, exit code); main times
it, wraps them in the report and prints it. verify-paper's oracle ranks
are memoised on their matrices by exact_linalg.certified_rank, not here.
"""

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from itertools import groupby

from . import catalog
from .exact_linalg import (
    SparseMatrix,
    certified_rank,
    kernel_basis,
    rank_dense,
    stacked,
)
from .lie_core import (
    LieAlgebra,
    center,
    derivation_space,
    inner_derivations,
)
from .representations import Representation, adjoint_rep, trivial_rep
from .cochain import (
    CochainSpace,
    cochain_dim,
    cohomology,
    differential,
    is_coboundary,
    is_cocycle,
)
from .invariants import (
    InvariantSetup,
    character_dims,
    invariant_cohomology,
    invariant_subcomplex_cohomology,
    invariant_subspace,
)
from .factorization import (
    ExtensionInput,
    NotACocycle,
    central_extension,
    hs_crosscheck,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_ALGEBRA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """A request the command line cannot satisfy as phrased."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _coeff_rep(g: LieAlgebra, coeff: str) -> Representation:
    if coeff == "trivial":
        return trivial_rep(g, 1)
    if coeff == "adjoint":
        return adjoint_rep(g)
    raise ValueError(f"unknown coefficient module {coeff!r}")


def _resolve_part(g: LieAlgebra, name: str, which: str) -> tuple:
    """Map a --levi/--radical argument to basis indices of g."""
    if name.startswith("indices:"):
        try:
            return tuple(int(t) for t in name[len("indices:"):].split(",") if t != "")
        except ValueError as exc:
            raise UsageError(f"bad index list {name!r}") from exc
    split = catalog.canonical_split(g)
    if split is None:
        raise UsageError(
            f"algebra {g.name or '(unnamed)'} has no canonical split; "
            f"pass --{which} indices:i,j,..."
        )
    levi, radical = split
    if name in ("sl2", "levi"):
        return levi
    if name in ("heisenberg", "abelian", "radical"):
        return radical
    raise UsageError(f"unknown {which} part {name!r}")


def _setup_from_args(args) -> InvariantSetup:
    g = catalog.resolve(args.ambient)
    levi = _resolve_part(g, args.levi, "levi")
    radical = _resolve_part(g, args.radical, "radical")
    module = _coeff_rep(g, args.coeff)
    return InvariantSetup(g, levi, radical, module)


def _degree(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be nonnegative")
    return args.degree


def _algebra_desc(spec: str, g: LieAlgebra, setup=None) -> dict:
    desc = {"spec": spec, "name": g.name, "dim": g.dim}
    if setup is not None:
        desc.update(levi=list(setup.levi), radical=list(setup.radical))
    return desc


def _flat(prefix: str, value, lines: list):
    if isinstance(value, dict):
        for k in value:
            _flat(f"{prefix}{k} ", value[k], lines)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append((prefix.strip(), " ".join(str(x) for x in value)))
        else:
            for i, item in enumerate(value):
                _flat(f"{prefix}[{i}] ", item, lines)
    else:
        lines.append((prefix.strip(), value))


def _print_table(report: dict):
    print(f"command: {report['command']}")
    alg = report["algebra"]  # a dict, or None for selftest
    if alg:
        print("algebra: " + " ".join(f"{k}={v}" for k, v in alg.items()))
    payload = report["payload"]
    rows = payload.get("rows")
    if rows is not None:
        headers = ["claim", "stated", "computed", "status"]
        table = [
            [r["claim"], str(r["stated"]), str(r["computed"]), r["status"]]
            for r in rows
        ]
        widths = [
            max(len(headers[c]), *(len(row[c]) for row in table)) if table else len(headers[c])
            for c in range(4)
        ]
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        print(line)
        print("-" * len(line))
        for r, row in zip(rows, table):
            print("  ".join(x.ljust(w) for x, w in zip(row, widths)))
            if r.get("note"):
                print(f"    note: {r['note']}")
        for k, v in payload.items():
            if k != "rows":
                print(f"{k}: {v}")
    else:
        lines: list = []
        for k, v in payload.items():
            _flat(f"{k} ", v, lines)
        for key, val in lines:
            print(f"{key}: {val}")
    print(f"elapsed: {report['elapsed']}")


# ---------------------------------------------------------------- commands


def cmd_info(args) -> tuple:
    g = catalog.resolve(args.algebra)  # refuses a table that is not Lie
    payload = {
        "dim": g.dim,
        "valid": True,
        "basis": list(g.labels),
        "center_dim": center(g).dim,
    }
    return _algebra_desc(args.algebra, g), payload, EXIT_OK


def _full_cohomology(g: LieAlgebra, rep: Representation, p: int):
    """cohomology(g, rep, p) with d_p and then d_{p-1} built and eliminated
    first: the representatives need them, and the dimensions then read
    their ranks instead of assembling weight-zero blocks as well. d_{p-1}
    is built only after d_p's elimination, which sets the peak memory."""
    differential(g, rep, p).rank()
    if p:
        differential(g, rep, p - 1).rank()
    return cohomology(g, rep, p)


def cmd_cohomology(args) -> tuple:
    g = catalog.resolve(args.algebra)
    rep = _coeff_rep(g, args.coeff)
    p = _degree(args)
    res = (_full_cohomology if args.representatives else cohomology)(g, rep, p)
    payload = dict(res.as_dict(), coefficients=args.coeff)
    if args.representatives:
        space = CochainSpace(g, rep, p)
        payload["representatives"] = [space.serialize(v) for v in res.representatives]
    return _algebra_desc(args.algebra, g), payload, EXIT_OK


def cmd_derivations(args) -> tuple:
    g = catalog.resolve(args.algebra)
    total = derivation_space(g).dim
    inner = inner_derivations(g).dim
    payload = {"total": total, "inner": inner, "outer": total - inner}
    return _algebra_desc(args.algebra, g), payload, EXIT_OK


def cmd_invariant_cohomology(args) -> tuple:
    setup = _setup_from_args(args)
    p = _degree(args)
    res = invariant_cohomology(setup, p)
    sub = invariant_subcomplex_cohomology(setup, p)
    consistent = sub == res.dim_cohomology
    payload = dict(
        res.as_dict(),
        coefficients=args.coeff,
        dim_invariant_cochains=invariant_subspace(setup, p).dim,
        subcomplex_dim_cohomology=sub,
        consistent=consistent,
    )
    if args.representatives:
        space = setup.cochain_space(p)
        payload["representatives"] = [space.serialize(v) for v in res.representatives]
    desc = _algebra_desc(args.ambient, setup.ambient, setup)
    return desc, payload, EXIT_OK if consistent else EXIT_INTERNAL


def cmd_extend(args) -> tuple:
    g = catalog.resolve(args.algebra)
    k = args.central_dims
    if k < 1:
        raise UsageError("--central-dims must be at least 1")
    triv = trivial_rep(g, k)
    space = CochainSpace(g, triv, 2)
    if args.cocycle_file is not None:
        try:
            with open(args.cocycle_file, "r", encoding="utf-8") as fh:
                phi = space.parse(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read cocycle file: {exc}") from exc
    else:
        if k != 1:
            raise UsageError("--central-dims > 1 requires --cocycle-file")
        res = _full_cohomology(g, triv, 2)
        if not res.representatives:
            raise UsageError(
                "second cohomology with trivial coefficients vanishes; "
                "supply --cocycle-file"
            )
        if not 0 <= args.index < len(res.representatives):
            raise UsageError(
                f"--index out of range, {len(res.representatives)} representatives"
            )
        phi = res.representatives[args.index]
    ext = central_extension(ExtensionInput(g, tuple(phi), k))
    payload = {
        "base_dim": g.dim,
        "extension_dim": ext.dim,
        "cocycle": space.serialize(phi),
        "valid": True,  # central_extension refuses a non-cocycle
        "algebra": ext.to_json_dict(),
    }
    return _algebra_desc(args.algebra, g), payload, EXIT_OK


def cmd_hs_check(args) -> tuple:
    setup = _setup_from_args(args)
    p = _degree(args)
    out = hs_crosscheck(setup, p)
    payload = {"degree": p, "coefficients": args.coeff, **out}
    return _algebra_desc(args.ambient, setup.ambient, setup), payload, EXIT_OK


# ------------------------------------------------------ verify-paper claims
#
# CLAIMS is the claim table in report order. A row is
#
#   (family, label, quantity, coefficients, degree, stated)
#
# family        (catalog constructor, n): n is None for sl2, "n" for every
#               n = 2..n_max, or a fixed int. Consecutive rows of one family
#               are evaluated on one algebra per n and share its modules and
#               invariant setups; a fixed-n family that an n-family also
#               reaches shares that n-family's algebra at n.
# label         a format string in n.
# quantity      "H": dim H^degree(g, M); "H+hs": the same, with the
#               factorized Hochschild-Serre sum as a note; "Z", "B":
#               dim Z^degree, B^degree of the sl2-invariant cochains on the
#               radical; "Der": dim Der(g); "cocycle": the stated cochain is
#               a cocycle and not a coboundary.
# stated        a value or a function of n giving one. None means no claim
#               at that n; a pair of (value, source) statements is a
#               conflict and reported as DISCREPANCY. For "cocycle" it is
#               the cochain, {labels in basis order: {value label: coeff}}.

SL2 = ("sl2", None)
SCH = ("schrodinger", "n")
QUO = ("schrodinger_mod_center", "n")

CLAIMS = (
    (SL2, "dim H^0(sl2, triv)", "H", "trivial", 0, 1),
    (SL2, "dim H^1(sl2, triv)", "H", "trivial", 1, 0),
    (SL2, "dim H^2(sl2, triv)", "H", "trivial", 2, 0),
    (SL2, "dim H^1(sl2, adj)", "H", "adjoint", 1, 0),
    (SL2, "dim H^2(sl2, adj)", "H", "adjoint", 2, 0),
    (SCH, "dim H^2(sch_{n}, triv)", "H", "trivial", 2,
     lambda n: (n - 1) * (n + 2) // 2),
    (SCH, "dim Z^2(h_{n}, triv)^sl2", "Z", "trivial", 2,
     lambda n: n * (n + 1) // 2),
    (SCH, "dim B^2(h_{n}, triv)^sl2", "B", "trivial", 2, 1),
    (SCH, "dim Z^2(h_{n}, sch_{n})^sl2", "Z", "adjoint", 2,
     lambda n: 4 if n == 2 else n * (n + 1) // 2),
    (SCH, "dim B^2(h_{n}, sch_{n})^sl2", "B", "adjoint", 2,
     lambda n: 3 if n == 2 else n * (n + 1) // 2),
    (SCH, "dim H^2(sch_{n}, sch_{n})", "H+hs", "adjoint", 2,
     lambda n: ((1, "n=2 proposition"), (2, "abstract")) if n == 2 else 0),
    (SCH, "dim Der(sch_{n})", "Der", None, None,
     lambda n: (2 * n + 3) + n * (n - 1) // 2 + 1),
    (SCH, "dim H^1(sch_{n}, sch_{n})", "H", "adjoint", 1,
     lambda n: n * (n - 1) // 2 + 1),
    (("schrodinger", 2), "sch_2 distinguished 2-cocycle", "cocycle", "adjoint", 2, {
        ("x1", "x2"): {"e": 2},
        ("y1", "y2"): {"f": -2},
        ("x1", "y2"): {"h": -1},
        ("x2", "y1"): {"h": 1},
        ("x1", "z"): {"x2": 3},
        ("y1", "z"): {"y2": 3},
        ("x2", "z"): {"x1": -3},
        ("y2", "z"): {"y1": -3},
    }),
    (QUO, "dim H^2(g_{n}, g_{n})", "H+hs", "adjoint", 2,
     lambda n: 1 if n == 2 else 0),
    (QUO, "dim Z^2(a, g_2)^sl2", "Z", "adjoint", 2, lambda n: 1 if n == 2 else None),
    (QUO, "dim B^2(a, g_2)^sl2", "B", "adjoint", 2, lambda n: 0 if n == 2 else None),
    (("schrodinger_mod_center", 2), "g_2 distinguished 2-cocycle", "cocycle",
     "adjoint", 2, {
        ("x1", "x2"): {"e": 2},
        ("y1", "y2"): {"f": -2},
        ("x1", "y2"): {"h": -1},
        ("x2", "y1"): {"h": 1},
    }),
)


# The oracles below recompute each number by a formulation of their own and
# take every rank from certified_rank, never from SparseMatrix.rank, so a
# wrong sparse rank shows as a mismatch; certified_rank memoises on the
# matrix, so a differential shared by rows is certified once. The Z and B
# rows read invariants.character_dims, weight counts and ranks, against the
# sparse path's kernel of the levi actions. bench/tracer.py targets
# _dense_h_dim by name, the one "dense" name left.
#
# The evaluator calls the oracles, _cocycle_claims, the catalog
# constructors and the library functions by their global names at call time
# and never stores them: bench/tracer.py counts calls by patching module
# globals, and a stored reference would escape it.


def _dense_h_dim(g: LieAlgebra, rep: Representation, p: int) -> int:
    dz = cochain_dim(g, rep, p) - certified_rank(differential(g, rep, p))
    db = 0 if p == 0 else certified_rank(differential(g, rep, p - 1))
    return dz - db


def _row(claim: str, stated, computed, status: str, note: str, oracle_ok: bool) -> dict:
    out = {
        "claim": claim,
        "stated": str(stated),
        "computed": str(computed),
        "status": status,
        "oracle_ok": oracle_ok,
    }
    if note:
        out["note"] = note
    return out


def _cocycle_claims(claim: str, g: LieAlgebra, rep: Representation, p: int,
                    table: dict) -> dict:
    """Row for a stated p-cochain claimed to be a cocycle and not a
    coboundary; the coboundary test is repeated as a rank test."""
    idx = {lab: i for i, lab in enumerate(g.labels)}
    psi = CochainSpace(g, rep, p).vector_of({
        (tuple(idx[a] for a in args), idx[value]): c
        for args, comps in table.items()
        for value, c in comps.items()
    })
    cocycle = is_cocycle(g, rep, p, psi)
    cobound = is_coboundary(g, rep, p, psi)
    # oracle for the membership test: ranks with and without psi, as a row
    # below the transpose of d_{p-1}
    dprev = differential(g, rep, p - 1)
    psi_row = SparseMatrix(1, dprev.rows, {(0, i): x for i, x in enumerate(psi) if x})
    dense_cobound = (certified_rank(stacked([dprev.transpose(), psi_row], dprev.rows))
                     == certified_rank(dprev))
    computed = ("cocycle" if cocycle else "not a cocycle") + (
        ", coboundary" if cobound else ", not a coboundary"
    )
    note = ""
    if not cocycle:
        image = differential(g, rep, p).apply(psi)
        first = next(i for i, x in enumerate(image) if x)
        T = CochainSpace(g, rep, p + 1).tuples[first // rep.module_dim]
        note = "d(psi) is nonzero, e.g. on (" + ", ".join(g.labels[t] for t in T) + ")"
    status = "PASS" if (cocycle and not cobound) else "FAIL"
    return _row(claim, "cocycle, not a coboundary", computed, status, note,
                cobound == dense_cobound)


class _Algebra:
    """One algebra of the claim table and what its rows share: its modules
    and invariant setups, which keep their invariant cohomology."""

    def __init__(self, build: str, n):
        make = getattr(catalog, build)
        self.n = n
        self.g = make() if n is None else make(n)
        self.modules, self.setups = {}, {}

    def module(self, coeff):
        if coeff not in self.modules:
            self.modules[coeff] = _coeff_rep(self.g, coeff)
        return self.modules[coeff]

    def setup(self, coeff):
        if coeff not in self.setups:
            self.setups[coeff] = InvariantSetup(
                self.g, *catalog.canonical_split(self.g), self.module(coeff))
        return self.setups[coeff]


def _algebra_rows(alg: _Algebra, claims: list) -> list:
    """Rows of one family on one algebra."""
    g, n, module, setup = alg.g, alg.n, alg.module, alg.setup
    rows = []
    for _, label, quantity, coeff, p, stated in claims:
        if callable(stated):
            stated = stated(n)
        if stated is None:
            continue
        label = label.format(n=n)
        if quantity == "cocycle":
            rows.append(_cocycle_claims(label, g, module(coeff), p, stated))
            continue
        conflict = isinstance(stated, tuple)
        note = ""
        if quantity in ("H", "H+hs"):
            # the oracle first: it builds d_p and d_{p-1}, so the sparse path
            # reads their ranks and not those of weight-zero blocks
            dense = _dense_h_dim(g, module(coeff), p)
            computed = cohomology(g, module(coeff), p).dim_cohomology
            if quantity == "H+hs" and not conflict:
                hs = hs_crosscheck(setup(coeff), p)
                note = f"factorized dim {hs['factorized']}, agree={hs['agree']}"
        elif quantity == "Der":
            computed = derivation_space(g).dim
            # Der(g) = Z^1(g, g), the kernel of the adjoint d_1, which the
            # H^1 and H^2 rows certify as well
            d1 = differential(g, module("adjoint"), 1)
            dense = g.dim * g.dim - certified_rank(d1)
        else:
            inv = invariant_cohomology(setup(coeff), p)
            _, z, b = character_dims(setup(coeff), p, certified_rank)
            computed, dense = ((inv.dim_cocycles, z) if quantity == "Z"
                               else (inv.dim_coboundaries, b))
        if conflict:
            status = "DISCREPANCY"
            note = f"stated values conflict; computation supports {computed}"
            stated = " vs ".join(f"{v} ({source})" for v, source in stated)
        else:
            status = "PASS" if computed == stated else "FAIL"
        if computed != dense:
            note = (note + "; " if note else "") + (
                f"INTERNAL: oracle got {dense}, sparse path {computed}"
            )
        rows.append(_row(label, stated, computed, status, note, computed == dense))
    return rows


def _verify_rows(n_max: int) -> list:
    """Evaluate CLAIMS in order, each n-family for n = 2..n_max. A fixed-n
    family that an n-family also reaches (sch_2, g_2) is evaluated on the
    algebra built for the n-family's rows; only those algebras are kept."""
    fixed = {family for family, *_ in CLAIMS if isinstance(family[1], int)}
    kept = {}
    rows = []
    for (build, n), claims in groupby(CLAIMS, key=lambda claim: claim[0]):
        claims = list(claims)
        for m in range(2, n_max + 1) if n == "n" else (n,):
            alg = kept.pop((build, m), None) or _Algebra(build, m)
            if n == "n" and (build, m) in fixed:
                kept[build, m] = alg
            rows += _algebra_rows(alg, claims)
    return rows


def cmd_verify_paper(args) -> tuple:
    if args.n_max < 2:
        raise UsageError("--n-max must be at least 2")
    rows = _verify_rows(args.n_max)
    oracle_ok = all(r["oracle_ok"] for r in rows)
    payload = {"rows": rows}
    for status in ("PASS", "FAIL", "DISCREPANCY"):
        payload[status.lower()] = sum(r["status"] == status for r in rows)
    payload["oracle_consistent"] = oracle_ok
    return {"n_max": args.n_max}, payload, EXIT_OK if oracle_ok else EXIT_INTERNAL


# ------------------------------------------------------------- selftest


def _random_sparse(rng, rows: int, cols: int) -> SparseMatrix:
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.25:
                v = rng.randint(-3, 3)
                if v:
                    ent[(r, c)] = Fraction(v)
    return SparseMatrix(rows, cols, ent)


def _permuted(g: LieAlgebra, perm: list) -> LieAlgebra:
    """g on its basis reordered: basis element i moves to position perm[i]."""
    structure = {}
    for (i, j), comps in g.structure.items():
        sign = 1 if perm[i] < perm[j] else -1
        structure[min(perm[i], perm[j]), max(perm[i], perm[j])] = {
            perm[k]: sign * c for k, c in comps.items()}
    labels = [None] * g.dim
    for i, label in enumerate(g.labels):
        labels[perm[i]] = label
    return LieAlgebra(labels, structure, name=g.name)


def _random_cochain(rng, dim: int) -> tuple:
    return tuple(
        Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
        for _ in range(dim)
    )


def cmd_selftest(args) -> tuple:
    for flag, count in (("--rank-trials", args.rank_trials),
                        ("--extension-trials", args.extension_trials)):
        if count < 0:
            raise UsageError(f"{flag} must be nonnegative")
    import random  # here only: no other command needs it

    rng = random.Random(args.seed)
    rank_failures = 0
    for _ in range(args.rank_trials):
        m = _random_sparse(rng, 30, 30)
        dense = rank_dense(m)
        if (m.rank() != dense or m.cols - kernel_basis(m).dim != dense
                or certified_rank(m) != dense):
            rank_failures += 1
    ext_failures = 0
    bases = [
        catalog.abelian(4),
        catalog.heisenberg(1),
        catalog.sl2(),
        catalog.schrodinger(2),
    ]
    for t in range(args.extension_trials):
        g = bases[t % len(bases)]
        triv = trivial_rep(g, 1)
        phi = _random_cochain(rng, cochain_dim(g, triv, 2))
        cocycle = is_cocycle(g, triv, 2, phi)
        try:
            central_extension(ExtensionInput(g, phi, 1))
            extended = True
        except NotACocycle:
            extended = False
        if extended != cocycle:
            ext_failures += 1
    # dimensions from weight-zero blocks against those of the full complex,
    # and invariant dimensions from the levi grading against verify-paper's
    # sl2-character oracles, on the basis in a random order
    wz_failures = 0
    for g in (catalog.sl2(), catalog.schrodinger(2), catalog.schrodinger(3),
              catalog.schrodinger_mod_center(2)):
        split = catalog.canonical_split(g)
        perm = list(range(g.dim))
        rng.shuffle(perm)
        g = _permuted(g, perm)
        for coeff in ("trivial", "adjoint"):
            for p in range(4):
                blocks = cohomology(g, _coeff_rep(g, coeff), p).as_dict()
                full = _full_cohomology(g, _coeff_rep(g, coeff), p).as_dict()
                wz_failures += blocks != full
            if split is None:
                continue
            levi, radical = ([perm[i] for i in part] for part in split)
            s = InvariantSetup(g, levi, radical, _coeff_rep(g, coeff))
            for p in range(4):
                inv = invariant_cohomology(s, p)
                wz_failures += ((invariant_subspace(s, p).dim, inv.dim_cocycles,
                                 inv.dim_coboundaries)
                                != character_dims(s, p, certified_rank))
    ok = rank_failures == 0 and ext_failures == 0 and wz_failures == 0
    payload = {
        "seed": args.seed,
        "rank_trials": args.rank_trials,
        "rank_failures": rank_failures,
        "extension_trials": args.extension_trials,
        "extension_failures": ext_failures,
        "weight_zero_failures": wz_failures,
        "ok": ok,
    }
    return None, payload, EXIT_OK if ok else EXIT_INTERNAL


# ------------------------------------------------------------------ main


@functools.cache  # built on the first main call, then reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="liecohom",
        description="Exact Lie algebra cohomology over the rationals",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default table)",
        )

    p = sub.add_parser("info", help="dimension, validity, center of an algebra")
    p.add_argument("algebra", help="catalog spec or file:PATH")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("cohomology", help="full-complex cohomology dimensions")
    p.add_argument("algebra")
    p.add_argument("--coeff", choices=("trivial", "adjoint"), required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--representatives", action="store_true")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("derivations", help="derivation algebra dimensions")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser(
        "invariant-cohomology",
        help="cohomology of invariant cochains on the radical",
    )
    p.add_argument("--ambient", required=True)
    p.add_argument("--levi", default="levi")
    p.add_argument("--radical", default="radical")
    p.add_argument("--coeff", choices=("trivial", "adjoint"), required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--representatives", action="store_true")
    common(p)
    p.set_defaults(func=cmd_invariant_cohomology)

    p = sub.add_parser("extend", help="central extension by a trivial 2-cocycle")
    p.add_argument("algebra")
    p.add_argument("--cocycle-file", default=None)
    p.add_argument("--index", type=int, default=0,
                   help="which cohomology representative to extend by")
    p.add_argument("--central-dims", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("hs-check", help="direct vs factorized cohomology dimension")
    p.add_argument("--ambient", required=True)
    p.add_argument("--levi", default="levi")
    p.add_argument("--radical", default="radical")
    p.add_argument("--coeff", choices=("trivial", "adjoint"), default="adjoint")
    p.add_argument("--degree", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_hs_check)

    p = sub.add_parser(
        "verify-paper",
        help="recompute every claimed dimension and report PASS/FAIL/DISCREPANCY",
    )
    p.add_argument("--n-max", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("selftest", help="randomized consistency suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank-trials", type=int, default=100)
    p.add_argument("--extension-trials", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        algebra, payload, code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ALGEBRA
    report = {
        "command": args.cmd,
        "algebra": algebra,
        "payload": payload,
        "elapsed": f"{time.monotonic() - started:.3f}s",
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_table(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
