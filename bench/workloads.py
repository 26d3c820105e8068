"""The benchmark's workloads: inputs made from a seed, the CLI invocations
that run them, and the checks that their outputs are correct.

Every workload is single-process and single-threaded and goes through the
public CLI entry point ``liecohom.cli.main`` exactly as a user would.

* ``verify-paper`` runs the claim table at ``--n-max 5``. It is the only
  workload that exercises the dense oracle, ``invariants`` and
  ``factorization``. Its input is the fixed claim table, so it is seedless.
* ``adjoint-reps`` computes H^3(sch_4, sch_4) with representatives: one
  large complex (d_3 is 5940 x 2640) on the kernel / column-space /
  ``Subspace`` path.
* ``rigidity-sweep`` computes H^1 and H^2 of sch_N with adjoint
  coefficients for N = 3..9: dimensions only, so the time goes to sparse
  rank and differential assembly, the other way round from adjoint-reps.

For the two seeded workloads the seed picks a permutation of the
Schroedinger basis (seed 0 is the identity); the permuted algebra is
written as algebra JSON and passed as ``file:PATH`` at every seed, so
set-up always takes the same parsing path. The algebra JSON is built here
from the structure constants, independently of ``liecohom.catalog``.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

# sha256 of json.dumps(payload["representatives"]) for adjoint-reps at seed
# 0, the identity basis: the "byte-identical representatives" gate.
ADJOINT_REPS_SHA256_SEED0 = (
    "c60232e33ab65838f1bc3d50827b1aff8c59c297df91504e46a1f87a5c5ddb99"
)


def schrodinger_structure(n: int) -> dict:
    """{(i, j): {k: c}} for sch_n in the catalog basis order
    (e, f, h, x_1..x_n, y_1..y_n, z), any index order allowed."""
    z = 2 * n + 3
    out = {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}}
    for i in range(1, n + 1):
        x, y = 2 + i, 2 + n + i
        out[(2, x)] = {x: 1}
        out[(2, y)] = {y: -1}
        out[(0, y)] = {x: 1}
        out[(1, x)] = {y: 1}
        out[(x, y)] = {z: 1}
    return out


def schrodinger_labels(n: int) -> list:
    return (["e", "f", "h"] + [f"x{i}" for i in range(1, n + 1)]
            + [f"y{i}" for i in range(1, n + 1)] + ["z"])


def basis_permutation(dim: int, seed: int, tag: str) -> list:
    """perm[old] = new basis position; the identity at seed 0."""
    perm = list(range(dim))
    if seed:
        random.Random(f"{tag}:{seed}").shuffle(perm)
    return perm


def permuted_brackets(structure: dict, perm: list) -> dict:
    """Rewrite {(i, j): {k: c}} in the permuted basis with left < right."""
    out: dict = {}
    for (i, j), comps in structure.items():
        a, b = perm[i], perm[j]
        sign = 1 if a < b else -1
        target = out.setdefault((min(a, b), max(a, b)), {})
        for k, c in comps.items():
            target[perm[k]] = target.get(perm[k], 0) + sign * c
    return out


def schrodinger_json(n: int, perm: list, name: str) -> dict:
    labels = schrodinger_labels(n)
    new_labels = [None] * len(labels)
    for old, new in enumerate(perm):
        new_labels[new] = labels[old]
    brackets = permuted_brackets(schrodinger_structure(n), perm)
    return {
        "name": name,
        "basis": new_labels,
        "brackets": [
            {"left": i, "right": j,
             "result": [[k, str(c)] for k, c in sorted(brackets[(i, j)].items())]}
            for (i, j) in sorted(brackets)
        ],
    }


def _write_algebra(directory, n: int, seed: int, tag: str) -> tuple:
    perm = basis_permutation(2 * n + 4, seed, f"{tag}:{n}")
    data = schrodinger_json(n, perm, f"sch_{n}-perm{seed}")
    path = directory / f"sch_{n}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
    return f"file:{path}", data


def _payload(output: dict):
    """The JSON payload of one invocation, or None when it is unreadable."""
    try:
        return json.loads(output["stdout"])["payload"]
    except (ValueError, KeyError, TypeError):
        return None


def _check_exit(checks: list, label: str, output: dict):
    checks.append((f"{label}: exit 0", output["exit"] == 0, output["exit"]))


# ------------------------------------------------------------ cocycle check


def _bracket_table(data: dict) -> dict:
    table: dict = {}
    for item in data["brackets"]:
        i, j = item["left"], item["right"]
        comps = {k: Fraction(c) for k, c in item["result"]}
        table[(i, j)] = comps
        table[(j, i)] = {k: -c for k, c in comps.items()}
    return table


def adjoint_coboundary_nonzero(data: dict, degree: int, serialized: str):
    """First (degree+1)-tuple where d(phi) is nonzero, or None for a cocycle.

    phi is a cochain in the CLI's sparse serialization with adjoint
    coefficients; d is the Chevalley-Eilenberg differential

      (d phi)(e_0..e_n) = sum_i (-1)^i [e_i, phi(.. omit i ..)]
          + sum_{i<j} (-1)^{i+j} phi([e_i, e_j], .. omit i, j ..)

    evaluated here directly from the bracket table, sharing no code with
    liecohom.
    """
    dim = len(data["basis"])
    br = _bracket_table(data)
    phi: dict = {}
    for idx, m, c in json.loads(serialized):
        phi.setdefault(tuple(idx), {})[m] = Fraction(c)

    def value(args: tuple) -> dict:
        """phi on an arbitrary tuple of basis indices, by antisymmetry."""
        if len(set(args)) < len(args):
            return {}
        order = sorted(range(len(args)), key=lambda p: args[p])
        inversions = sum(1 for a, b in combinations(order, 2) if a > b)
        comps = phi.get(tuple(args[p] for p in order), {})
        return {m: -c for m, c in comps.items()} if inversions % 2 else comps

    for J in combinations(range(dim), degree + 1):
        out: dict = {}
        for i in range(degree + 1):
            sign = -1 if i % 2 else 1
            for m, c in value(J[:i] + J[i + 1:]).items():
                for k, s in br.get((J[i], m), {}).items():
                    out[k] = out.get(k, 0) + sign * c * s
        for i, j in combinations(range(degree + 1), 2):
            sign = -1 if (i + j) % 2 else 1
            rest = J[:i] + J[i + 1:j] + J[j + 1:]
            for k, s in br.get((J[i], J[j]), {}).items():
                for m, c in value((k,) + rest).items():
                    out[m] = out.get(m, 0) + sign * s * c
        if any(out.values()):
            return J
    return None


# ---------------------------------------------------------------- workloads


class VerifyPaper:
    name = "verify-paper"
    seeded = False
    N_MAX = 5

    def prepare(self, seed: int, directory) -> dict:
        specs = ["sl2"] + [f"schrodinger:{n}" for n in range(2, self.N_MAX + 1)]
        specs += [f"schrodinger-quotient:{n}" for n in range(2, self.N_MAX + 1)]
        return {
            "specs": specs,
            "invocations": [
                ["verify-paper", "--n-max", str(self.N_MAX), "--format", "json"]
            ],
        }

    def check(self, job: dict, outputs: list) -> tuple:
        checks: list = []
        (out,) = outputs
        _check_exit(checks, "verify-paper", out)
        p = _payload(out) or {}
        rows = p.get("rows", [])
        got = (p.get("pass"), p.get("fail"), p.get("discrepancy"), len(rows))
        checks.append(("41 PASS / 3 FAIL / 1 DISCREPANCY of 45 rows",
                       got == (41, 3, 1, 45), got))
        tally = tuple(sum(r.get("status") == s for r in rows)
                      for s in ("PASS", "FAIL", "DISCREPANCY"))
        checks.append(("row statuses match the counts", tally == got[:3], tally))
        checks.append(("oracle_consistent", p.get("oracle_consistent") is True,
                       p.get("oracle_consistent")))
        return checks, {}


class AdjointReps:
    name = "adjoint-reps"
    seeded = True
    N = 4
    DEGREE = 3

    def prepare(self, seed: int, directory) -> dict:
        spec, data = _write_algebra(directory, self.N, seed, self.name)
        return {
            "seed": seed,
            "specs": [spec],
            "algebras": {spec: data},
            "invocations": [
                ["cohomology", spec, "--coeff", "adjoint", "--degree",
                 str(self.DEGREE), "--representatives", "--format", "json"]
            ],
        }

    def check(self, job: dict, outputs: list) -> tuple:
        checks: list = []
        (out,) = outputs
        _check_exit(checks, "cohomology", out)
        p = _payload(out) or {}
        dims = tuple(p.get(k) for k in ("dim_cochain", "dim_cocycles",
                                        "dim_coboundaries", "dim_cohomology"))
        checks.append(("dims C/Z/B/H = 2640/715/666/49",
                       dims == (2640, 715, 666, 49), dims))
        reps = p.get("representatives", [])
        checks.append(("49 representatives", len(reps) == 49, len(reps)))
        digest = hashlib.sha256(json.dumps(reps).encode()).hexdigest()
        if job["seed"] == 0:
            checks.append(("representatives sha256 at seed 0",
                           digest == ADJOINT_REPS_SHA256_SEED0, digest))
        (data,) = job["algebras"].values()
        try:
            bad = [w for w in (adjoint_coboundary_nonzero(data, self.DEGREE, r)
                               for r in reps) if w is not None]
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            bad = [f"unreadable representative: {exc}"]
        checks.append(("every representative is a cocycle", not bad, bad[:1]))
        return checks, {"representatives_sha256": digest,
                        "reps_emitted": len(reps)}


class RigiditySweep:
    name = "rigidity-sweep"
    seeded = True
    NS = range(3, 10)

    def prepare(self, seed: int, directory) -> dict:
        specs, invocations = [], []
        for n in self.NS:
            spec, _ = _write_algebra(directory, n, seed, self.name)
            specs.append(spec)
            for degree in (1, 2):
                invocations.append(["cohomology", spec, "--coeff", "adjoint",
                                    "--degree", str(degree), "--format", "json"])
        return {"seed": seed, "specs": specs, "invocations": invocations}

    def check(self, job: dict, outputs: list) -> tuple:
        checks: list = []
        for n, (o1, o2) in zip(self.NS, zip(outputs[::2], outputs[1::2])):
            _check_exit(checks, f"sch_{n} degree 1", o1)
            _check_exit(checks, f"sch_{n} degree 2", o2)
            p1, p2 = _payload(o1) or {}, _payload(o2) or {}
            dim = 2 * n + 4
            cochains = (p1.get("dim_cochain"), p2.get("dim_cochain"))
            checks.append((f"sch_{n}: dim C^1, C^2", cochains ==
                           (comb(dim, 1) * dim, comb(dim, 2) * dim), cochains))
            h1 = p1.get("dim_cohomology")
            checks.append((f"sch_{n}: H^1 = N(N-1)/2 + 1",
                           h1 == n * (n - 1) // 2 + 1, h1))
            h2 = p2.get("dim_cohomology")
            checks.append((f"sch_{n}: H^2 = 0", h2 == 0, h2))
            zb = (p2.get("dim_cocycles"), p2.get("dim_coboundaries"))
            checks.append((f"sch_{n}: dim Z^2 = dim B^2",
                           zb[0] is not None and zb[0] == zb[1], zb))
        return checks, {}


WORKLOADS = {w.name: w for w in (VerifyPaper(), AdjointReps(), RigiditySweep())}
