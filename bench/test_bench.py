"""The benchmark's own tests; no time is pinned. From the repository root:

    python3 -m pytest -p no:cacheprovider bench

test_traced_run runs every workload traced (a few minutes in all).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from liecohom import catalog  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer counters that must be nonzero on the workload they are mapped
# to. invariants.subcomplex is reported but reached by none of the three:
# only the invariant-cohomology subcommand calls
# invariant_subcomplex_cohomology, and verify-paper does not.
REACHED = {
    "verify-paper": [
        "exact_linalg.rank_dense.calls", "exact_linalg.rank_dense.cells",
        "exact_linalg.intersect.calls", "cochain.cohomology.calls",
        "cochain.extend_echelon.reps_computed",
        "invariants.cochain_action.calls", "invariants.invariant_subspace.calls",
        "invariants.invariant_cohomology.calls",
        "factorization.hs_crosscheck.calls", "lie_core.derivation_space.calls",
        "cli.oracle.calls", "catalog.resolve.calls",
    ],
    "adjoint-reps": [
        "exact_linalg.kernel_basis.calls", "exact_linalg.kernel_basis.kernel_dim",
        "exact_linalg.column_space.calls", "exact_linalg.column_space.dense_cells",
        "exact_linalg.from_vectors.calls", "exact_linalg.from_vectors.vectors_in",
        "exact_linalg.from_vectors.dim_out", "cochain.cohomology.calls",
        "cochain.extend_echelon.reps_computed", "cli.reps_emitted",
        "catalog.resolve.calls",
    ],
    "rigidity-sweep": [
        "exact_linalg.rank.calls", "exact_linalg.rank.nnz_in",
        "exact_linalg.rank.cells", "cochain.differential.calls",
        "cochain.differential.cache_hits", "cochain.differential.nnz_out",
        "cochain.cohomology.calls", "catalog.resolve.calls",
    ],
}


def test_identity_input_is_the_catalog_algebra():
    for n in range(2, 10):
        data = workloads.schrodinger_json(n, list(range(2 * n + 4)), "x")
        ref = catalog.schrodinger(n).to_json_dict()
        assert (data["basis"], data["brackets"]) == (ref["basis"], ref["brackets"])


@pytest.mark.parametrize("name", ["adjoint-reps", "rigidity-sweep"])
def test_seeded_inputs_repeat_and_are_valid(tmp_path, name):
    texts = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        job = workloads.WORKLOADS[name].prepare(7, tmp_path / run)
        texts.append([Path(s[len("file:"):]).read_text() for s in job["specs"]])
    assert texts[0] == texts[1]
    for text in texts[0]:
        g = catalog.parse_algebra(text)  # raises on a Jacobi violation
        assert g.labels != tuple(workloads.schrodinger_labels((g.dim - 4) // 2))


def test_cocycle_check_accepts_inner_and_rejects_identity():
    n = 2
    data = workloads.schrodinger_json(n, list(range(2 * n + 4)), "x")
    table = workloads._bracket_table(data)
    ad_e = [[[i], k, str(c)] for i in range(2 * n + 4)
            for k, c in sorted(table.get((0, i), {}).items())]
    identity = [[[i], i, "1"] for i in range(2 * n + 4)]
    assert workloads.adjoint_coboundary_nonzero(data, 1, json.dumps(ad_e)) is None
    assert workloads.adjoint_coboundary_nonzero(
        data, 1, json.dumps(identity)) is not None


def test_reference_unit_has_full_rank():
    for n in (worker.PROBE_N, 28):
        assert worker.reference_unit(n) == n


def test_speed_probe_samples_while_the_block_runs():
    with worker.SpeedProbe(True) as probe:
        end = time.perf_counter() + 1.1
        while time.perf_counter() < end:
            pass
    assert probe.ok
    assert len(probe.times) >= 3
    assert 0 < probe.spent < 1.1
    assert probe.speed() > 0
    with worker.SpeedProbe(False) as off:
        time.sleep(0.3)
    assert off.times == [] and off.speed() == 0.0


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run(name):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    for counter in REACHED[name]:
        assert metrics[counter] > 0, counter
    details = json.loads(
        (ROOT / ".bench_out" / f"{name}-s1" / "result-trace1.json").read_text())
    traced = details["traced_runs"]
    assert len(traced) >= 2
    assert all(t["counters"] == traced[0]["counters"] for t in traced)
