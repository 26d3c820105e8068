"""The liecohom benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload adjoint-reps --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. A run

1. makes the workload's inputs from ``--seed`` under ``.bench_out/``;
2. runs the workload again and again, each time in a fresh interpreter
   (worker.py), one at a time, until ``--seconds`` have passed and at least
   two runs are done; with ``--trace 1`` traced and untraced runs
   alternate, at least two traced and one untraced;
3. before each workload run, times set-up three times: a fresh interpreter
   imports ``liecohom.cli`` and resolves the workload's algebra specs;
4. checks every output outside the timed region;
5. prints a readable summary, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
   ``--trace 1``.

The end-to-end metrics are ``wall_ref``, the median workload wall time in
units of a reference computation timed in the same process while the
invocations run (see worker.py: the host's changing speed cancels out),
``peak_rss_mb`` and ``setup_s``. The plain wall and CPU times, ``wall_s``
and ``cpu_s``, are printed in the summary and kept in the details, but are
not bounded: on a shared host they spread by more than any useful bound.

``attempted`` and ``failed`` count output checks; a nonzero exit of an
invocation or of a worker is a failed check, so fail_frac = failed /
attempted. The paper's own FAIL and DISCREPANCY rows are expected output.
Details (every sample, every check, the machine fingerprint, and with
tracing the raw spans) go to ``.bench_out/<workload>-s<seed>/``.

The benchmark's own tests: ``python3 -m pytest -p no:cacheprovider bench``.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PER_RUN = 3  # set-up samples taken before each workload run
MIN_RUNS = 2
DEADLINE_S = 170  # every run of the benchmark ends well within 180 s


def fingerprint() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor()}


def tail_percentile(samples: list):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    k = max(0, -(-p * n // 100) - 1)  # nearest-rank
    return p, sorted(samples)[k]


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = ROOT / ".bench_out" / f"{workload.name}-s{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.job = workload.prepare(seed, self.out)
        self.job_path = self.out / "job.json"
        self.job_path.write_text(json.dumps(self.job), encoding="utf-8")
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.checks: list = []
        self.extra: dict = {}
        self.setup: list = []
        self._checked: dict = {}

    def _worker(self, *args: str) -> subprocess.CompletedProcess:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        return subprocess.run(
            [sys.executable, "-S", str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(remaining, 1))

    def warm_up(self) -> None:
        """One untimed set-up, so that imports read a filled bytecode cache."""
        self._worker("setup", str(self.job_path))

    def setup_times(self, count: int) -> None:
        """Time ``count`` fresh interpreters that import the CLI and resolve
        the workload's algebra specs."""
        for _ in range(count):
            t0 = time.perf_counter()
            try:
                proc = self._worker("setup", str(self.job_path))
            except subprocess.TimeoutExpired:
                self.checks.append(("set-up finished in time", False, ""))
                return
            self.setup.append(time.perf_counter() - t0)
            self.checks.append(("set-up exit 0", proc.returncode == 0,
                                proc.stderr[-500:]))

    def run_once(self, traced: bool, index: int):
        """One workload run in a fresh interpreter; its result or None."""
        args = ["run", str(self.job_path)]
        if traced:
            args += ["--trace", str(self.out / f"spans-{index}.jsonl"),
                     "--run-id", f"{self.wl.name}-s{self.seed}-{index}"]
        try:
            proc = self._worker(*args)
        except subprocess.TimeoutExpired:
            self.checks.append(("workload run finished in time", False, index))
            return None
        try:
            res = json.loads(proc.stdout)
        except ValueError:
            res = None
        self.checks.append(("workload run exit 0",
                            proc.returncode == 0 and res is not None,
                            proc.stderr[-2000:]))
        if res is None:
            return None
        self.checks.append(("every speed probe gives its rank",
                            res["probe_ok"], index))
        # identical outputs need checking once; the tally counts every run
        key = hashlib.sha256(json.dumps(res["outputs"]).encode()).hexdigest()
        if key not in self._checked:
            self._checked[key] = self.wl.check(self.job, res["outputs"])
        checks, extra = self._checked[key]
        self.checks.extend(checks)
        self.extra = extra
        return res

    def measure(self) -> tuple:
        plain, traced = [], []
        index = 0
        while True:
            enough = (len(plain) >= MIN_RUNS if not self.trace
                      else len(traced) >= 2 and len(plain) >= 1)
            elapsed = time.perf_counter() - self.started
            if enough and elapsed >= self.seconds:
                break
            # set-up samples are spread over the run, not taken in one burst
            self.setup_times(SETUP_PER_RUN)
            use_trace = self.trace and len(traced) <= len(plain)
            res = self.run_once(use_trace, index)
            index += 1
            if res is None:
                break
            (traced if use_trace else plain).append(res)
        return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "liecohom" / "cli.py").is_file():
        print(f"error: no liecohom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    bench.warm_up()
    plain, traced = bench.measure()
    setup = bench.setup
    if not plain or not setup or (args.trace and not traced):
        print("error: no workload run completed", file=sys.stderr)
        for name, ok, detail in bench.checks:
            if not ok:
                print(f"  {name}: {detail}", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for r in plain]
    e2e = {
        "wall_ref": median(r["wall_ref"] for r in plain),
        "wall_s": median(walls),
        "cpu_s": median(r["cpu_s"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "setup_s": median(setup),
    }
    probes = [t for r in plain for t in r["probe_s"]]
    extra = bench.extra
    if traced:
        from tracer import layer_metrics

        summaries = [r["trace"] for r in traced]
        same = all(s["counters"] == summaries[0]["counters"] for s in summaries)
        bench.checks.append(("traced runs give identical counters", same,
                             len(summaries)))
        overhead = median(r["wall_s"] for r in traced) - e2e["wall_s"]
        names = [m["name"] for m in spec["per_layer"]]
        reported = layer_metrics(summaries, extra.get("reps_emitted", 0),
                                 overhead, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        absent = summaries[0]["absent"]
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        absent = []

    attempted = len(bench.checks)
    failed = sum(1 for _, ok, _ in bench.checks if not ok)
    fp = fingerprint()
    tail = tail_percentile(walls)
    lines = [
        f"workload={args.workload} seed={args.seed}"
        + ("" if bench.wl.seeded else " (seedless)")
        + f" runs={len(plain)} traced_runs={len(traced)}",
        f"python={fp['python']} nproc={fp['nproc']} cpu={fp['cpu_model']!r}",
        f"wall_ref: {e2e['wall_ref']:.2f} ref median of {len(walls)}; "
        f"{len(probes)} speed probes took {median(probes) * 1000:.3f} ms "
        f"median, {min(probes) * 1000:.3f} to {max(probes) * 1000:.3f} ms",
        f"wall_s: {e2e['wall_s']:.4f} s median of {len(walls)}, max "
        f"{max(walls):.4f} s"
        + (f", p{tail[0]} {tail[1]:.4f} s" if tail else
           "; too few runs for a tail percentile"),
        f"cpu_s: {e2e['cpu_s']:.4f} s",
        f"peak_rss_mb: {e2e['peak_rss_mb']:.2f} MB",
        f"setup_s: {e2e['setup_s']:.4f} s median of {len(setup)}",
        f"fail_frac: {failed / attempted:.4f} ratio ({failed} of {attempted} checks)",
    ]
    lines += [f"{k}: {v}" for k, v in extra.items() if k != "reps_emitted"]
    if absent:
        lines.append("absent: " + " ".join(absent))
    lines += [f"FAILED {name}: {detail}" for name, ok, detail in bench.checks
              if not ok]
    print("\n".join(lines))

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fp, "setup_s_samples": setup,
        "runs": [{k: r[k] for k in ("wall_ref", "wall_s", "cpu_s",
                                    "peak_rss_mb", "probe_s")}
                 for r in plain],
        "traced_runs": [{"wall_s": r["wall_s"], **r["trace"]} for r in traced],
        "checks": [{"name": n, "ok": ok, "detail": repr(d)[:300]}
                   for n, ok, d in bench.checks],
        "extra": extra, "absent": absent, "metrics": reported,
    }
    (bench.out / f"result-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
