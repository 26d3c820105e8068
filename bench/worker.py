"""One benchmark step in a fresh interpreter; run.py starts it.

    python3 -S bench/worker.py setup JOB
    python3 -S bench/worker.py run JOB [--trace SPANS_PATH --run-id ID]

``setup`` imports ``liecohom.cli`` and resolves (and so validates) every
algebra spec of the job. ``run`` imports the CLI, then times the job's
invocations of ``liecohom.cli.main`` and prints one JSON object: wall and
CPU time of the invocations, the process's peak resident memory, the wall
time in reference units (below), and each invocation's exit code and
output. With ``--trace`` the public functions of every module are wrapped
first (see tracer.py) and the per-layer summary is added; the spans go to
SPANS_PATH. The liecohom sources are taken from the checkout's ``src``
directory.

Reference units. On a shared host the speed of a core swings by tens of
percent within seconds and drifts over minutes, so two runs of the same code
can differ by more than any useful bound. While the invocations run, a
SIGALRM handler (``SpeedProbe``) therefore times a small fixed reference
computation (``reference_unit``: exact Gaussian elimination over Fractions,
the kind of work liecohom does) every PROBE_EVERY_S seconds, in the same
process and so on the same core. ``wall_ref`` is the workload's wall time,
probes excluded, times the mean probe speed (1 / probe time): the number of
reference units that the host could have run in that time. It moves when
liecohom gets faster or slower and hardly when the host does. Probe time is
not counted in ``wall_s`` or ``cpu_s``; traced runs take no probes.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PROBE_N = 12  # the probe's matrix is PROBE_N x PROBE_N and has full rank
PROBE_EVERY_S = 0.1  # wall seconds between probes; a probe takes 2 to 3 ms


def reference_unit(n: int) -> int:
    """Rank over Q of a fixed pseudo-random n x n integer matrix, by
    Gaussian elimination on dict rows of Fractions."""
    x, rows = 1, []
    for _ in range(n):
        row = {}
        for j in range(n):
            x = (1103515245 * x + 12345) % 2147483648
            if x % 3 and x % 17 != 8:
                row[j] = Fraction(x % 17 - 8)
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((r for r in rows if r.get(col)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        inv = 1 / pivot[col]
        for r in rows:
            f = r.get(col)
            if f:
                f *= inv
                for k, v in pivot.items():
                    nv = r.get(k, 0) - f * v
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
    return rank


class SpeedProbe:
    """Times ``reference_unit(PROBE_N)`` every PROBE_EVERY_S wall seconds
    from a SIGALRM handler while the block runs. The garbage collector is
    off during a probe, so that a collection of the workload's objects is
    not charged to it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: list = []  # one per probe, in s
        self.spent = 0.0  # wall time inside the handler, in s
        self.spent_cpu = 0.0  # CPU time inside the handler, in s
        self.ok = True  # every probe found full rank

    def _probe(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        rank = reference_unit(PROBE_N)
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(t1 - t0)
        self.ok = self.ok and rank == PROBE_N
        self.spent += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        if self.enabled:
            reference_unit(PROBE_N)  # warm, untimed
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean probe speed in reference units per second; 0 without probes."""
        if not self.times:
            return 0.0
        return sum(1 / t for t in self.times) / len(self.times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("setup", "run"))
    ap.add_argument("job")
    ap.add_argument("--trace", default=None, metavar="SPANS_PATH")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()
    job = json.loads(Path(args.job).read_text(encoding="utf-8"))

    import liecohom.cli as cli

    if args.step == "setup":
        for spec in job["specs"]:
            cli.catalog.resolve(spec)
        return 0

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer(args.run_id).install()

    outputs = []
    wall = cpu = 0.0
    with SpeedProbe(tracer is None) as probe:
        for argv in job["invocations"]:
            out, err = io.StringIO(), io.StringIO()
            spent, spent_cpu = probe.spent, probe.spent_cpu
            wall0, cpu0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            cpu += time.process_time() - cpu0 - (probe.spent_cpu - spent_cpu)
            wall += time.perf_counter() - wall0 - (probe.spent - spent)
            outputs.append({"exit": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "wall_ref": wall * probe.speed(), "probe_s": probe.times,
              "probe_ok": probe.ok, "outputs": outputs}
    if tracer is not None:
        result["trace"] = tracer.summary(wall)
        tracer.write_spans(args.trace)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
