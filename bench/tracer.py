"""Per-layer tracing of liecohom from outside the package.

``Tracer.install`` wraps the public entry points of each module at every
name where they are looked up: ``cli``, ``cochain``, ``invariants`` and
``lie_core`` bind ``from .exact_linalg import ...`` names of their own, so
patching ``exact_linalg`` alone would miss those calls. Methods
(``SparseMatrix.rank``, ``Subspace.from_vectors``) are patched on the class.

Each call records a span (name, start, end, parent span, run id) and adds to
work counters at the same boundary. Spans stay in memory until
``write_spans``. A target that no longer exists is reported as absent
instead of failing. Only traced runs import this module.
"""

import json
import sys
import time
from collections import defaultdict
from statistics import median

# ------------------------------------------------------------------ probes
#
# A probe sees the call's arguments before the call, may replace them
# (to count a lazily consumed iterable) and returns them together with a
# callback that sees the result, or None.


def _rank_dense(c, args, kwargs):
    m = args[0]
    c["exact_linalg.rank_dense.cells"] += m.rows * m.cols
    return args, None


def _rank(c, args, kwargs):
    m = args[0]
    if getattr(m, "_rank", None) is None:  # cached ranks do no elimination
        c["exact_linalg.rank.nnz_in"] += m.nnz
        c["exact_linalg.rank.cells"] += m.rows * m.cols
    return args, None


def _kernel_basis(c, args, kwargs):
    def after(out):
        c["exact_linalg.kernel_basis.kernel_dim"] += out.dim
    return args, after


def _column_space(c, args, kwargs):
    m = args[0]
    c["exact_linalg.column_space.dense_cells"] += m.rows * m.cols
    return args, None


def _from_vectors(c, args, kwargs):
    def counted(vectors):
        for v in vectors:
            c["exact_linalg.from_vectors.vectors_in"] += 1
            yield v

    def after(out):
        c["exact_linalg.from_vectors.dim_out"] += out.dim

    if len(args) >= 3:
        args = args[:2] + (counted(args[2]),) + args[3:]
    elif "vectors" in kwargs:
        kwargs["vectors"] = counted(kwargs["vectors"])
    return args, after


def _differential(c, args, kwargs):
    module, n = args[1], args[2]
    if n in getattr(module, "_dcache", {}):
        c["cochain.differential.cache_hits"] += 1
        return args, None

    def after(out):
        c["cochain.differential.nnz_out"] += out.nnz
    return args, after


def _extend_echelon(c, args, kwargs):
    def after(out):
        c["cochain.extend_echelon.reps_computed"] += len(out)
    return args, after


# (module, attribute, span name, probe). Several targets may share a span.
TARGETS = [
    ("exact_linalg", "rank_dense", "exact_linalg.rank_dense", _rank_dense),
    ("exact_linalg", "SparseMatrix.rank", "exact_linalg.rank", _rank),
    ("exact_linalg", "kernel_basis", "exact_linalg.kernel_basis", _kernel_basis),
    ("exact_linalg", "column_space", "exact_linalg.column_space", _column_space),
    ("exact_linalg", "Subspace.from_vectors", "exact_linalg.from_vectors",
     _from_vectors),
    ("exact_linalg", "intersect", "exact_linalg.intersect", None),
    ("cochain", "differential", "cochain.differential", _differential),
    ("cochain", "cohomology", "cochain.cohomology", None),
    ("cochain", "_extend_echelon", "cochain.extend_echelon", _extend_echelon),
    ("invariants", "cochain_action", "invariants.cochain_action", None),
    ("invariants", "invariant_subspace", "invariants.invariant_subspace", None),
    ("invariants", "invariant_cohomology", "invariants.invariant_cohomology", None),
    ("invariants", "invariant_subcomplex_cohomology", "invariants.subcomplex",
     None),
    ("factorization", "hs_crosscheck", "factorization.hs_crosscheck", None),
    ("lie_core", "derivation_space", "lie_core.derivation_space", None),
    # algebra construction: resolve() and the constructors the CLI calls
    # directly (verify-paper builds its algebras without resolve)
    ("catalog", "resolve", "catalog.resolve", None),
    ("catalog", "sl2", "catalog.resolve", None),
    ("catalog", "schrodinger", "catalog.resolve", None),
    ("catalog", "schrodinger_mod_center", "catalog.resolve", None),
    ("cli", "_dense_h_dim", "cli.oracle", None),
    ("cli", "_dense_z_inv_dim", "cli.oracle", None),
    ("cli", "_dense_b_inv_dim", "cli.oracle", None),
    ("cli", "_cocycle_claims", "cli.oracle", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, parent index or None, start, end]
        self.counters: dict = defaultdict(int)
        self.absent: list = []
        self._stack: list = []

    def _wrap(self, fn, name: str, probe):
        spans, stack, counters = self.spans, self._stack, self.counters
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counters[calls] += 1
            after = None
            if probe is not None:
                args, after = probe(counters, args, kwargs)
            rec = [name, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        """Patch every target; the liecohom package must already be imported."""
        package = {k: v for k, v in sys.modules.items()
                   if k == "liecohom" or k.startswith("liecohom.")}
        for module_name, attr, name, probe in TARGETS:
            module = package.get(f"liecohom.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, method,
                            classmethod(self._wrap(raw.__func__, name, probe)))
                else:
                    setattr(owner, method, self._wrap(raw, name, probe))
                continue
            wrapper = self._wrap(raw, name, probe)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
        return self

    def summary(self, wall: float) -> dict:
        """Self time and span count per span name, counters, and coverage:
        the share of ``wall`` spent inside a top-level span."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, parent, start, end in self.spans:
            if parent is None:
                top += end - start
            else:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
        return {
            "self_s": {n: self_s.get(n, 0.0) for n in SPAN_NAMES},
            "counters": dict(sorted(self.counters.items())),
            "coverage": top / wall if wall > 0 else 0.0,
            "absent": self.absent,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One JSON object per span: name, parent index, start, end, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "run": self.run_id}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list, reps_emitted: int, overhead_s: float,
                  names) -> dict:
    """Per-layer metric values from the summaries of repeated traced runs.

    Times are medians over the runs; counters are taken from the first run
    (the caller checks that every run gave the same counters).
    """
    first = summaries[0]["counters"]
    values = {k: float(v) for k, v in first.items()}
    for span in SPAN_NAMES:
        values[span + ".s"] = median(s["self_s"][span] for s in summaries)
    values["cli.reps_emitted"] = float(reps_emitted)
    values["cochain.differential.hit_ratio"] = _ratio(
        first.get("cochain.differential.cache_hits", 0),
        first.get("cochain.differential.calls", 0))
    values["exact_linalg.from_vectors.useful"] = _ratio(
        first.get("exact_linalg.from_vectors.dim_out", 0),
        first.get("exact_linalg.from_vectors.vectors_in", 0))
    values["cochain.reps.useful"] = _ratio(
        reps_emitted, first.get("cochain.extend_echelon.reps_computed", 0))
    values["trace.coverage"] = median(s["coverage"] for s in summaries)
    values["trace.overhead_s"] = overhead_s
    return {n: values.get(n, 0.0) for n in names}
