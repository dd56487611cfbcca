#!/usr/bin/env python3
"""sideshap benchmark: three seeded workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload explain-vit --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``sideshap`` from ``src/``
there and fails (exit 2, no result) when the sources are absent. Load comes
from this one process, one caller in a closed loop, with BLAS pinned to one
thread before numpy is imported.

``--trace 0`` measures the end-to-end metrics: closed-loop operations for
``--seconds`` seconds of operation time, with repeated set-up and cold
``sideshap explain`` samples spread between them; each figure is a median
except the throughput, which is work done over operation time. ``--trace 1`` runs a fixed section of the same work twice, first
untraced and then with span wrappers installed, and reports the per-layer
metrics of the traced pass and the tracing overhead; spans are written to
``.perfbench_out/``.

The last line of standard output is the result; the line before it carries
the environment, per-workload names of the metrics, and any failures.
Seed 9973 is held out: no tuning of this benchmark used it, so a claimed
gain can be confirmed on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
HELD_OUT_SEED = 9973
WARMUP_OP = 10 ** 6  # op index of the untimed warm-up; never a timed index
SPACING_S = 1.0  # gap between set-up and cold samples left after the op loop
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "cold_start_s": "s",
    "op_p50_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# the name each generic metric has on a workload, as printed on the info line
METRIC_ALIASES = {
    "explain-vit": {"op_p50_ms": "explain_p50_ms",
                    "items_per_s": "explain_samples_per_s"},
    "oracle-d12": {"items_per_s": "value_evals_per_s"},
    "pipeline-d16": {"op_p50_ms": "pipeline_ms"},
}


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    Load comes from one caller. On a 2-core host two BLAS threads made no
    workload faster (oracle-d12 7% slower) and widened the run-to-run spread
    of explain-vit, so the benchmark uses one, well under ``nproc``.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def import_sideshap():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sideshap", "__init__.py")):
        raise FileNotFoundError(f"no sideshap sources under {src}")
    sys.path.insert(0, src)
    import sideshap

    if os.path.dirname(os.path.dirname(os.path.abspath(sideshap.__file__))) != src:
        raise ImportError(f"sideshap imported from {sideshap.__file__}, not {src}")
    return sideshap


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "nproc": usable_cores(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Attempts:
    """Runs operations, counts attempts and failures, defers their checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.labels: list[str] = []
        self._verifies: list = []
        self.tracer = None

    def run(self, label, fn):
        """Time ``fn()``; returns seconds, or None when it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = len(self.labels)
        self.labels.append(label)
        t0 = time.perf_counter()
        try:
            verify = fn()
        except Exception as exc:  # one failed operation must not end the run
            self.fail(label, exc)
            return None
        elapsed = time.perf_counter() - t0
        if verify is not None:
            self._verifies.append((label, verify))
        return elapsed

    def fail(self, label, exc):
        self.failed += 1
        self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def verify_all(self):
        for label, verify in self._verifies:
            try:
                verify()
            except Exception as exc:
                self.fail(label, exc)
        self._verifies = []


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, if not below p50."""
    ranked = sorted(latencies)
    n = len(ranked)
    if n < 20:
        return None
    return {"value_ms": ranked[n - 11] * 1000, "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def timed_run(wl, seconds):
    att = Attempts()
    setup, cold, ops = [], [], []
    cold_tries = []

    def setup_sample():
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)

    def cold_sample():
        cold_tries.append(att.run(f"cold {len(cold_tries)}", wl.cold_start))
        if cold_tries[-1] is not None:
            cold.append(cold_tries[-1])

    setup_sample()
    if not wl.cold_after_ops:
        cold_sample()
    if wl.warmup:
        att.run("warm-up", lambda: wl.op(WARMUP_OP))
    # The host's speed shifts between levels tens of percent apart every few
    # seconds, so set-up and cold samples are spread through the run rather
    # than taken back to back. The window counts operation time only.
    busy, i = 0.0, 0
    while True:
        t0 = time.perf_counter()
        elapsed = att.run(f"op {i}", lambda i=i: wl.op(i))
        busy += time.perf_counter() - t0
        i += 1
        if elapsed is not None:
            ops.append(elapsed)
        if len(setup) < wl.setup_repeats:
            setup_sample()
        if not wl.cold_after_ops and len(cold_tries) < wl.cold_repeats:
            cold_sample()
        # closed loop: stop before an operation that would overrun the window
        if busy + (elapsed or 0.0) > seconds:
            break
    # what is still due is spread over time too, one of each per SPACING_S
    while len(setup) < wl.setup_repeats or len(cold_tries) < wl.cold_repeats:
        time.sleep(SPACING_S)
        if len(setup) < wl.setup_repeats:
            setup_sample()
        if len(cold_tries) < wl.cold_repeats:
            cold_sample()
    att.verify_all()
    for message in wl.finish(OUT):
        att.fail("finish", RuntimeError(message))

    median = lambda v: statistics.median(v) if v else 0.0
    metrics = {
        "setup_s": median(setup),
        "cold_start_s": median(cold),
        "op_p50_ms": median(ops) * 1000,
        "items_per_s": wl.items_per_op * len(ops) / sum(ops) if ops else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "ops": len(ops), "item": wl.item, "items_per_op": wl.items_per_op,
        "setup_samples_s": setup, "cold_samples_s": cold, "op_samples_ms": [t * 1000 for t in ops],
        "op_tail": tail(ops) or f"{len(ops)} ops: no percentile at or above "
                                "the median has ten samples beyond it",
        "failed_frac": att.failed / att.attempted,
        "as_named": {METRIC_ALIASES.get(wl.name, {}).get(k, k): v for k, v in metrics.items()},
        **wl.info(),
    }
    return metrics, att, info


def probe_macs(sideshap, wl):
    """Matmul MACs of one batch-1 classifier forward and one pass of each branch."""
    import tracing

    clf, branches, x1 = wl.probe_models()
    tr = tracing.Tracer(sideshap)
    with tr:
        tr.op = 0
        clf.forward(x1)
        tr.op = -1
        states = clf.block_states(x1, None)
        for k, branch in enumerate(branches, 1):
            tr.op = k
            if branch.side_config.role == sideshap.ROLE_SURROGATE:
                branch.surrogate_logits(x1, None, backbone_states=states)
            else:
                branch.explainer_raw(x1, backbone_states=states)
    tab = tracing.SpanTable(tr)
    matmul = tab.select("autodiff.matmul")
    counted = [int(tab.a[matmul & (tab.op == k)].sum()) for k in range(len(branches) + 1)]
    ev = sideshap.evaluation
    analytic = [ev.classifier_macs(clf.config)] + [
        ev.side_branch_macs(clf.config, b.side_config) for b in branches]
    return counted, analytic


def traced_run(sideshap, wl, seed):
    import tracing

    att = Attempts()
    wl.setup()
    if wl.warmup:
        att.run("warm-up", lambda: wl.op(WARMUP_OP))

    def section(tag):
        att.run(f"{tag} setup", wl.setup)
        if not wl.cold_after_ops:
            att.run(f"{tag} cold", wl.cold_start)
        for i in range(wl.trace_ops):
            att.run(f"{tag} op {i}", lambda i=i: wl.op(i))
        if wl.cold_after_ops:
            att.run(f"{tag} cold", wl.cold_start)

    t0 = time.perf_counter_ns()
    section("untraced")
    untraced_ns = time.perf_counter_ns() - t0

    tracer = tracing.Tracer(sideshap)
    first_traced = len(att.labels)
    tracer.install()
    att.tracer = tracer
    try:
        w0 = time.perf_counter_ns()
        section("traced")
        w1 = time.perf_counter_ns()
    finally:
        att.tracer = None
        tracer.uninstall()

    harness = []  # failures of the harness itself
    leftover = tracing.find_wrappers(sideshap)
    if leftover:
        harness.append(f"wrappers left after uninstall: {leftover}")

    counted, analytic = probe_macs(sideshap, wl)
    att.verify_all()
    for message in wl.finish(OUT):
        att.fail("finish", RuntimeError(message))

    tab = tracing.SpanTable(tracer)
    metrics, notes = tracing.layer_metrics(tab)
    wall_ns = w1 - w0
    uncovered = wall_ns - tab.covered_ns()
    if tab.self_ns.min(initial=0) < 0 or uncovered < 0:
        harness.append("a span outlives its parent or the traced section")
    if int(tab.self_ns.sum()) + uncovered != wall_ns:
        harness.append("self times plus uncovered time differ from traced wall time")
    for name in wl.must_fire + wl.must_be_zero:
        if name not in tracer.names:
            harness.append(f"{name} is not a wrapped entry point")
    for name in wl.must_fire:
        if tab.calls(name) == 0:
            harness.append(f"{name} never fired on {wl.name}")
    for name in wl.must_be_zero:
        if tab.calls(name) != 0:
            harness.append(f"{name} fired {tab.calls(name)} times on {wl.name}")
    if counted != analytic:
        harness.append(f"counted matmul MACs {counted} != analytic {analytic}")

    metrics["transformer.macs_vs_analytic"] = counted[0] / analytic[0]
    metrics["sidenet.side_macs_vs_analytic"] = sum(counted[1:]) / sum(analytic[1:])
    losses = wl.info()
    for key in ("surrogate_val_kl", "explainer_val_loss"):
        metrics[f"training.{key}"] = losses.get(key, 0.0)
        if key not in losses:
            notes[f"training.{key}"] = "no training on this workload"
    metrics["trace.overhead_frac"] = wall_ns / untraced_ns - 1.0
    metrics["trace.uncovered_s"] = uncovered / 1e9

    meta = {"workload": wl.name, "seed": seed, "ops": att.labels[first_traced:],
            "wall_ns": wall_ns, "untraced_ns": untraced_ns}
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json")
    tracer.write(path, meta)
    info = {
        "spans_file": os.path.relpath(path, ROOT),
        "traced_wall_s": wall_ns / 1e9, "untraced_wall_s": untraced_ns / 1e9,
        "macs_counted": counted, "macs_analytic": analytic,
        "not_applicable": {**notes, "wait_s": "no module queues work, so nothing waits"},
        "harness_failures": harness,
    }
    return metrics, att, info, not harness


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_blas_threads()
    try:
        sideshap = import_sideshap()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # both import numpy, so only after the BLAS cap
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            values, att, info, harness_ok = traced_run(sideshap, wl, args.seed)
            units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
        else:
            values, att, info = timed_run(wl, args.seconds)
            harness_ok, units = True, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
            "environment": environment(threads), "errors": att.errors, **info}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": att.failed == 0 and harness_ok,
        "attempted": att.attempted,
        "failed": att.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
