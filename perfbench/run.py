"""flowmoe benchmark: full-scale training, checkpointed classification and
cold CSV preprocessing, with the layers timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` measures the end-to-end metrics with no span recorded.
``--trace 1`` alternates untraced operations with operations whose every
layer boundary is wrapped, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced time).  Per-layer
times and counts are per unit of work: a training step, a classify round or
a preprocess call; a layer a workload never enters reads 0.  Spans are
written to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its workload, unit and direction, and record the BLAS
library and its thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OP_NAMES, Tracer, add_step_spans, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
# setup_s is the median of the first, cold set-up and SETUPS_PER_OP warm
# repeats before each operation: one cold call is a single sample of a few
# milliseconds and too noisy to gate on.  The cold call alone is printed as
# setup_first_s.
SETUPS_PER_OP = 4

# Keep BLAS at no more threads than this process may run on.  This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

# name, unit, better: reported by every workload with --trace 0.
# Throughput is work done over time spent in the main phase of the run:
# training steps, bulk predict, or preprocess calls.  Latency is the mean time
# of one training step, small classify batch or preprocess call.  Both are
# means over the run, not medians: on a host whose cores are shared, the same
# code runs up to twice as slow for seconds at a time, and a median flips
# between the fast and the slow mode where a mean moves in proportion to the
# time spent in each.  Medians and p90 are printed on the lines before the
# result.
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_mean_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics read from spans: metric -> (span name, aggregate).  "total"
# and "self" are summed durations per unit of work, "count" is calls per
# unit, "mean" is the mean duration of one call.
SPAN_METRICS = {
    "tensor.backward_s": ("tensor.backward", "total"),
    **{f"tensor.backward_self_s.{op}": (f"tensor.backward.{op}", "total") for op in OP_NAMES},
    "layers.backbone_fwd_s": ("layers.backbone", "total"),
    "layers.conv1d_fwd_s": ("layers.conv1d", "total"),
    "layers.conv1d_calls": ("layers.conv1d", "count"),
    "model.forward_s": ("model.forward", "total"),
    "moe.gate_s": ("moe.gate", "total"),
    "moe.dispatch_s": ("moe.dispatch", "total"),
    "moe.load_prob_s": ("moe.load_prob", "total"),
    "training.loss_s": ("training.loss", "total"),
    "training.optimizer_s": ("training.optimizer", "total"),
    "training.step_self_s": ("training.step", "self"),
    "checkpoint.save_s": ("checkpoint.save", "mean"),
    "checkpoint.load_s": ("checkpoint.load", "mean"),
    "metrics.report_s": ("metrics.report", "total"),
    "pipeline.fingerprint_s": ("pipeline.fingerprint", "total"),
    "pipeline.parse_s": ("pipeline.parse", "total"),
    "pipeline.impute_s": ("pipeline.impute", "total"),
    "pipeline.split_s": ("pipeline.split", "total"),
    "pipeline.fit_stats_s": ("pipeline.fit_stats", "total"),
    "pipeline.encode_s": ("pipeline.encode", "total"),
    "pipeline.prepare_self_s": ("pipeline.prepare", "self"),
    "pipeline.cache_save_s": ("pipeline.cache_save", "total"),
    "pipeline.cache_load_s": ("pipeline.cache_load", "total"),
    "cli.preprocess_self_s": ("cli.main", "self"),
}

# name -> unit, in report order: reported by every workload with --trace 1.
PER_LAYER = {
    "tensor.graph_nodes": "count",
    **{f"tensor.nodes.{op}": "count" for op in OP_NAMES},
    **{name: ("count" if name.endswith("_calls") else "s") for name in SPAN_METRICS},
    "moe.active_experts": "count",
    "moe.active_expert_ratio": "ratio",
    "moe.selection_cv_sq": "ratio",
    "checkpoint.bytes": "B",
    "pipeline.rows_parsed": "count",
    "pipeline.rows_skipped": "count",
    "pipeline.cache_bytes": "B",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = "unknown"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = str(getattr(lib, symbol)())
                break
    return f"{name}, {threads} threads (nproc {NPROC})"


def layer_metrics(workload, untraced, traced, tracer) -> dict:
    spans = tracer.spans
    add_step_spans(spans, "training.train", "training.optimizer", "training.step")
    units = workload.units(traced)
    total, own, calls = {}, {}, {}
    for span, self_time in zip(spans, self_times(spans)):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        own[span.name] = own.get(span.name, 0.0) + self_time
        calls[span.name] = calls.get(span.name, 0) + 1
    values = dict.fromkeys(PER_LAYER, 0.0)
    for metric, (name, kind) in SPAN_METRICS.items():
        if name in calls:
            values[metric] = {"total": total[name] / units, "self": own[name] / units,
                              "count": calls[name] / units,
                              "mean": total[name] / calls[name]}[kind]
    values["tensor.graph_nodes"] = sum(traced.nodes.values()) / units
    for op, count in traced.nodes.items():
        values[f"tensor.nodes.{op}"] = count / units
    if traced.visited:
        values["moe.active_experts"] = statistics.mean(traced.active)
        values["moe.active_expert_ratio"] = sum(traced.active) / sum(traced.visited)
        values["moe.selection_cv_sq"] = statistics.mean(traced.cv_sq)
    values.update(traced.counts)
    values["trace.untraced_s"] = sum(untraced.durations) / workload.units(untraced)
    values["trace.traced_s"] = sum(traced.durations) / units
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    return values


def measure(workload_cls, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import Pass

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_cls(seed, workdir)
        setup_times = []

        def timed_setup():
            start = time.perf_counter()
            result = workload.setup()
            setup_times.append(time.perf_counter() - start)
            return result

        state = timed_setup()
        workload.warm_up(state)

        untraced, traced, tracer = Pass(), None, None
        passes = [(untraced, Tracer(enabled=False), state)]
        if trace:
            traced, tracer = Pass(), Tracer()
            workload.instrument(tracer, traced)
            try:
                passes.append((traced, tracer, workload.setup()))
            finally:
                tracer.restore()
        # With --trace 1 untraced and traced operations alternate, so that a
        # slow spell of the machine hits both sides of the overhead alike.
        start = time.perf_counter()
        while True:
            # set-up repeats are spread over the run, like the operations
            for _ in range(0 if trace else SETUPS_PER_OP):
                timed_setup()
            for rec, wrapper, pass_state in passes:
                if trace:
                    # The autodiff graph holds reference cycles; collect the
                    # last operation's garbage here, so the next operation
                    # does not pay for the other side's.
                    gc.collect()
                workload.instrument(wrapper, rec)
                try:
                    workload.run_op(pass_state, rec)
                finally:
                    wrapper.restore()
            last = sum(rec.durations[-1] for rec, _, _ in passes)
            if time.perf_counter() - start + last > seconds:
                break
        attempted, failures = workload.check(untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = blas_info()
    lines = [f"blas: {blas}",
             f"workload {workload.name}: closed loop, one caller; {workload.why}",
             f"workload {workload.name}: {len(untraced.durations)} operations of "
             f"{sum(untraced.durations):.2f} s, {workload.units(untraced)} x {workload.unit}"]
    lines += [f"failure: {message}" for message in failures[:20]]
    if trace:
        values = layer_metrics(workload, untraced, traced, tracer)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{workload.name}-seed{seed}.jsonl", {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "blas": blas, "absent": tracer.absent, "units": workload.units(traced),
            "unit": workload.unit})
        lines.append(f"absent spans: {', '.join(tracer.absent) or 'none'}")
        lines.append(
            f"trace accounting per {workload.unit}: untraced {values['trace.untraced_s']:.4f} s, "
            f"traced {values['trace.traced_s']:.4f} s, overhead "
            f"{values['trace.overhead_s']:.4f} s")
    else:
        throughput, latency_ms, named = workload.end_to_end(untraced)
        values = {
            "throughput_per_s": throughput,
            "latency_mean_ms": latency_ms,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        named += [(name, values[name], unit, better) for name, unit, better in END_TO_END[2:]]
        named.append(("setup_first_s", setup_times[0], "s", "lower"))
        named.append(("failed_ops_ratio", len(failures) / attempted, "ratio", "lower"))
        lines += [f"metric {workload.name} {name} {value:.6g} {unit} ({better})"
                  for name, value, unit, better in named]
    lines.append(f"operations {workload.name}: {attempted} attempted, {len(failures)} failed")
    return {"lines": lines, "result": {"correct": not failures, "attempted": attempted,
                                       "failed": len(failures), "metrics": metrics}}


def run_all(args, workloads) -> int:
    """Every workload with --trace 0, each in a fresh process so its peak RSS
    is its own; prints their metric lines together."""
    status = 0
    for name in workloads:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if child.returncode != 0:
            print(f"workload {name} exited with code {child.returncode}:\n{child.stderr}")
            status = child.returncode
            continue
        for line in child.stdout.splitlines():
            if line.startswith(("blas:", "metric ", "operations ", "failure:")):
                print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowmoe" / "__init__.py").is_file():
        print(f"error: {SRC / 'flowmoe'} not found; run from a flowmoe checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
