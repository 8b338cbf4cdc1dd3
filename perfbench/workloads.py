"""The benchmark's three workloads.

Each is a closed loop with one caller: the next operation starts when the
previous one returns.  A workload makes its inputs from the seed in its
constructor, then ``run.py`` calls

* ``setup()``: the program's own set-up calls, timed for ``setup_s``;
* ``warm_up(state)``: one untimed operation, so lazy allocation is done;
* ``instrument(tracer, rec)``: wraps the program's layer boundaries, filling
  ``rec`` (a :class:`Pass`) with the probes and counts of one pass;
* ``run_op(state, rec)``: one timed operation.

The layers are timed from outside: every span wraps a public function or
method at the attribute its caller looks up.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import logging
import re
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from flowmoe import checkpoint, cli, layers, metrics, moe, pipeline, synthetic, tensor, training
from flowmoe.errors import TrainingDivergedError
from flowmoe import model as model_module

import checks
import inputs
from spans import Tracer, op_name

BATCH = 1024          # the paper's batch size; also the bulk predict batch
SMALL_BATCH = 64      # classify's small-batch phase
TRAIN_STEPS = 4       # optimizer steps per training call
EVAL_SAMPLES = 2048   # held-out samples per classify round
CSV_ROWS = 20000      # rows of the synthetic flow CSV


def full_scale_config(seed: int) -> training.TrainConfig:
    """The paper's configuration: batch 1024, 128 experts with k = 32,
    alpha 0.1, gate noise on, Adam at 1e-3.  One epoch per training call."""
    return training.TrainConfig(batch_size=BATCH, max_epochs=1, alpha=0.1, n_experts=128,
                                top_k=32, optimizer="adam", learning_rate=1e-3, seed=seed,
                                noise_enabled=True)


def load_router(model, router: dict) -> None:
    """Put the seeded router weights into ``model`` through the public
    ``load_state_dict``."""
    state = model.state_dict()
    keys = [key for key in state for name in router if key.endswith("router." + name)]
    if len(keys) != len(router):
        raise RuntimeError(f"model state has no router weights {sorted(router)}")
    for key in keys:
        state[key] = router[key.rsplit(".", 1)[1]]
    model.load_state_dict(state)


@dataclass
class Pass:
    """What one pass of operations recorded."""

    tracer: Tracer | None = None
    durations: list = field(default_factory=list)   # wall time per operation
    outputs: list = field(default_factory=list)     # per-operation output for checks
    step_ends: list = field(default_factory=list)   # train: call start, then optimizer returns
    losses: list = field(default_factory=list)      # train: per-step losses per call
    bulk_s: list = field(default_factory=list)      # classify: bulk phase time per round
    small_s: list = field(default_factory=list)     # classify: small-batch latencies per round
    nodes: Counter = field(default_factory=Counter)  # graph nodes by op
    graph: list = field(default_factory=list)       # train: nodes awaiting backward
    active: list = field(default_factory=list)      # experts given rows, per dispatch
    visited: list = field(default_factory=list)     # experts looped over, per dispatch
    cv_sq: list = field(default_factory=list)       # selection-count CV^2, per dispatch
    counts: dict = field(default_factory=dict)      # per-layer counts read from outputs


# -- model-layer instrumentation shared by train_full and classify -------------


def instrument_model(tracer: Tracer, rec: Pass, keep_graph: bool) -> None:
    """Spans at the model's layer boundaries, plus graph-node and routing
    counts.  With ``keep_graph``, every backward closure of a step's graph is
    timed, keyed by its node's op tag."""

    def count_nodes(func):
        def result_of(cls, data, parents, op=""):
            out = func(cls, data, parents, op)
            if out.requires_grad:
                rec.nodes[op_name(op)] += 1
                if keep_graph:
                    rec.graph.append(out)
            return out
        return result_of

    def time_closures(_args):
        for node in rec.graph:
            if node._backward is not None:
                node._backward = functools.partial(
                    tracer.call, "tensor.backward." + op_name(node._op), node._backward)
        rec.graph.clear()

    def count_routing(args):
        experts, decision = args[0], args[1]
        per_expert = (decision.gates.data != 0).sum(axis=0)
        mean = per_expert.mean()
        rec.active.append(int((per_expert > 0).sum()))
        rec.visited.append(len(experts))
        rec.cv_sq.append(float(per_expert.var() / mean ** 2) if mean else 0.0)

    tracer.patch(tensor.Tensor, "result_of", "tensor.graph_nodes", count_nodes)
    if keep_graph:
        tracer.wrap(tensor.Tensor, "backward", "tensor.backward", before=time_closures)
    tracer.wrap(model_module.CnnMoEClassifier, "forward", "model.forward")
    tracer.wrap(layers.CnnBackbone, "forward", "layers.backbone")
    tracer.wrap(layers, "conv1d", "layers.conv1d")
    tracer.wrap(moe, "noisy_gate", "moe.gate")
    tracer.wrap(moe, "moe_forward", "moe.dispatch", before=count_routing)
    tracer.wrap(moe, "load_probability", "moe.load_prob")


# -- train_full ---------------------------------------------------------------------


class TrainFull:
    name = "train_full"
    why = ("full-scale training: conv backbone forward and backward, noisy top-k gate, "
           "expert dispatch and load probability; no pipeline")
    unit = "training step"

    def __init__(self, seed: int, workdir: Path):
        self.config = full_scale_config(seed)
        self.data = synthetic.make_blobs(TRAIN_STEPS * BATCH, seed=inputs.derive_seed(seed, 3))
        self.router = inputs.spread_router(seed, 128, 128)

    def setup(self):
        model = model_module.build_model(training.model_config_for(self.config),
                                         tensor.RngState(self.config.seed))
        load_router(model, self.router)
        return {"model": model}

    def instrument(self, tracer: Tracer, rec: Pass) -> None:
        rec.tracer = tracer

        def stepped(_args, _result):
            rec.step_ends[-1].append(time.perf_counter())
            tracer.op += 1

        tracer.wrap(training, "train", "training.train")
        tracer.wrap(training.Adam, "step", "training.optimizer", after=stepped)
        tracer.wrap(training, "total_loss", "training.loss",
                    after=lambda _args, result: rec.losses[-1].append(float(result[0].data)))
        if tracer.enabled:
            instrument_model(tracer, rec, keep_graph=True)

    def warm_up(self, state) -> None:
        state["initial"] = state["model"].state_dict()
        one_step = pipeline.EncodedDataset(x=self.data.x[:BATCH], y=self.data.y[:BATCH],
                                           class_names=self.data.class_names)
        training.train(state["model"], one_step, self.config, tensor.RngState(self.config.seed))

    def run_op(self, state, rec: Pass) -> None:
        model = state["model"]
        if "initial" not in state:
            state["initial"] = model.state_dict()
        # every call trains from the same weights and seed, so its losses repeat
        model.load_state_dict(state["initial"])
        rec.losses.append([])
        rec.tracer.op += 1
        start = time.perf_counter()
        rec.step_ends.append([start])
        try:
            training.train(model, self.data, self.config, tensor.RngState(self.config.seed))
        except TrainingDivergedError:
            pass  # the non-finite loss is recorded; the check fails this call's last steps
        rec.durations.append(time.perf_counter() - start)

    def units(self, rec: Pass) -> int:
        return sum(len(ends) - 1 for ends in rec.step_ends)

    def end_to_end(self, rec: Pass):
        between_returns = [b - a for ends in rec.step_ends for a, b in zip(ends[1:], ends[2:])]
        throughput = len(self.data) * len(rec.durations) / sum(rec.durations)
        named = [("train_samples_per_s", throughput, "1/s", "higher"),
                 ("train_step_p50_s", statistics.median(between_returns), "s", "lower"),
                 ("train_loss_final", rec.losses[0][-1], "nats", "quality guard")]
        return throughput, sum(rec.durations) / self.units(rec) * 1e3, named

    def check(self, untraced: Pass, traced: Pass | None):
        runs = untraced.losses + (traced.losses if traced is not None else [])
        return TRAIN_STEPS * len(runs), checks.check_losses(runs, untraced.losses[0],
                                                            TRAIN_STEPS)


# -- classify -----------------------------------------------------------------------


class Classify:
    name = "classify"
    why = ("checkpointed eval at full scale: bulk predict at batch 1024, then the same "
           "rows in batches of 64, where per-call overhead outweighs BLAS")
    unit = "classify round"

    def __init__(self, seed: int, workdir: Path):
        self.config = full_scale_config(seed)
        self.data = synthetic.make_blobs(EVAL_SAMPLES, seed=inputs.derive_seed(seed, 4))
        self.path = workdir / "model.ckpt"
        self.reference = None
        # The weights to classify with: the seeded init and router of
        # train_full, with batch-norm running statistics taken from one batch
        # of the same distribution, as a trained model would have them.  With
        # the initial statistics (mean 0, variance 1) eval-mode features are
        # far off the training ones and the router sends most rows to the
        # same few experts.
        calibration = replace(training.model_config_for(self.config), bn_momentum=1.0)
        model = model_module.build_model(calibration, tensor.RngState(seed))
        load_router(model, inputs.spread_router(seed, 128, 128))
        batch = synthetic.make_blobs(BATCH, seed=inputs.derive_seed(seed, 5))
        model(tensor.Tensor(batch.x), tensor.RngState(inputs.derive_seed(seed, 6)))
        self.weights = model.state_dict()

    def setup(self):
        original = model_module.build_model(training.model_config_for(self.config),
                                            tensor.RngState(self.config.seed))
        original.load_state_dict(self.weights)
        checkpoint.save_checkpoint(self.path, original, self.config)
        loaded = checkpoint.load_checkpoint(self.path)
        return {"original": original, "model": loaded.model}

    def instrument(self, tracer: Tracer, rec: Pass) -> None:
        rec.tracer = tracer
        tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
        tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")
        tracer.wrap(training, "predict", "training.predict")
        tracer.wrap(metrics.EvalReport, "from_predictions", "metrics.report")
        if tracer.enabled:
            instrument_model(tracer, rec, keep_graph=False)

    def warm_up(self, state) -> None:
        # the reference predictions come from the model before its round trip
        self.reference = training.predict(state["original"], self.data.x, BATCH)
        for start in range(0, 4 * SMALL_BATCH, SMALL_BATCH):
            state["model"](tensor.Tensor(self.data.x[start:start + SMALL_BATCH]))

    def run_op(self, state, rec: Pass) -> None:
        model, x = state["model"], self.data.x
        rec.tracer.op += 1
        start = time.perf_counter()
        bulk = training.predict(model, x, BATCH)
        metrics.EvalReport.from_predictions(self.data.y, bulk, self.data.class_names)
        rec.bulk_s.append(time.perf_counter() - start)
        small, latencies = [], []
        for first in range(0, len(x), SMALL_BATCH):
            began = time.perf_counter()
            logits, _ = model(tensor.Tensor(x[first:first + SMALL_BATCH]))
            latencies.append(time.perf_counter() - began)
            small.append(logits.data.argmax(axis=1))
        rec.small_s.append(latencies)
        rec.durations.append(time.perf_counter() - start)
        rec.outputs.append((bulk, np.concatenate(small)))
        rec.counts["checkpoint.bytes"] = self.path.stat().st_size

    def units(self, rec: Pass) -> int:
        return len(rec.durations)

    def end_to_end(self, rec: Pass):
        latencies = [t for round_ in rec.small_s for t in round_]
        throughput = len(self.data) * len(rec.bulk_s) / sum(rec.bulk_s)
        named = [("eval_samples_per_s", throughput, "1/s", "higher"),
                 ("classify_samples_per_s", len(latencies) * SMALL_BATCH / sum(latencies),
                  "1/s", "higher"),
                 ("classify_batch_p50_ms", statistics.median(latencies) * 1e3, "ms", "lower"),
                 ("classify_batch_p90_ms", statistics.quantiles(latencies, n=10)[-1] * 1e3,
                  "ms", "lower")]
        return throughput, statistics.mean(latencies) * 1e3, named

    def check(self, untraced: Pass, traced: Pass | None):
        per_round = -(-len(self.data) // SMALL_BATCH) + -(-len(self.data) // BATCH)
        failures, attempted = [], 0
        for rec in (untraced, traced) if traced is not None else (untraced,):
            for bulk, small in rec.outputs:
                failures += checks.check_predictions(small, bulk, self.reference,
                                                     SMALL_BATCH, BATCH)
                attempted += per_round
        return attempted, failures


# -- preprocess -----------------------------------------------------------------------


class SkippedLines(logging.Handler):
    """Collects the line numbers the parser reports as skipped."""

    pattern = re.compile(r"\bline (\d+)\b")

    def __init__(self):
        super().__init__()
        self.lines: list[int] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.name.startswith("flowmoe.pipeline"):
            match = self.pattern.search(record.getMessage())
            if match:
                self.lines.append(int(match.group(1)))


class Preprocess:
    name = "preprocess"
    why = ("cold `preprocess` through the CLI on a seeded flow CSV with missing cells and "
           "malformed rows, then a cache load; no model layer runs")
    unit = "preprocess call"

    def __init__(self, seed: int, workdir: Path):
        self.csv = inputs.write_flow_csv(workdir / "flows.csv", seed, CSV_ROWS,
                                         pipeline.FlowSchema())
        self.out = workdir / "prepared"
        self.argv = ["preprocess", "--dataset", str(self.csv.path), "--out", str(self.out),
                     "--seed", str(seed)]
        # Handling the parser's warnings here keeps them off stderr: the CLI
        # only configures logging when the root logger has no handler yet.
        self.skipped = SkippedLines()
        logging.getLogger().addHandler(self.skipped)

    def setup(self):
        """The front door's own set-up: arguments and run config, before any
        data is read."""
        args = cli.make_parser().parse_args(self.argv)
        return {"config": cli.build_run_config(args)}

    def instrument(self, tracer: Tracer, rec: Pass) -> None:
        rec.tracer = tracer
        tracer.wrap(cli, "main", "cli.main")
        if not tracer.enabled:
            return
        for owner in (cli, pipeline):
            tracer.wrap(owner, "dataset_fingerprint", "pipeline.fingerprint")
            tracer.wrap(owner, "save_dataset_cache", "pipeline.cache_save")
            tracer.wrap(owner, "load_dataset_cache", "pipeline.cache_load")
        tracer.wrap(cli, "prepare_dataset", "pipeline.prepare")
        tracer.wrap(pipeline, "parse_flow_csv", "pipeline.parse")
        tracer.wrap(pipeline, "stratified_split", "pipeline.split")
        tracer.wrap(pipeline, "fit_imputers", "pipeline.impute")
        tracer.wrap(pipeline, "apply_imputers", "pipeline.impute")
        tracer.wrap(pipeline, "fit_pipeline_stats", "pipeline.fit_stats")
        tracer.wrap(pipeline, "encode", "pipeline.encode")

    def warm_up(self, state) -> None:
        self.run_op(state, Pass(tracer=Tracer(enabled=False)))

    def run_op(self, state, rec: Pass) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.skipped.lines.clear()
        rec.tracer.op += 1
        cache_path = self.out / cli.CACHE_FILENAME
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        loaded = pipeline.load_dataset_cache(cache_path) if code == 0 else None
        rec.durations.append(time.perf_counter() - start)
        output = self._output(code, loaded)
        rec.outputs.append(output)
        rec.counts.update({
            "pipeline.rows_parsed": output["summary"].get("rows_parsed", 0),
            "pipeline.rows_skipped": output["summary"].get("rows_skipped", 0),
            "pipeline.cache_bytes": cache_path.stat().st_size if cache_path.exists() else 0,
        })

    def _output(self, code: int, loaded) -> dict:
        output = {"code": code, "skipped": list(self.skipped.lines), "summary": {},
                  "shapes": ((0, 0), (0, 0)), "finite": False, "digest": ""}
        if loaded is None:
            return output
        train, test, _ = loaded
        digest = hashlib.sha256()
        for array in (train.x, train.y, test.x, test.y):
            digest.update(np.ascontiguousarray(array).tobytes())
        summary = json.loads((self.out / cli.SUMMARY_FILENAME).read_text())
        output.update(
            summary=summary,
            shapes=tuple((d.x.shape[0], int(np.prod(d.x.shape[1:]))) for d in (train, test)),
            finite=bool(np.isfinite(train.x).all() and np.isfinite(test.x).all()),
            digest=digest.hexdigest(),
        )
        return output

    def units(self, rec: Pass) -> int:
        return len(rec.durations)

    def end_to_end(self, rec: Pass):
        throughput = self.csv.rows * len(rec.durations) / sum(rec.durations)
        named = [("preprocess_rows_per_s", throughput, "1/s", "higher"),
                 ("preprocess_call_p50_s", statistics.median(rec.durations), "s", "lower")]
        return throughput, statistics.mean(rec.durations) * 1e3, named

    def check(self, untraced: Pass, traced: Pass | None):
        reference = untraced.outputs[0]["digest"]
        failures, attempted = [], 0
        for rec in (untraced, traced) if traced is not None else (untraced,):
            for out in rec.outputs:
                failures += checks.check_preprocess(
                    out["code"], out["summary"], out["skipped"], self.csv, out["shapes"],
                    out["finite"], out["digest"], reference)
                attempted += 1
        return attempted, failures


WORKLOADS = {w.name: w for w in (TrainFull, Classify, Preprocess)}
