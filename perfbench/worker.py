"""Run one benchmark workload in this process and write its result as JSON.

Started by run.py with OpenBLAS/OMP/MKL pinned to one thread in the
environment, so the pins hold before numpy is imported. It drives the library
the way `srtg gen-data`, `srtg train` and `srtg evaluate` do:

* set-up: generate, save and reload the dataset, build the Network and SGD,
  and check the analytic r3d-34 count;
* training: `train.train()` one epoch per call (`start_epoch`/`stop_after`,
  the resume path), each call with its val pass, metrics.csv row and
  checkpoint.bin write;
* evaluation: `checkpoint_load` + `apply_checkpoint` into a fresh Network
  built from the checkpoint's embedded config, then repeated `evaluate()`
  passes over the val split.

Every epoch and evaluate() pass is timed in wall and in reference seconds
(reference.py). With --trace, untraced epochs alternate with epochs under spans.Tracer, and
the recorded op calls of one traced training step are replayed for backward
time per op kind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import time

import numpy as np

from srtg import config, data, opcount
from srtg import train as training
from srtg.blocks import Network

import replay
import spans
from reference import RUNS_PER_REF_SECOND, Reference
from workloads import (DATA_CONFIG, NET_CONFIG, R3D34_CONFIG, R3D34_GFLOPS, R3D34_INPUT,
                       TOP1_FLOOR, WORKLOADS)

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EVAL_SHARE = 0.3  # share of the measured time spent in evaluate() passes


def median_rate(items, samples):
    """Items per (wall or reference) second of the median sample; 0 when
    training diverged before the first sample."""
    return items / statistics.median(samples) if samples else 0.0


class Run:
    """One workload's data, network, optimizer and bookkeeping."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.metrics_path = os.path.join(workdir, "metrics.csv")
        self.checkpoint_path = os.path.join(workdir, "checkpoint.bin")
        self.reference = Reference()
        # wall and reference seconds of every timed sample
        self.epoch_seconds, self.epoch_ref = [], []
        self.eval_seconds, self.eval_ref = [], []
        self.checks = []  # (name, passed)
        self.failed_steps = 0
        self.run_rows = []  # history rows of the training run in progress
        self.first_run = None  # history rows of the first complete run
        self.last_row = None

    # -- set-up -------------------------------------------------------------

    def setup(self):
        w = self.w
        dcfg = config.read_config(DATA_CONFIG)
        config.apply_overrides(dcfg, [*w.data_overrides, f"synthetic.seed={self.seed}"])
        train_ds, val_ds = data.generate(config.synthetic_spec(dcfg))

        cfg = config.read_config(NET_CONFIG)
        config.apply_overrides(cfg, [
            *w.net_overrides,
            f"train.seed={self.seed}",
            f"data.train={os.path.join(self.workdir, 'train.bin')}",
            f"data.val={os.path.join(self.workdir, 'val.bin')}",
        ])
        train_path, val_path = config.data_paths(cfg)
        data.save_dataset(train_path, train_ds)
        data.save_dataset(val_path, val_ds)
        self.train_ds = data.load_dataset(train_path)
        self.val_ds = data.load_dataset(val_path)
        self.dataset_bytes = os.path.getsize(train_path) + os.path.getsize(val_path)

        self.net_spec = config.network_spec(cfg)
        self.train_cfg = config.train_config(cfg)
        self.net_sections = {s: dict(cfg[s]) for s in cfg
                             if s == "network" or s.startswith("stage")}
        self.new_model()

        r3d = config.network_spec(config.read_config(R3D34_CONFIG))
        gflops = 2.0 * opcount.count_macs(r3d, R3D34_INPUT).total / 1e9
        self.checks.append(("r3d34_gflops", round(gflops, 2) == R3D34_GFLOPS))
        c, t, h, wd = self.train_ds.clips.shape[1:]
        self.macs = opcount.count_macs(
            self.net_spec, (c, min(t, self.train_cfg.frames_per_clip), h, wd))

    def new_model(self):
        """Fresh Network and SGD for a training run, as `srtg train` builds them."""
        self.net = Network(self.net_spec, seed=self.train_cfg.seed)
        self.optimizer = training.SGD(self.net.named_params(), self.train_cfg.momentum,
                                      self.train_cfg.weight_decay)
        self.run_rows = []

    # -- training -----------------------------------------------------------

    @property
    def steps_per_epoch(self):
        return math.ceil(len(self.train_ds) / self.train_cfg.batch_size)

    @property
    def batches_per_eval(self):
        return math.ceil(len(self.val_ds) / self.train_cfg.batch_size)

    def train_epoch(self):
        """One `train()` call for the next epoch of the training run in
        progress; a run that completes its schedule is followed by a fresh
        one. Returns the epoch's reference seconds, or None if training
        diverged."""
        epoch = len(self.run_rows) + 1
        try:
            (_, history), seconds, ref = self.reference.ref_seconds(lambda: training.train(
                self.net, self.train_ds, self.val_ds, self.train_cfg,
                metrics_path=self.metrics_path,
                checkpoint_path=self.checkpoint_path,
                start_epoch=epoch - 1,
                optimizer=self.optimizer,
                stop_after=epoch,
                net_config=self.net_sections,
            ))
        except training.TrainingDivergedError:
            self.failed_steps += self.steps_per_epoch
            self.checks.append(("finite_loss", False))
            return None
        self.epoch_seconds.append(seconds)
        self.epoch_ref.append(ref)
        self.last_row = history[-1]
        self.run_rows.append(self.last_row)
        self.checks.append(("finite_loss", bool(np.isfinite(self.last_row["loss"]))))
        if self.first_run is None and epoch == self.w.floor_epochs:
            best = max(row["top1"] for row in self.run_rows)
            self.checks.append(("val_top1_floor", best >= TOP1_FLOOR))
        if epoch == self.train_cfg.epochs:
            self.finish_run()
        return ref

    def finish_run(self):
        """Every complete run after the first must repeat the first one's
        history exactly (same seed, same schedule)."""
        if self.first_run is None:
            self.first_run = self.run_rows
        else:
            self.checks.append(("rerun_reproduces_history", self.run_rows == self.first_run))
        self.new_model()

    # -- evaluation ---------------------------------------------------------

    def restore(self):
        """Fresh Network from the checkpoint alone, as `srtg evaluate` builds it."""
        state = training.checkpoint_load(self.checkpoint_path)
        cfg = config.apply_overrides(dict(state["net_config"]), [])
        net = Network(config.network_spec(cfg), seed=0)
        training.apply_checkpoint(net, None, state)
        return net

    def eval_pass(self, net):
        """One timed evaluate() pass over the val split; it must reproduce the
        last in-training val top-1, top-5 and gate-open rates exactly."""
        m, seconds, ref = self.reference.ref_seconds(
            lambda: training.evaluate(net, self.val_ds, batch_size=self.train_cfg.batch_size))
        self.eval_seconds.append(seconds)
        self.eval_ref.append(ref)
        last = self.last_row
        same = (m.top1 == last["top1"] and m.top5 == last["top5"] and all(
            m.gate_open_rates.get(u, 1.0) == last[f"gate_open_rate.{u}"]
            for u in net.srtg_unit_names()))
        self.checks.append(("reload_reproduces_val", same))

    # -- result -------------------------------------------------------------

    def counts(self):
        trained = len(self.epoch_seconds) * self.steps_per_epoch + self.failed_steps
        attempted = (trained + len(self.eval_seconds) * self.batches_per_eval
                     + len(self.checks))
        failed = self.failed_steps + sum(1 for _, ok in self.checks if not ok)
        return attempted, failed


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
    }


def timed_setup(run, t0_wall):
    """Set up; returns set-up time from process start in wall and in
    reference seconds (against the median of three kernel runs after it)."""
    run.setup()
    wall = time.time() - t0_wall
    kernel = statistics.median(run.reference.seconds() for _ in range(3))
    return {"setup_wall_s": wall, "setup_s": wall / (RUNS_PER_REF_SECOND * kernel)}


def run_plain(run, seconds, t0_wall):
    """Alternate training epochs with evaluate() passes of the checkpoint each
    epoch wrote, so both rates sample the whole run."""
    result = timed_setup(run, t0_wall)
    start = time.perf_counter()
    while (len(run.epoch_seconds) < run.w.floor_epochs
           or time.perf_counter() - start < seconds):
        if run.train_epoch() is None:
            break
        net = run.restore()
        while sum(run.eval_seconds) < EVAL_SHARE / (1 - EVAL_SHARE) * sum(run.epoch_seconds):
            run.eval_pass(net)
    return {
        **result,
        "train_clips_per_ref_s": median_rate(len(run.train_ds), run.epoch_ref),
        "eval_clips_per_ref_s": median_rate(len(run.val_ds), run.eval_ref),
        "train_clips_per_s": median_rate(len(run.train_ds), run.epoch_seconds),
        "eval_clips_per_s": median_rate(len(run.val_ds), run.eval_seconds),
        "epoch_seconds": run.epoch_seconds,
        "eval_seconds": run.eval_seconds,
    }


def run_traced(run, seconds):
    """Untraced and traced epochs alternate, for the tracing overhead; then
    traced checkpoint loads and evaluate() passes, and the op replay."""
    tracer = spans.Tracer()
    with tracer.installed():
        run.setup()
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(run.epoch_seconds) < run.w.floor_epochs
           or time.perf_counter() - start < (1 - EVAL_SHARE) * seconds):
        seconds_untraced = run.train_epoch()
        with tracer.installed():
            seconds_traced = seconds_untraced and run.train_epoch()
        if not seconds_traced:
            break
        untraced.append(seconds_untraced)
        traced.append(seconds_traced)
    if not traced:  # diverged before a traced epoch: the checks report it
        return {"per_layer": {}}
    with tracer.installed():
        for _ in range(3):
            training.checkpoint_load(run.checkpoint_path)
        net = run.restore()
        start = time.perf_counter()
        while len(run.eval_seconds) < 3 or time.perf_counter() - start < EVAL_SHARE * seconds / 2:
            run.eval_pass(net)
    replayed = replay.replay(tracer.recorded)
    tracer.write(os.path.join(run.workdir, "spans.csv"))

    def train_ms(name, self_time=False):
        return tracer.median_step_ms("train", name, self_time)

    def eval_ms(name, self_time=False):
        return tracer.median_step_ms("eval", name, self_time)

    def per_step_calls(kind, name):
        return statistics.median_low(c for _, c in tracer.per_step(kind, name))

    conv_macs_per_step = run.macs.totals["convolutions"] * run.train_cfg.batch_size
    conv_fwd_ms = train_ms("tensor.conv3d")
    untraced_rate = median_rate(len(run.train_ds), untraced)
    traced_rate = median_rate(len(run.train_ds), traced)
    op_spans = [f"tensor.{n}" for n in spans.TENSOR_OPS]
    m = {
        "tensor.conv3d.fwd_ms": (conv_fwd_ms, "ms"),
        "tensor.conv3d.bwd_ms": (replayed["tensor.conv3d"]["bwd_ms"], "ms"),
        "tensor.conv3d.calls": (per_step_calls("train", "tensor.conv3d"), "count"),
        "tensor.conv3d.gmacs_per_s": (conv_macs_per_step / conv_fwd_ms / 1e6, "GMAC/s"),
        "tensor.backward_ms": (train_ms("tensor.backward"), "ms"),
        "tensor.batch_norm.fwd_ms": (train_ms("tensor.batch_norm"), "ms"),
        "tensor.batch_norm.bwd_ms": (replayed["tensor.batch_norm"]["bwd_ms"], "ms"),
        "tensor.op_calls": (tracer.calls_in_step(tracer.record_step, op_spans), "count"),
        "gate.srtg_unit_ms": (eval_ms("gate.srtg_unit"), "ms"),
        "gate.srtg_unit.self_ms": (eval_ms("gate.srtg_unit", True), "ms"),
        "gate.squeeze_ms": (eval_ms("gate.squeeze"), "ms"),
        "gate.cycle_consistent_ms": (eval_ms("gate.cycle_consistent"), "ms"),
        "gate.cycle_consistent.calls": (per_step_calls("eval", "gate.cycle_consistent"),
                                        "count"),
        "gate.recursion_ms": (eval_ms("gate.recursion"), "ms"),
        "gate.recursion.bwd_ms": (replayed.get("gate.recursion", {}).get("bwd_ms", 0.0),
                                  "ms"),
        "gate.fuse_ms": (eval_ms("gate.fuse"), "ms"),
        "gate.fuse.bwd_ms": (replayed.get("gate.fuse", {}).get("bwd_ms", 0.0), "ms"),
        "gate.fused_fraction": (tracer.fused / tracer.decisions if tracer.decisions else 0.0,
                                "ratio"),
        "gate.decisions": (tracer.decisions, "count"),
        "blocks.forward_train_ms": (train_ms("blocks.forward"), "ms"),
        "blocks.forward_eval_ms": (eval_ms("blocks.forward"), "ms"),
        "blocks.self_ms": (train_ms("blocks.forward", True), "ms"),
        "train.sgd_step_ms": (train_ms("train.sgd_step"), "ms"),
        "train.evaluate_ms": (tracer.median_call_ms("train.evaluate"), "ms"),
        "train.checkpoint_save_ms": (tracer.median_call_ms("train.checkpoint_save"), "ms"),
        "train.checkpoint_load_ms": (tracer.median_call_ms("train.checkpoint_load"), "ms"),
        "train.checkpoint_bytes": (os.path.getsize(run.checkpoint_path), "bytes"),
        "data.generate_ms": (tracer.setup_ms("data.generate"), "ms"),
        "data.save_dataset_ms": (tracer.setup_ms("data.save_dataset"), "ms"),
        "data.load_dataset_ms": (tracer.setup_ms("data.load_dataset"), "ms"),
        "data.dataset_bytes": (run.dataset_bytes, "bytes"),
        "opcount.count_macs_ms": (tracer.setup_ms("opcount.count_macs"), "ms"),
        "opcount.macs_per_clip": (run.macs.total, "MAC"),
        "opcount.conv_macs_per_step": (conv_macs_per_step, "MAC"),
        "trace.untraced_train_clips_per_ref_s": (untraced_rate, "clips/ref-s"),
        "trace.train_clips_per_ref_s": (traced_rate, "clips/ref-s"),
        "trace.overhead_share": (1.0 - traced_rate / untraced_rate, "ratio"),
    }
    return {
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        "span_table": tracer.table(),
        "replay": replayed,
        "spans": len(tracer.spans),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="wall-clock time at which the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, args.workdir)
    if args.setup_only:
        result = timed_setup(run, args.t0)
    elif args.trace:
        result = run_traced(run, args.seconds)
    else:
        result = run_plain(run, args.seconds, args.t0)
    attempted, failed = run.counts()
    result.update({
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [name for name, ok in run.checks if not ok],
        "checks": len(run.checks),
        "epochs": len(run.epoch_seconds),
        "eval_passes": len(run.eval_seconds),
        "val_top1": run.last_row["top1"] if run.last_row else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_kernel_ms": 1000.0 * statistics.median(run.reference.kernel_seconds or [0.0]),
        "environment": environment(),
    })
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
