"""Span recorder that times calls into the library's public functions.

Each public function is replaced, at the name its caller looks it up, by a
wrapper that records one span: name, start, end, parent span and step id.
Nothing inside the engine is hooked, so a span of `tensor.conv3d` covers the
op's forward only; backward cost per op kind comes from replay.py.

A step starts at every `Network.forward`: a training forward opens a train
step, an eval forward opens an eval batch. Spans stay in memory and are
written once, by `write`, when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np

from srtg import blocks, data, gate, opcount
from srtg import tensor as tt
from srtg import train as training
from srtg.gate import LstmParams

# numpy helpers and tape machinery that are not ops; stable_softmax alone is
# called 2*N*T times per gated unit by the cycle check, so spanning it would
# mostly measure the recorder
_NOT_OPS = {"stable_softmax", "backward", "grad_check", "no_grad"}
TENSOR_OPS = tuple(
    n for n in tt.__all__ if n not in _NOT_OPS and inspect.isfunction(getattr(tt, n))
)
# calls whose argument shapes are kept for replay.py
REPLAYED = ("tensor.conv3d", "tensor.batch_norm", "gate.recursion", "gate.fuse")


def _describe(value):
    """Shape-only description of one argument, so a recorded call keeps no
    activation or tape alive."""
    if isinstance(value, tt.Tensor):
        return {"tensor": list(value.data.shape), "grad": value.needs_grad}
    if isinstance(value, np.ndarray):
        return {"array": list(value.shape)}
    if isinstance(value, LstmParams):
        return {"lstm": value.layers[0].b_f.data.shape[0], "layers": len(value.layers)}
    return {"value": value}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, step id)
        self.spans: list[tuple] = []
        self.step = -1
        self.step_kinds: list[str] = []
        self.decisions = 0
        self.fused = 0
        self.record_step = None  # train step whose replayed calls are kept
        self.recorded: list[tuple[str, dict]] = []
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if name in REPLAYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None and self.step == self.record_step:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.recorded.append(
                    (name, {k: _describe(v) for k, v in bound.arguments.items()})
                )
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.step)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _forward(self, fn):
        inner = self._wrap("blocks.forward", fn)

        @functools.wraps(fn)
        def forward(net, batch, training=False):
            self.step += 1
            self.step_kinds.append("train" if training else "eval")
            if training and self.record_step is None:
                self.record_step = self.step
            return inner(net, batch, training)

        return forward

    def _count_decisions(self, result):
        _, decisions = result
        self.decisions += len(decisions)
        self.fused += sum(1 for d in decisions if d.fused)

    def _targets(self):
        """(owner, attribute, span name, hook) for every wrapped function,
        keyed by the module each caller looks the name up in."""
        yield from ((tt, n, f"tensor.{n}", None) for n in TENSOR_OPS)
        yield blocks, "srtg_unit", "gate.srtg_unit", self._count_decisions
        for n in ("squeeze", "recursion", "cycle_consistent", "fuse"):
            yield gate, n, f"gate.{n}", None
        yield training, "backward", "tensor.backward", None
        yield training, "evaluate", "train.evaluate", None
        yield training, "checkpoint_save", "train.checkpoint_save", None
        yield training, "checkpoint_load", "train.checkpoint_load", None
        yield training.SGD, "step", "train.sgd_step", None
        for n in ("generate", "save_dataset", "load_dataset"):
            yield data, n, f"data.{n}", None
        yield opcount, "count_macs", "opcount.count_macs", None

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            fn = blocks.Network.forward
            saved.append((blocks.Network, "forward", fn))
            blocks.Network.forward = self._forward(fn)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_step(self, kind, names, self_time=False):
        """For each step of `kind` ("train" or "eval"): (summed ms, calls) of
        the spans whose name is in `names`."""
        names = {names} if isinstance(names, str) else set(names)
        selfs = self.self_times() if self_time else None
        steps = {s: [0.0, 0] for s, k in enumerate(self.step_kinds) if k == kind}
        for i, (name, start, end, _, step) in enumerate(self.spans):
            if name in names and step in steps:
                acc = steps[step]
                acc[0] += 1000.0 * (selfs[i] if self_time else end - start)
                acc[1] += 1
        return list(steps.values())

    def median_step_ms(self, kind, names, self_time=False):
        rows = self.per_step(kind, names, self_time)
        return statistics.median(ms for ms, _ in rows) if rows else 0.0

    def median_call_ms(self, name):
        durs = [1000.0 * (e - s) for n, s, e, _, _ in self.spans if n == name]
        return statistics.median(durs) if durs else 0.0

    def setup_ms(self, name):
        """Total ms of `name` spans recorded before the first step."""
        return sum(1000.0 * (e - s) for n, s, e, _, step in self.spans
                   if n == name and step < 0)

    def calls_in_step(self, step, names):
        names = set(names)
        return sum(1 for n, _, _, _, s in self.spans if s == step and n in names)

    def table(self):
        """Per span name: calls, total ms and self ms over the whole trace."""
        out = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1000.0 * (end - start)
            row["self_ms"] += 1000.0 * self_s
        return dict(sorted(out.items()))

    def write(self, path):
        """One CSV row per span; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_us,end_us,parent,step,kind\n")
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                kind = self.step_kinds[step] if step >= 0 else "setup"
                fh.write(f"{i},{name},{1e6 * (start - t0):.1f},{1e6 * (end - t0):.1f},"
                         f"{parent},{step},{kind}\n")
