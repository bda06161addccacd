"""Replay recorded op calls in isolation to time forward and backward per kind.

spans.Tracer keeps the argument shapes of every conv3d, batch_norm, recursion
and fuse call in one traced training step. Each call is rebuilt here from
fresh random leaves of the same shapes (a leaf needs a gradient when the
original argument did), run through the public op, and `tt.backward` is timed
on the sum of its output. The sum node's own backward is one fill of the
output's shape.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from srtg import gate
from srtg import tensor as tt

_OPS = {
    "tensor.conv3d": (tt, "conv3d"),
    "tensor.batch_norm": (tt, "batch_norm"),
    "gate.recursion": (gate, "recursion"),
    "gate.fuse": (gate, "fuse"),
}


def _build(desc, rng):
    if "tensor" in desc:
        return tt.Tensor(rng.standard_normal(desc["tensor"]), requires_grad=desc["grad"])
    if "array" in desc:  # batch-norm running buffers; ones keep the variance valid
        return np.ones(desc["array"])
    if "lstm" in desc:
        return gate.init_lstm_params(desc["lstm"], desc["layers"], rng)
    return desc["value"]


REPEATS = 3


def replay(recorded):
    """Returns {span name: {"calls", "fwd_ms", "bwd_ms"}}, each ms the sum over
    the step's calls of the median of REPEATS timings."""
    rng = np.random.default_rng(0)
    out = {}
    for name, args in recorded:
        fn = getattr(*_OPS[name])
        fwd, bwd = [], []
        for _ in range(REPEATS):
            kwargs = {k: _build(v, rng) for k, v in args.items()}
            t0 = time.perf_counter()
            y = fn(**kwargs)
            t1 = time.perf_counter()
            loss = tt.sum_all(y)
            t2 = time.perf_counter()
            tt.backward(loss)
            t3 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        row = out.setdefault(name, {"calls": 0, "fwd_ms": 0.0, "bwd_ms": 0.0})
        row["calls"] += 1
        row["fwd_ms"] += 1000.0 * statistics.median(fwd)
        row["bwd_ms"] += 1000.0 * statistics.median(bwd)
    return out
