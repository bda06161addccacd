"""Standard gradient-verification battery.

Each check compares the analytic gradients of an op's output, contracted
with grad_check's fixed random cotangent, against central finite differences
(eps 1e-5) and reports the max relative error. Between them the checks run
every tensor op a train step runs. Gated units run with the gate bypassed so
the finite-difference surface stays smooth; the routing a closed gate applies
is checked as `fuse_embedding` under a fixed mask, in both fusion modes. Conv
and block inputs hold two clips, so sums over clips (conv weight gradient,
batch statistics) are checked.
"""

from __future__ import annotations

import numpy as np

from srtg import tensor as tt
from srtg.blocks import Block, block_layouts
from srtg.config import NetworkSpec, StageSpec
from srtg.gate import init_lstm_params, recursion, srtg_unit
from srtg.tensor import Tensor, grad_check

__all__ = ["CHECK_TOLERANCES", "run_checks"]


def _check_primitives():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2, 3, 3, 3)) * 0.4, requires_grad=True)
    v = Tensor(rng.standard_normal((1, 3, 2, 2, 2)) * 0.5, requires_grad=True)
    # the network head: stem pool, global pool, classifier, loss
    hv = Tensor(rng.standard_normal((2, 3, 2, 4, 4)), requires_grad=True)
    hw = Tensor(rng.standard_normal((2, 3)) * 0.5, requires_grad=True)
    hb = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)
    labels = np.array([0, 1])
    # per-clip gate routing: clip 0 fused, clip 1 (gate closed) passed through
    fv = Tensor(rng.standard_normal((2, 3, 2, 2, 2)) * 0.5, requires_grad=True)
    fe = Tensor(rng.standard_normal((2, 2, 3)) * 0.5, requires_grad=True)
    mask = np.array([True, False])
    gamma, beta = (Tensor(rng.standard_normal(2) * 0.1 + k, requires_grad=True) for k in (1, 0))

    def head():
        pooled = tt.global_avg_pool(tt.max_pool3d(hv, (1, 3, 3), (1, 2, 2), (0, 1, 1)))
        return tt.softmax_cross_entropy(tt.affine(pooled, hw, hb), labels)

    cases = [
        # a stride-1 conv's dx is a row correlation, a strided one's a scatter
        (lambda: tt.conv3d(x, w, padding=(1, 1, 1)), [x, w]),
        (lambda: tt.conv3d(x, w, (2, 2, 2), (1, 1, 1)), [x, w]),
        (lambda: tt.sigmoid(tt.spatial_avg_pool(v)), [v]),
        (head, [hv, hw, hb]),
        (lambda: tt.fuse_embedding(fv, fe, True, mask), [fv, fe]),
        (lambda: tt.fuse_embedding(fv, fe, False, mask), [fv, fe]),
        (lambda: tt.batch_norm(tt.conv3d(x, w, padding=(1, 1, 1)), gamma, beta, np.zeros(2),
                               np.ones(2), training=True, relu=True), [w, gamma, beta]),
    ]
    return max(grad_check(f, params) for f, params in cases)


def _check_lstm_layer():
    # a two-layer stack, N=2, T=4, C=2, so the gradient that crosses from one
    # layer to the one below is checked; the input is a parameter so the
    # hand-written BPTT's input gradient is checked too
    rng = np.random.default_rng(1)
    params = init_lstm_params(2, 2, rng)
    leaves = [p for _, p in params.named("l")]
    for bias in leaves[4:8] + leaves[12:]:
        bias.data += rng.standard_normal(2) * 0.5
    xs = Tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
    return grad_check(lambda: recursion(xs, params), [xs] + leaves)


def _check_srtg_unit(mode):
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 3, 4, 2, 2)))
    params = init_lstm_params(3, 2, np.random.default_rng(3))

    def f():
        return srtg_unit(x, params, gate_active=False, mode=mode)[0]

    return grad_check(f, [p for _, p in params.named("l")])


def _check_block(depth_kind):
    # one block of a one-stage network, cin channels in and out
    rng = np.random.default_rng(4)
    cin, width = (3, 3) if depth_kind == "simple" else (4, 1)  # bottlenecks expand 4x
    spec = NetworkSpec(num_classes=2, depth_kind=depth_kind, gate_active=False,
                       stem_channels=cin, stages=[StageSpec(1, width)])
    (_, layout), = block_layouts(spec)
    block = Block(layout, np.random.default_rng(5))
    x = Tensor(rng.standard_normal((2, cin, 3, 3, 3)))
    params = list(block.params.values())

    return grad_check(lambda: block.forward(x, training=True, gate_log=[]), params)


# every check once, in run order: name -> (runner, max relative error allowed)
_CHECKS = {
    "primitives": (_check_primitives, 1e-5),
    "lstm_layer": (_check_lstm_layer, 1e-4),
    "srtg_unit_multiplicative": (lambda: _check_srtg_unit("multiplicative"), 1e-4),
    "srtg_unit_additive": (lambda: _check_srtg_unit("additive"), 1e-4),
    "simple_block_final": (lambda: _check_block("simple"), 1e-4),
    "bottleneck_block_final": (lambda: _check_block("bottleneck"), 1e-4),
}
CHECK_TOLERANCES = {name: tol for name, (_, tol) in _CHECKS.items()}


def run_checks(targets=None) -> tuple[dict[str, float], dict[str, str]]:
    """Run the named checks (default: all), each even if another raised: returns
    {name: max rel error} of those that ran through, {name: message} of the rest."""
    unknown = [name for name in targets or () if name not in _CHECKS]
    if unknown:  # refused before any check runs
        raise ValueError(f"unknown grad-check target {unknown[0]!r}")
    errors, raised = {}, {}
    for name in targets or _CHECKS:
        try:
            errors[name] = _CHECKS[name][0]()
        except Exception as e:  # a broken gradient can raise anything; report it as failed
            raised[name] = f"{type(e).__name__}: {e}".splitlines()[0]
    return errors, raised
