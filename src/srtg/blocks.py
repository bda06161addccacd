"""Residual blocks with optional gated recurrent units, and small networks.

A block is described once, by its weight-free layout (`block_layout`), cut
from the validated `NetworkSpec`: the conv steps of the main path, the
projection skip, where the gated unit sits and how wide it is, and the conv
kind and gate switch it runs under. `route` is the only
statement of how those pieces are wired, and `block_layouts` the only loop
over stages and blocks. `Block.forward` runs `route` on tensors;
`srtg.opcount.count_macs` runs it on shapes, so the op count prices the
network that trains without allocating its weights. Each step's op list
(`step_ops`) both draws its weights into a flat store keyed by checkpoint
name and runs the step, so the store's order is the draw order and the
checkpoint's array table.

Simple blocks run two 3x3x3 convolutions, bottleneck blocks run a 1x1x1
reduce / 3x3x3 / 1x1x1 expand triple (stride on the middle conv). Either kind
can swap full 3D convolutions for a (2+1)D factorization (`step_ops`).
A gated unit can be wired at six insertion points.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from srtg import tensor as tt
from srtg.config import NetworkSpec
from srtg.gate import init_lstm_params, srtg_unit
from srtg.tensor import Tensor

__all__ = [
    "ConvStep",
    "BlockLayout",
    "block_layout",
    "route",
    "block_layouts",
    "step_ops",
    "Block",
    "Network",
]

BOTTLENECK_EXPANSION = 4


# ---------------------------------------------------------------------------
# layout: what a block computes, without weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvStep:
    """One conv followed by batch norm, and by a relu when `relu` is set."""

    tag: str
    in_ch: int
    out_ch: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    relu: bool = True


@dataclass(frozen=True)
class BlockLayout:
    """Main-path conv steps, the projection skip (None for identity), the
    gated unit's place and width, and the network-wide choices the block runs
    under. `gate_at` is a main-path position (0 before the first step, i after
    step i), "res" (on the skip), "final" (after the join) or None (no unit)."""

    convs: tuple[ConvStep, ...]
    skip: ConvStep | None
    gate_at: int | str | None
    gate_channels: int
    conv_kind: str
    gate_active: bool


def block_layout(spec: NetworkSpec, in_ch: int, out_ch: int, stride) -> BlockLayout:
    """The layout of one `in_ch` -> `out_ch` block of `spec`, whose kinds and
    placement `NetworkSpec` has already checked."""
    if spec.depth_kind == "simple":
        convs = (
            ConvStep("conv1", in_ch, out_ch, (3, 3, 3), stride),
            ConvStep("conv2", out_ch, out_ch, (3, 3, 3), relu=False),
        )
    else:
        mid = out_ch // BOTTLENECK_EXPANSION
        convs = (
            ConvStep("conv1", in_ch, mid, (1, 1, 1)),
            ConvStep("conv2", mid, mid, (3, 3, 3), stride),
            ConvStep("conv3", mid, out_ch, (1, 1, 1), relu=False),
        )
    skip = None
    if in_ch != out_ch or stride != (1, 1, 1):
        skip = ConvStep("down", in_ch, out_ch, (1, 1, 1), stride, relu=False)
    positions = {"none": None, "start": 0, "top": 1, "mid": len(convs) - 1, "end": len(convs)}
    gate_at = positions.get(spec.placement, spec.placement)
    on_main = isinstance(gate_at, int) and gate_at < len(convs)
    return BlockLayout(convs, skip, gate_at, convs[gate_at].in_ch if on_main else out_ch,
                       spec.conv_kind, spec.gate_active)


def route(layout: BlockLayout, x, conv, gate, join):
    """Wire one block: the main-path steps with the gate at its position, the
    (projected) skip from the possibly gated input, then the join.

    `conv(step, v)`, `gate(v)` and `join(main, skip)` act on whatever `x` is:
    tensors in the forward pass, shapes in the op count.
    """
    if layout.gate_at == 0:
        x = gate(x)
    h = x
    for pos, step in enumerate(layout.convs, start=1):
        h = conv(step, h)
        if layout.gate_at == pos:
            h = gate(h)
    skip = x if layout.skip is None else conv(layout.skip, x)
    if layout.gate_at == "res":
        skip = gate(skip)
    out = join(h, skip)
    if layout.gate_at == "final":
        out = gate(out)
    return out


def block_layouts(spec: NetworkSpec):
    """(name, BlockLayout) for every block of the network, in forward order."""
    expansion = BOTTLENECK_EXPANSION if spec.depth_kind == "bottleneck" else 1
    in_ch = spec.stem_channels
    for si, stage in enumerate(spec.stages, start=1):
        out_ch = stage.channels * expansion
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else (1, 1, 1)
            yield f"stage{si}.block{bi}", block_layout(spec, in_ch, out_ch, stride)
            in_ch = out_ch


# ---------------------------------------------------------------------------
# weights: one flat store of checkpoint-named arrays
# ---------------------------------------------------------------------------


def step_ops(step: ConvStep, conv_kind: str, conv: str, norm: str):
    """The (conv part, weight name, norm name) ops one step runs, in draw and
    checkpoint order: the step itself, or under (2+1)D (Tran et al. 2018) a
    1xkxk spatial conv normalized by `<conv>.mid_bn` and relu'd, then a kx1x1
    temporal conv under the step's own norm, both out_ch wide. 1x1x1 steps
    are never factorized."""
    if conv_kind != "two_plus_one_d" or step.kernel == (1, 1, 1):
        return ((step, conv, norm),)
    kt, kh, kw = step.kernel
    st, sh, sw = step.stride
    spatial = replace(step, tag="spatial", kernel=(1, kh, kw), stride=(1, sh, sw), relu=True)
    temporal = replace(step, tag="temporal", in_ch=step.out_ch, kernel=(kt, 1, 1),
                       stride=(st, 1, 1))
    return ((spatial, f"{conv}.spatial", f"{conv}.mid_bn"),
            (temporal, f"{conv}.temporal", norm))


class _Store:
    """Parameters {checkpoint name: Tensor} and batch-norm buffers
    {name: ndarray}, in draw order. A conv op draws its weights here and runs
    against them: a bias-free He-initialized conv padded by k // 2, then batch
    norm (and the part's relu)."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _add_op(self, op, rng):
        part, conv, norm = op
        kt, kh, kw = part.kernel
        std = np.sqrt(2.0 / (part.in_ch * kt * kh * kw))
        self.params[f"{conv}.weight"] = Tensor(
            rng.standard_normal((part.out_ch, part.in_ch, kt, kh, kw)) * std, requires_grad=True)
        self.params[f"{norm}.gamma"] = Tensor(np.ones(part.out_ch), requires_grad=True)
        self.params[f"{norm}.beta"] = Tensor(np.zeros(part.out_ch), requires_grad=True)
        self.buffers[f"{norm}.running_mean"] = np.zeros(part.out_ch)
        self.buffers[f"{norm}.running_var"] = np.ones(part.out_ch)

    def _run_op(self, op, x, training):
        part, conv, norm = op
        w, pad = self.params[f"{conv}.weight"], tuple(k // 2 for k in part.kernel)
        gamma, beta = self.params[f"{norm}.gamma"], self.params[f"{norm}.beta"]
        mean, var = self.buffers[f"{norm}.running_mean"], self.buffers[f"{norm}.running_var"]
        if training and part.kernel == (1, 1, 1) and part.in_ch < part.out_ch:
            # an expansion's norm, from the statistics of its narrow input
            return tt.pointwise_conv_norm(x, w, gamma, beta, mean, var, part.stride,
                                          relu=part.relu)
        if training:  # batch_norm consumes h, a fresh conv output that nothing else reads
            return tt.batch_norm(tt.conv3d(x, w, part.stride, pad), gamma, beta, mean, var,
                                 relu=part.relu)
        # eval folds the norm into the conv (Jacob et al. 2018), s = gamma / sqrt(var + eps):
        # conv(x, w * s) + (beta - mean * s), shifted and clamped in place as no tape records
        s = gamma.data / np.sqrt(var + tt.BN_EPS)
        h = tt.conv3d(x, Tensor(w.data * s[:, None, None, None, None]), part.stride, pad)
        rows = h.data.reshape(len(h.data), len(s), -1)
        rows += (beta.data - mean * s)[:, None]
        if part.relu:
            np.maximum(rows, 0.0, out=rows)
        return h

    def named_params(self):
        yield from self.params.items()

    def named_buffers(self):
        yield from self.buffers.items()


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class Block(_Store):
    """A residual block instantiated from its layout. Its weights are named
    `<name>.convN`/`bnN` on the main path, `down_conv`/`down_bn` on the skip
    and `srtg.lstm` for the gated unit, and drawn in that order."""

    def __init__(self, layout: BlockLayout, rng, name="block"):
        super().__init__()
        self.layout = layout
        self.name = name
        steps = [(step, step.tag, f"bn{i}") for i, step in enumerate(layout.convs, start=1)]
        if layout.skip is not None:
            steps.append((layout.skip, "down_conv", "down_bn"))
        self._ops = {}  # step tag -> its ops
        for step, conv, norm in steps:
            ops = step_ops(step, layout.conv_kind, f"{name}.{conv}", f"{name}.{norm}")
            self._ops[step.tag] = ops
            for op in ops:
                self._add_op(op, rng)
        self.lstm = None
        if layout.gate_at is not None:
            self.lstm = init_lstm_params(layout.gate_channels, 2, rng)
            self.params.update(self.lstm.named(f"{name}.srtg.lstm"))

    def forward(self, x, training, gate_log):
        """The block on x; an eval forward (not `training`) records no tape."""
        def conv(step, h):
            for op in self._ops[step.tag]:
                h = self._run_op(op, h, training)
            return h

        def gate(h):
            out, decisions = srtg_unit(h, self.lstm, self.layout.gate_active)
            gate_log.append((f"{self.name}.srtg", decisions))
            return out

        with nullcontext() if training else tt.no_grad():
            return route(self.layout, x, conv, gate, tt.add_relu)


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


class Network(_Store):
    """Stem conv -> stages of residual blocks -> global average pool -> linear.
    The store holds the stem's weights, each block's store and the head's."""

    def __init__(self, spec: NetworkSpec, seed=0):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        self._stem = (ConvStep("stem", spec.in_channels, spec.stem_channels,
                               spec.stem_kernel, spec.stem_stride), "stem.conv", "stem.bn")
        self._add_op(self._stem, rng)
        self.blocks = [Block(layout, rng, name) for name, layout in block_layouts(spec)]
        for block in self.blocks:
            self.params.update(block.params)
            self.buffers.update(block.buffers)
        in_ch = self.blocks[-1].layout.convs[-1].out_ch
        bound = 1.0 / np.sqrt(in_ch)
        self.params["head.weight"] = Tensor(
            rng.uniform(-bound, bound, size=(spec.num_classes, in_ch)), requires_grad=True)
        self.params["head.bias"] = Tensor(np.zeros(spec.num_classes), requires_grad=True)

    def forward(self, batch, training=False):
        """(logits, gate log) of batch, an (N, C, T, H, W) Tensor or array, the
        log in unit order. An eval forward (not `training`) records no tape."""
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.data.ndim != 5 or x.data.shape[1] != self.spec.in_channels:
            raise tt.ShapeError(
                f"network stem expects (N, {self.spec.in_channels}, T, H, W), "
                f"got {x.data.shape}"
            )
        gate_log = []
        with nullcontext() if training else tt.no_grad():
            h = self._run_op(self._stem, x, training)
            if self.spec.stem_pool_kernel is not None:
                k = self.spec.stem_pool_kernel
                h = tt.max_pool3d(h, k, self.spec.stem_pool_stride, tuple(e // 2 for e in k))
            for block in self.blocks:
                h = block.forward(h, training, gate_log)
            pooled = tt.global_avg_pool(h)
            logits = tt.affine(pooled, self.params["head.weight"], self.params["head.bias"])
        return logits, gate_log

    def srtg_unit_names(self):
        return [f"{block.name}.srtg" for block in self.blocks if block.lstm is not None]
