"""Residual blocks with optional gated recurrent units, and small networks.

One weight-free layout per block (`block_layout`) says everything about it:
the conv steps of the main path, the projection skip, and where the gated
unit sits and how wide it is. `route` is the only statement of how those
pieces are wired, and `block_specs` the only loop over stages and blocks.
`Block.forward` runs `route` on tensors; `srtg.opcount.count_macs` runs it on
shapes, so the op count prices the network that trains without allocating
its weights.

Simple blocks run two 3x3x3 convolutions, bottleneck blocks run a 1x1x1
reduce / 3x3x3 / 1x1x1 expand triple (stride on the middle conv). Either kind
can swap full 3D convolutions for a (2+1)D factorization (`st_conv_parts`).
A gated unit can be wired at six insertion points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from srtg import tensor as tt
from srtg.config import CONV_KINDS, PLACEMENTS, NetworkSpec
from srtg.gate import init_lstm_params, srtg_unit
from srtg.tensor import Tensor

__all__ = [
    "BlockSpecError",
    "BlockSpec",
    "SIMPLE_PLACEMENTS",
    "BOTTLENECK_PLACEMENTS",
    "ConvStep",
    "BlockLayout",
    "block_layout",
    "st_conv_parts",
    "route",
    "block_specs",
    "Block",
    "build_block",
    "Network",
]

SIMPLE_PLACEMENTS = PLACEMENTS["simple"]
BOTTLENECK_PLACEMENTS = PLACEMENTS["bottleneck"]
BOTTLENECK_EXPANSION = 4


class BlockSpecError(ValueError):
    """Invalid block construction descriptor."""


@dataclass
class BlockSpec:
    depth_kind: str  # simple | bottleneck
    conv_kind: str  # full_3d | two_plus_one_d
    placement: str
    in_channels: int
    out_channels: int
    stride: tuple[int, int, int] = (1, 1, 1)
    fusion_mode: str = "multiplicative"
    gate_active: bool = True

    def __post_init__(self):
        if self.depth_kind not in PLACEMENTS:
            raise BlockSpecError(f"unknown depth_kind {self.depth_kind!r}")
        if self.conv_kind not in CONV_KINDS:
            raise BlockSpecError(f"unknown conv_kind {self.conv_kind!r}")
        allowed = PLACEMENTS[self.depth_kind]
        if self.placement not in allowed:
            raise BlockSpecError(
                f"placement {self.placement!r} not valid for {self.depth_kind} blocks "
                f"(allowed: {', '.join(allowed)})"
            )
        if self.in_channels < 1 or self.out_channels < 1:
            raise BlockSpecError("channel counts must be positive")
        if self.depth_kind == "bottleneck" and self.out_channels % BOTTLENECK_EXPANSION:
            raise BlockSpecError(
                f"bottleneck out_channels must be divisible by {BOTTLENECK_EXPANSION}"
            )


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
    """Main-path conv steps, the projection skip (None for identity) and the
    gated unit's place and width. `gate_at` is a main-path position (0 before
    the first step, i after step i), "res" (on the skip), "final" (after the
    join) or None (no unit)."""

    convs: tuple[ConvStep, ...]
    skip: ConvStep | None
    gate_at: int | str | None
    gate_channels: int


def block_layout(spec: BlockSpec) -> BlockLayout:
    out = spec.out_channels
    if spec.depth_kind == "simple":
        convs = (
            ConvStep("conv1", spec.in_channels, out, (3, 3, 3), spec.stride),
            ConvStep("conv2", out, out, (3, 3, 3), relu=False),
        )
    else:
        mid = out // BOTTLENECK_EXPANSION
        convs = (
            ConvStep("conv1", spec.in_channels, mid, (1, 1, 1)),
            ConvStep("conv2", mid, mid, (3, 3, 3), spec.stride),
            ConvStep("conv3", mid, out, (1, 1, 1), relu=False),
        )
    skip = None
    if spec.in_channels != out or spec.stride != (1, 1, 1):
        skip = ConvStep("down", spec.in_channels, out, (1, 1, 1), spec.stride, relu=False)
    positions = {"none": None, "start": 0, "top": 1, "mid": len(convs) - 1, "end": len(convs)}
    gate_at = positions.get(spec.placement, spec.placement)
    on_main = isinstance(gate_at, int) and gate_at < len(convs)
    return BlockLayout(convs, skip, gate_at, convs[gate_at].in_ch if on_main else out)


def st_conv_parts(step: ConvStep, conv_kind: str) -> tuple[ConvStep, ...]:
    """The convs one step runs: the step itself, or under (2+1)D (Tran et al.
    2018) a 1xkxk spatial conv then a kx1x1 temporal conv, both out_ch wide,
    with norm and relu between them. 1x1x1 steps are never factorized."""
    if conv_kind != "two_plus_one_d" or step.kernel == (1, 1, 1):
        return (step,)
    kt, kh, kw = step.kernel
    st, sh, sw = step.stride
    return (
        replace(step, tag="spatial", kernel=(1, kh, kw), stride=(1, sh, sw)),
        replace(step, tag="temporal", in_ch=step.out_ch, kernel=(kt, 1, 1), stride=(st, 1, 1)),
    )


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


def block_specs(spec: NetworkSpec):
    """(name, BlockSpec) for every block of the network, in forward order."""
    expansion = BOTTLENECK_EXPANSION if spec.depth_kind == "bottleneck" else 1
    in_ch = spec.stem_channels
    for si, stage in enumerate(spec.stages, start=1):
        out_ch = stage.channels * expansion
        for bi in range(stage.blocks):
            yield f"stage{si}.block{bi}", BlockSpec(
                depth_kind=spec.depth_kind,
                conv_kind=spec.conv_kind,
                placement=spec.placement,
                in_channels=in_ch,
                out_channels=out_ch,
                stride=stage.stride if bi == 0 else (1, 1, 1),
                fusion_mode=spec.fusion_mode,
                gate_active=spec.gate_active,
            )
            in_ch = out_ch


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class Conv3dLayer:
    """Bias-free conv, padded by k // 2, He-initialized."""

    def __init__(self, in_ch, out_ch, kernel, stride, rng):
        std = np.sqrt(2.0 / (in_ch * kernel[0] * kernel[1] * kernel[2]))
        self.stride = stride
        self.padding = tuple(k // 2 for k in kernel)
        self.weight = Tensor(rng.standard_normal((out_ch, in_ch, *kernel)) * std,
                             requires_grad=True)

    def __call__(self, x):
        return tt.conv3d(x, self.weight, self.stride, self.padding)

    def named_params(self, prefix):
        yield f"{prefix}.weight", self.weight


class BatchNorm3dLayer:
    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x, training, relu=False):
        # batch_norm consumes x; here x is always a fresh conv output that
        # nothing else reads (the stem, mid_bn, every step's norm and down_bn)
        return tt.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training, relu=relu)

    def named_params(self, prefix):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


class STConv:
    """The weights of one conv step: a full conv, or the (2+1)D pair with a
    norm between them (see `st_conv_parts`)."""

    def __init__(self, step: ConvStep, conv_kind, rng):
        convs = [Conv3dLayer(p.in_ch, p.out_ch, p.kernel, p.stride, rng)
                 for p in st_conv_parts(step, conv_kind)]
        self.factorized = len(convs) == 2
        if self.factorized:
            self.spatial, self.temporal = convs
            self.mid_bn = BatchNorm3dLayer(step.out_ch)
        else:
            (self.conv,) = convs

    def __call__(self, x, training):
        if self.factorized:
            return self.temporal(self.mid_bn(self.spatial(x), training, relu=True))
        return self.conv(x)

    def named_params(self, prefix):
        if self.factorized:
            yield from self.spatial.named_params(f"{prefix}.spatial")
            yield from self.mid_bn.named_params(f"{prefix}.mid_bn")
            yield from self.temporal.named_params(f"{prefix}.temporal")
        else:
            yield from self.conv.named_params(prefix)

    def named_buffers(self, prefix):
        if self.factorized:
            yield from self.mid_bn.named_buffers(f"{prefix}.mid_bn")


class SrtgUnit:
    """Owns the recurrent parameters for one insertion point."""

    def __init__(self, channels, gate_active, fusion_mode, rng):
        self.gate_active = gate_active
        self.fusion_mode = fusion_mode
        self.params = init_lstm_params(channels, num_layers=2, rng=rng)

    def __call__(self, x, gate_log, layer_name):
        out, decisions = srtg_unit(x, self.params, self.gate_active, self.fusion_mode)
        gate_log.append((layer_name, decisions))
        return out

    def named_params(self, prefix):
        yield from self.params.named(f"{prefix}.lstm")


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class Block:
    """A residual block instantiated from its layout: an STConv and a norm
    per step (named convN/bnN on the main path, down_conv/down_bn on the
    skip), then the gated unit as `srtg`. Weights are drawn in that order."""

    def __init__(self, spec: BlockSpec, rng, name="block"):
        self.spec = spec
        self.name = name
        self.layout = layout = block_layout(spec)
        self._parts = []  # (tag, layer) in named_params order
        self._layers = {}  # step tag -> (STConv, norm)
        for i, step in enumerate(layout.convs, start=1):
            self._add_step(step, step.tag, f"bn{i}", rng)
        if layout.skip is not None:
            self._add_step(layout.skip, "down_conv", "down_bn", rng)
        self.srtg = None
        if layout.gate_at is not None:
            self.srtg = SrtgUnit(layout.gate_channels, spec.gate_active,
                                 spec.fusion_mode, rng)
            self._parts.append(("srtg", self.srtg))

    def _add_step(self, step, conv_tag, bn_tag, rng):
        layers = (STConv(step, self.spec.conv_kind, rng), BatchNorm3dLayer(step.out_ch))
        self._layers[step.tag] = layers
        for tag, layer in zip((conv_tag, bn_tag), layers):
            setattr(self, tag, layer)
            self._parts.append((tag, layer))

    def forward(self, x, training, gate_log):
        def conv(step, h):
            st_conv, bn = self._layers[step.tag]
            return bn(st_conv(h, training), training, relu=step.relu)

        def gate(h):
            return self.srtg(h, gate_log, f"{self.name}.srtg")

        return route(self.layout, x, conv, gate, lambda z, skip: tt.relu(tt.add(z, skip)))

    def named_params(self, prefix):
        for tag, part in self._parts:
            yield from part.named_params(f"{prefix}.{tag}")

    def named_buffers(self, prefix):
        for tag, part in self._parts:
            if hasattr(part, "named_buffers"):
                yield from part.named_buffers(f"{prefix}.{tag}")


def build_block(spec: BlockSpec, rng=None, name="block"):
    return Block(spec, rng or np.random.default_rng(), name)


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


class Network:
    """Stem conv -> stages of residual blocks -> global average pool -> linear."""

    def __init__(self, spec: NetworkSpec, seed=0):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        self.stem_conv = Conv3dLayer(spec.in_channels, spec.stem_channels,
                                     spec.stem_kernel, spec.stem_stride, rng)
        self.stem_bn = BatchNorm3dLayer(spec.stem_channels)
        self.blocks = [build_block(bspec, rng, name) for name, bspec in block_specs(spec)]
        in_ch = self.blocks[-1].spec.out_channels
        bound = 1.0 / np.sqrt(in_ch)
        self.head_w = Tensor(rng.uniform(-bound, bound, size=(spec.num_classes, in_ch)),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(spec.num_classes), requires_grad=True)

    def forward(self, batch, training=False):
        """batch: (N, C, T, H, W) Tensor or array. Returns (logits, gate log),
        the log ordered by unit as encountered."""
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.data.ndim != 5 or x.data.shape[1] != self.spec.in_channels:
            raise tt.ShapeError(
                f"network stem expects (N, {self.spec.in_channels}, T, H, W), "
                f"got {x.data.shape}"
            )
        gate_log = []
        h = self.stem_bn(self.stem_conv(x), training, relu=True)
        if self.spec.stem_pool_kernel is not None:
            k = self.spec.stem_pool_kernel
            h = tt.max_pool3d(h, k, self.spec.stem_pool_stride,
                              tuple(e // 2 for e in k))
        for block in self.blocks:
            h = block.forward(h, training, gate_log)
        pooled = tt.global_avg_pool(h)
        logits = tt.affine(pooled, self.head_w, self.head_b)
        return logits, gate_log

    def named_params(self):
        yield from self.stem_conv.named_params("stem.conv")
        yield from self.stem_bn.named_params("stem.bn")
        for block in self.blocks:
            yield from block.named_params(block.name)
        yield "head.weight", self.head_w
        yield "head.bias", self.head_b

    def named_buffers(self):
        yield from self.stem_bn.named_buffers("stem.bn")
        for block in self.blocks:
            yield from block.named_buffers(block.name)

    def srtg_unit_names(self):
        return [f"{block.name}.srtg" for block in self.blocks if block.srtg is not None]
