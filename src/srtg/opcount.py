"""Analytic multiply-accumulate counting for network specs.

Counts are exact integers derived from shapes alone (no data, no weights):
each block's layout is walked with `srtg.blocks.route`, the same wiring the
forward pass runs. Conventions, stated once here and echoed in every report
header:

* conv MACs  = out_elements * in_channels * kT*kH*kW, batch of one clip
* lstm MACs  = T * layers * 4 gates * C*(C_in + C), with C_in = C
* gate MACs  = distance matrices (2*T^2*C) + soft-match blends (2*T^2*C)
               + match-resolution distances (2*T^2*C); comparisons and
               argmin selection are not multiplies and are not counted
* fuse MACs  = C*T*H*W (one scale per voxel)
* head MACs  = features * classes
* normalization, activations and pooling contribute no multiplies
* gflops     = 2 * MACs / 1e9 (one multiply + one accumulate per MAC);
  gmacs = MACs / 1e9 is reported alongside
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from srtg.blocks import BlockLayout, block_layouts, route, step_ops
from srtg.config import ConfigError, NetworkSpec

__all__ = ["LayerCount", "OpCount", "count_macs", "report_dict"]

_HEADER = (
    "exact MACs from shapes; conv=out_elems*in_ch*k^3, lstm=16*T*C^2 (2 layers), "
    "gate=6*T^2*C (distances+blends; argmin comparisons uncounted), "
    "fuse=C*T*H*W (multiplicative only), head=features*classes; "
    "norm/activation/pooling uncounted; gflops=2*MACs/1e9, gmacs=MACs/1e9"
)


@dataclass
class LayerCount:
    name: str
    kind: str  # conv | lstm | gate | head
    macs: int


@dataclass
class OpCount:
    layers: list[LayerCount] = field(default_factory=list)

    def add(self, name, kind, macs):
        self.layers.append(LayerCount(name, kind, int(macs)))

    @property
    def totals(self) -> dict:
        kinds = {"conv": "convolutions", "lstm": "lstm", "gate": "gate", "head": "head"}
        return {total: sum(layer.macs for layer in self.layers if layer.kind == kind)
                for kind, total in kinds.items()}

    @property
    def total(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def srtg_overhead_ratio(self) -> float:
        """Recurrent+gate multiplies relative to the ungated backbone cost."""
        t = self.totals
        vanilla = t["convolutions"] + t["head"]
        return (t["lstm"] + t["gate"]) / vanilla if vanilla else 0.0


def _out_shape(shape, out_ch, kernel, stride):
    """(C, T, H, W) after a conv or pool padded by k // 2 on every axis."""
    return (out_ch,) + tuple(
        (e + 2 * (k // 2) - k) // s + 1 for e, k, s in zip(shape[1:], kernel, stride)
    )


def _conv(counts, name, in_shape, out_ch, kernel, stride):
    out_shape = _out_shape(in_shape, out_ch, kernel, stride)
    counts.add(name, "conv", math.prod(out_shape) * in_shape[0] * math.prod(kernel))
    return out_shape


def _block(counts, layout: BlockLayout, in_shape, name):
    """Walk the block's layout on shapes, as Block.forward walks it on tensors."""

    def conv(step, shape):
        for part, conv_name, _ in step_ops(step, layout.conv_kind, f"{name}.{step.tag}", ""):
            shape = _conv(counts, conv_name, shape, part.out_ch, part.kernel, part.stride)
        return shape

    def gate(shape):
        c, t, h, w = shape
        counts.add(f"{name}.srtg.lstm", "lstm", t * 2 * 4 * c * (c + c))
        if layout.gate_active:
            counts.add(f"{name}.srtg.gate", "gate", 6 * t * t * c)
        counts.add(f"{name}.srtg.fuse", "gate", c * t * h * w)
        return shape

    return route(layout, in_shape, conv, gate, lambda main, skip: main)


def count_macs(spec: NetworkSpec, input_shape) -> OpCount:
    """Exact per-layer MAC tally of a network spec on a CxTxHxW clip."""
    c, t, h, w = input_shape
    if c != spec.in_channels:
        raise ConfigError(
            f"input channels {c} do not match network in_channels {spec.in_channels}"
        )
    counts = OpCount()
    shape = _conv(counts, "stem.conv", (c, t, h, w), spec.stem_channels,
                  spec.stem_kernel, spec.stem_stride)
    if spec.stem_pool_kernel is not None:
        shape = _out_shape(shape, shape[0], spec.stem_pool_kernel, spec.stem_pool_stride)
    for name, layout in block_layouts(spec):
        shape = _block(counts, layout, shape, name)
    counts.add("head.fc", "head", shape[0] * spec.num_classes)
    return counts


def report_dict(counts: OpCount, input_shape) -> dict:
    """JSON-ready op-count report, every layer and total in MACs and GFLOPs."""
    totals = counts.totals
    totals["total"] = counts.total
    totals["vanilla_macs"] = totals["convolutions"] + totals["head"]
    totals["srtg_macs"] = totals["lstm"] + totals["gate"]
    totals["gmacs"] = counts.total / 1e9
    totals["gflops"] = 2.0 * counts.total / 1e9
    return {
        "header": _HEADER,
        "input": "x".join(str(v) for v in input_shape),
        "layers": [
            {
                "name": layer.name,
                "kind": layer.kind,
                "macs": layer.macs,
                "gflops": 2.0 * layer.macs / 1e9,
            }
            for layer in counts.layers
        ],
        "totals": totals,
        "srtg_overhead_ratio": counts.srtg_overhead_ratio,
    }
