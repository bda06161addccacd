"""Op-counter tests: spreadsheet-style independent arithmetic for a mini net,
the full-scale reference totals, cost-model invariants, agreement with the
convs and units one forward pass actually runs, and golden reports."""

import math
from pathlib import Path

import numpy as np
import pytest

from srtg import blocks
from srtg import tensor as tt
from srtg.blocks import Network
from srtg.cli import main as cli_main
from srtg.config import PLACEMENTS, NetworkSpec, StageSpec, read_config, network_spec
from srtg.opcount import OpCount, _conv, count_macs, report_dict


def _mini_spec(placement="final", depth="simple", conv="full_3d", gate=True):
    return NetworkSpec(
        in_channels=1,
        num_classes=2,
        conv_kind=conv,
        depth_kind=depth,
        placement=placement,
        gate_active=gate,
        fusion_mode="multiplicative",
        stem_channels=4,
        stem_kernel=(3, 3, 3),
        stem_stride=(1, 2, 2),
        stem_pool_kernel=None,
        stem_pool_stride=None,
        stages=[
            StageSpec(blocks=1, channels=4, stride=(1, 1, 1)),
            StageSpec(blocks=1, channels=8, stride=(2, 2, 2)),
        ],
    )


def test_single_pointwise_conv_is_one_mac_per_output():
    counts = OpCount()
    out = _conv(counts, "c", (1, 2, 2, 2), 1, (1, 1, 1), (1, 1, 1))
    assert out == (1, 2, 2, 2)
    assert counts.total == 8


def test_mini_network_matches_hand_summed_arithmetic():
    # Spreadsheet oracle: every line below is written out longhand on purpose.
    counts = count_macs(_mini_spec(), (1, 8, 16, 16))
    by_name = {l.name: l.macs for l in counts.layers}

    # stem: 3x3x3 conv 1->4, stride (1,2,2): output (4, 8, 8, 8)
    assert by_name["stem.conv"] == (4 * 8 * 8 * 8) * 1 * 27
    # stage1 block: two 3x3x3 convs 4->4 on (4, 8, 8, 8)
    assert by_name["stage1.block0.conv1"] == (4 * 8 * 8 * 8) * 4 * 27
    assert by_name["stage1.block0.conv2"] == (4 * 8 * 8 * 8) * 4 * 27
    assert "stage1.block0.down" not in by_name
    # stage1 gate unit on (C=4, T=8, 8x8): lstm 16*T*C^2, gate 6*T^2*C, fuse C*T*H*W
    assert by_name["stage1.block0.srtg.lstm"] == 16 * 8 * 4 * 4
    assert by_name["stage1.block0.srtg.gate"] == 6 * 8 * 8 * 4
    assert by_name["stage1.block0.srtg.fuse"] == 4 * 8 * 8 * 8
    # stage2 block: strided 4->8 convs to (8, 4, 4, 4), plus projection skip
    assert by_name["stage2.block0.conv1"] == (8 * 4 * 4 * 4) * 4 * 27
    assert by_name["stage2.block0.conv2"] == (8 * 4 * 4 * 4) * 8 * 27
    assert by_name["stage2.block0.down"] == (8 * 4 * 4 * 4) * 4
    assert by_name["stage2.block0.srtg.lstm"] == 16 * 4 * 8 * 8
    assert by_name["stage2.block0.srtg.gate"] == 6 * 4 * 4 * 8
    assert by_name["stage2.block0.srtg.fuse"] == 8 * 4 * 4 * 4
    assert by_name["head.fc"] == 8 * 2

    conv_total = (
        (4 * 8 * 8 * 8) * 1 * 27
        + 2 * (4 * 8 * 8 * 8) * 4 * 27
        + (8 * 4 * 4 * 4) * 4 * 27
        + (8 * 4 * 4 * 4) * 8 * 27
        + (8 * 4 * 4 * 4) * 4
    )
    lstm_total = 16 * 8 * 16 + 16 * 4 * 64
    gate_total = (6 * 8 * 8 * 4 + 4 * 8 * 8 * 8) + (6 * 4 * 4 * 8 + 8 * 4 * 4 * 4)
    totals = counts.totals
    assert totals["convolutions"] == conv_total
    assert totals["lstm"] == lstm_total
    assert totals["gate"] == gate_total
    assert totals["head"] == 16
    assert counts.total == conv_total + lstm_total + gate_total + 16
    assert counts.srtg_overhead_ratio == (lstm_total + gate_total) / (conv_total + 16)


def test_counts_are_shape_functions_only():
    a = count_macs(_mini_spec(), (1, 8, 16, 16))
    b = count_macs(_mini_spec(), (1, 8, 16, 16))
    assert [(l.name, l.macs) for l in a.layers] == [(l.name, l.macs) for l in b.layers]


def test_counter_head_width_agrees_with_forward():
    for depth in ("simple", "bottleneck"):
        for conv in ("full_3d", "two_plus_one_d"):
            spec = _mini_spec(depth=depth, conv=conv)
            counts = count_macs(spec, (1, 8, 16, 16))
            head = next(l for l in counts.layers if l.name == "head.fc")
            net = Network(spec, seed=0)
            logits, _ = net.forward(np.zeros((1, 1, 8, 16, 16)))
            assert logits.data.shape == (1, 2)
            assert head.macs == net.params["head.weight"].data.shape[1] * 2


def test_placement_cost_equivalence_same_insertion_width():
    # all simple-block placements at constant C and T add identical lstm MACs
    lstm_costs = {}
    for placement in ("start", "mid", "res", "final"):
        spec = _mini_spec(placement=placement)
        spec.stages = [StageSpec(blocks=1, channels=4, stride=(1, 1, 1))]
        counts = count_macs(spec, (1, 8, 16, 16))
        lstm_costs[placement] = counts.totals["lstm"]
    assert len(set(lstm_costs.values())) == 1


def test_gate_inactive_drops_gate_term_keeps_lstm():
    active = count_macs(_mini_spec(gate=True), (1, 8, 16, 16))
    inactive = count_macs(_mini_spec(gate=False), (1, 8, 16, 16))
    assert inactive.totals["lstm"] == active.totals["lstm"]
    assert inactive.totals["gate"] < active.totals["gate"]


def test_additive_fusion_counts_no_multiplies():
    spec = _mini_spec()
    spec.fusion_mode = "additive"
    counts = count_macs(spec, (1, 8, 16, 16))
    assert not any(l.name.endswith(".fuse") for l in counts.layers)


def test_input_channel_mismatch_rejected():
    with pytest.raises(ValueError, match="channels"):
        count_macs(_mini_spec(), (3, 8, 16, 16))


def test_r3d34_total_and_overhead_within_reference_bands():
    spec = network_spec(read_config("configs/r3d34_srtg.cfg"))
    counts = count_macs(spec, (3, 16, 224, 224))
    gflops = 2.0 * counts.total / 1e9
    assert abs(gflops - 110.48) / 110.48 <= 0.02
    assert 0.0005 <= counts.srtg_overhead_ratio <= 0.004
    # the tighter band: about 0.15% plus or minus 0.1pp
    assert 0.0005 <= counts.srtg_overhead_ratio <= 0.0025


def test_r3d50_overhead_within_band():
    spec = network_spec(read_config("configs/r3d50_srtg.cfg"))
    counts = count_macs(spec, (3, 16, 224, 224))
    assert counts.srtg_overhead_ratio <= 0.004
    assert 0.0005 <= counts.srtg_overhead_ratio <= 0.0025


def test_report_dict_shape():
    counts = count_macs(_mini_spec(), (1, 8, 16, 16))
    rep = report_dict(counts, (1, 8, 16, 16))
    assert rep["input"] == "1x8x16x16"
    assert {"convolutions", "lstm", "gate", "head", "total", "gflops", "gmacs"} <= set(
        rep["totals"]
    )
    assert all({"name", "kind", "macs", "gflops"} <= set(l) for l in rep["layers"])
    assert rep["srtg_overhead_ratio"] == counts.srtg_overhead_ratio


# ---------------------------------------------------------------------------
# the count prices the network that runs
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("conv", ["full_3d", "two_plus_one_d"])
@pytest.mark.parametrize(
    "depth,placement",
    [(depth, p) for depth, placements in PLACEMENTS.items() for p in placements],
)
def test_counted_macs_match_the_forward_pass(monkeypatch, depth, conv, placement):
    spec = _mini_spec(placement=placement, depth=depth, conv=conv)
    # two blocks in stage 1 so bottlenecks see an identity skip too
    spec.stages[0] = StageSpec(blocks=2, channels=4, stride=(1, 1, 1))
    spec.stem_pool_kernel, spec.stem_pool_stride = (1, 3, 3), (1, 2, 2)
    net = Network(spec, seed=0)

    conv_macs, unit_shapes = [], []

    def conv3d(x, w, *args, **kwargs):
        out = real_conv3d(x, w, *args, **kwargs)
        conv_macs.append(math.prod(out.data.shape[1:]) * math.prod(w.data.shape[1:]))
        return out

    def unit(x, *args, **kwargs):
        unit_shapes.append(x.data.shape)
        return real_unit(x, *args, **kwargs)

    real_conv3d, real_unit = tt.conv3d, blocks.srtg_unit
    monkeypatch.setattr(tt, "conv3d", conv3d)
    monkeypatch.setattr(blocks, "srtg_unit", unit)
    _, gate_log = net.forward(np.zeros((1, 1, 8, 16, 16)))

    counts = count_macs(spec, (1, 8, 16, 16))
    assert [l.macs for l in counts.layers if l.kind == "conv"] == conv_macs
    expected_lstm = [
        (f"{name}.lstm", 16 * t * c * c)
        for (name, _), (_, c, t, _, _) in zip(gate_log, unit_shapes)
    ]
    assert [(l.name, l.macs) for l in counts.layers if l.kind == "lstm"] == expected_lstm
    assert len(expected_lstm) == (0 if placement == "none" else 3)


@pytest.mark.parametrize("name", ["r3d34_srtg", "r3d50_srtg"])
def test_count_ops_report_matches_golden(name, capsys):
    rc = cli_main(["count-ops", "--net", str(CONFIGS / f"{name}.cfg"),
                   "--input", "3x16x224x224"])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / f"count_ops_{name}.json").read_text()
