"""Residual block and network tests: placement wiring, shape preservation,
identity paths, and gradient flow."""

import json
from pathlib import Path

import numpy as np
import pytest

from srtg import tensor as tt
from srtg.blocks import Block, Network, block_layout
from srtg.config import (
    PLACEMENTS,
    ConfigError,
    NetworkSpec,
    StageSpec,
    apply_overrides,
    network_spec,
    read_config,
)
from srtg.gate import GateVerdict
from srtg.tensor import Tensor, backward, grad_check


def _spec(depth="simple", conv="full_3d", placement="none", cin=4, cout=4,
          stride=(1, 1, 1), gate=True, mode="multiplicative"):
    """The layout of one cin -> cout block under these network-wide choices."""
    net = NetworkSpec(num_classes=2, depth_kind=depth, conv_kind=conv, placement=placement,
                      gate_active=gate, fusion_mode=mode, stages=[StageSpec(1, cout)])
    return block_layout(net, cin, cout, stride)


def _mini_network_spec(placement="final", depth="simple", conv="full_3d",
                       gate=True, channels=(8, 16)):
    return NetworkSpec(
        in_channels=1,
        num_classes=2,
        conv_kind=conv,
        depth_kind=depth,
        placement=placement,
        gate_active=gate,
        fusion_mode="multiplicative",
        stem_channels=8,
        stem_kernel=(3, 3, 3),
        stem_stride=(1, 2, 2),
        stem_pool_kernel=None,
        stem_pool_stride=None,
        stages=[
            StageSpec(blocks=1, channels=channels[0], stride=(1, 1, 1)),
            StageSpec(blocks=1, channels=channels[1], stride=(2, 2, 2)),
        ],
    )


def test_simple_block_rejects_top_and_end():
    # NetworkSpec states the check; top and end exist only in the bottleneck
    for placement in ("top", "end"):
        with pytest.raises(ConfigError, match="placement"):
            NetworkSpec(num_classes=2, depth_kind="simple", placement=placement,
                        stages=[StageSpec(1, 4)])


def test_bottleneck_accepts_all_placements():
    for placement in PLACEMENTS["bottleneck"]:
        _spec(depth="bottleneck", placement=placement, cout=8)


def test_placement_none_equals_plain_block():
    rng = np.random.default_rng(0)
    x = np.abs(rng.standard_normal((2, 4, 4, 6, 6)))
    block = Block(_spec(placement="none"), np.random.default_rng(1))
    out = block.forward(Tensor(x), training=True, gate_log=[])
    assert out.data.shape == x.shape
    assert np.isfinite(out.data).all()


def test_residual_identity_with_zero_convs():
    # weights zeroed, placement none, matching channels: pure skip path
    x = np.abs(np.random.default_rng(2).standard_normal((1, 4, 3, 4, 4)))
    block = Block(_spec(placement="none"), np.random.default_rng(3))
    block.params["block.conv1.weight"].data[:] = 0.0
    block.params["block.conv2.weight"].data[:] = 0.0
    out = block.forward(Tensor(x), training=False, gate_log=[])
    np.testing.assert_array_equal(out.data, x)


def test_final_placement_closed_clip_matches_plain_block_bitexact():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 3, 4, 4))
    plain = Block(_spec(placement="none"), np.random.default_rng(5))
    gated = Block(_spec(placement="final"), np.random.default_rng(5))
    # same init seed -> identical conv/bn weights; force the gate shut by
    # zeroing the recurrent weights (degenerate filtered stream ties to 0)
    for layer in gated.lstm.layers:
        for t in (layer.w_f, layer.w_i, layer.w_c, layer.w_a,
                  layer.b_f, layer.b_i, layer.b_c, layer.b_a):
            t.data[:] = 0.0
    log = []
    out_gated = gated.forward(Tensor(x), training=True, gate_log=log)
    out_plain = plain.forward(Tensor(x), training=True, gate_log=[])
    (_, record), = log
    assert len(record) == 2
    for clip, verdict in enumerate(record):
        assert verdict is GateVerdict.CLOSED
        assert np.array_equal(out_gated.data[clip], out_plain.data[clip])


@pytest.mark.parametrize("conv_kind", ["full_3d", "two_plus_one_d"])
@pytest.mark.parametrize(
    "depth,placement",
    [(depth, p) for depth, placements in PLACEMENTS.items() for p in placements],
)
def test_all_valid_configurations_preserve_plain_shape(depth, placement, conv_kind):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 8, 4, 8, 8))
    plain = Block(
        _spec(depth=depth, conv=conv_kind, placement="none", cin=8, cout=8),
        np.random.default_rng(7),
    )
    ref_shape = plain.forward(Tensor(x), training=True, gate_log=[]).data.shape
    block = Block(
        _spec(depth=depth, conv=conv_kind, placement=placement, cin=8, cout=8),
        np.random.default_rng(8),
    )
    xt = Tensor(x, requires_grad=True)
    out = block.forward(xt, training=True, gate_log=[])
    assert out.data.shape == ref_shape
    backward(tt.sum_all(out))
    assert xt.grad is not None and np.isfinite(xt.grad).all()


def test_factorized_and_full_blocks_same_shapes():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 4, 5, 8, 8))
    for stride in [(1, 1, 1), (2, 2, 2), (1, 2, 2)]:
        full = Block(_spec(conv="full_3d", cin=4, cout=6, stride=stride),
                           np.random.default_rng(10))
        fact = Block(_spec(conv="two_plus_one_d", cin=4, cout=6, stride=stride),
                           np.random.default_rng(11))
        a = full.forward(Tensor(x), training=True, gate_log=[])
        b = fact.forward(Tensor(x), training=True, gate_log=[])
        assert a.data.shape == b.data.shape


def test_strided_block_downsamples_skip():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 4, 4, 8, 8))
    block = Block(_spec(cin=4, cout=8, stride=(2, 2, 2)), np.random.default_rng(13))
    out = block.forward(Tensor(x), training=True, gate_log=[])
    assert out.data.shape == (1, 8, 2, 4, 4)


# the (2+1)D cases widen and stride, so the spatial, mid_bn, temporal,
# down_conv and down_bn weights are checked too
@pytest.mark.parametrize("conv,cout,stride", [
    ("full_3d", 3, (1, 1, 1)),
    ("two_plus_one_d", 4, (2, 2, 2)),
], ids=["full_3d", "two_plus_one_d_projection"])
def test_grad_check_simple_block_final(conv, cout, stride):
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((1, 3, 3, 3, 3)))
    block = Block(
        _spec(conv=conv, placement="final", cin=3, cout=cout, stride=stride, gate=False),
        np.random.default_rng(15),
    )
    params = list(block.params.values())

    def f():
        return block.forward(x, training=True, gate_log=[])

    assert grad_check(f, params) <= 1e-4


@pytest.mark.parametrize("conv,cout,stride", [
    ("full_3d", 4, (1, 1, 1)),
    ("two_plus_one_d", 8, (2, 2, 2)),
], ids=["full_3d", "two_plus_one_d_projection"])
def test_grad_check_bottleneck_block_final(conv, cout, stride):
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((1, 4, 3, 3, 3)))
    block = Block(
        _spec(depth="bottleneck", conv=conv, placement="final", cin=4, cout=cout,
              stride=stride, gate=False),
        np.random.default_rng(17),
    )
    params = list(block.params.values())

    def f():
        return block.forward(x, training=True, gate_log=[])

    assert grad_check(f, params) <= 1e-4


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def test_network_zero_head_uniform_logits():
    net = Network(_mini_network_spec(), seed=0)
    net.params["head.weight"].data[:] = 0.0
    net.params["head.bias"].data[:] = 0.0
    x = np.random.default_rng(18).standard_normal((2, 1, 8, 16, 16))
    logits, _ = net.forward(x)
    np.testing.assert_array_equal(logits.data, np.zeros((2, 2)))


def test_network_identical_clips_identical_logits():
    net = Network(_mini_network_spec(), seed=1)
    clip = np.random.default_rng(19).standard_normal((1, 1, 8, 16, 16))
    batch = np.concatenate([clip, clip], axis=0)
    logits, _ = net.forward(batch)
    np.testing.assert_array_equal(logits.data[0], logits.data[1])


@pytest.mark.parametrize("spec", [
    _mini_network_spec(),
    _mini_network_spec(placement="mid", depth="bottleneck", conv="two_plus_one_d",
                       channels=(4, 4)),
], ids=["toy_gated", "bottleneck_2plus1d_mid"])
def test_network_eval_without_tape_matches_eval_with_tape(spec):
    # without a tape every batch norm writes its output over the conv output;
    # the logits, the gate records and the caller's clips must not notice
    net = Network(spec, seed=8)
    x = np.random.default_rng(24).standard_normal((2, 1, 8, 16, 16))
    clips = x.copy()
    taped, taped_log = net.forward(x)
    assert taped._bwd is not None and x.tobytes() == clips.tobytes()
    with tt.no_grad():
        untaped, untaped_log = net.forward(x)
    assert untaped._bwd is None and x.tobytes() == clips.tobytes()
    assert untaped.data.tobytes() == taped.data.tobytes()

    def seen(log):
        return [(name, record.verdicts, [a.tolist() for a in record.match_indices()])
                for name, record in log]

    assert taped_log and seen(untaped_log) == seen(taped_log)


def test_network_smoke_backward_populates_all_grads():
    net = Network(_mini_network_spec(), seed=2)
    x = np.random.default_rng(20).standard_normal((2, 1, 8, 16, 16))
    logits, gate_log = net.forward(x, training=True)
    assert np.isfinite(logits.data).all()
    loss = tt.softmax_cross_entropy(logits, np.array([0, 1]))
    backward(loss)
    missing = [n for n, p in net.named_params() if p.grad is None]
    assert missing == []
    assert len(gate_log) == 2  # one unit per stage


def test_network_stem_shape_mismatch():
    net = Network(_mini_network_spec(), seed=3)
    with pytest.raises(tt.ShapeError, match="stem"):
        net.forward(np.zeros((1, 3, 8, 16, 16)))


def test_network_gate_inactive_logs_inactive():
    net = Network(_mini_network_spec(gate=False), seed=4)
    x = np.random.default_rng(21).standard_normal((1, 1, 8, 16, 16))
    _, gate_log = net.forward(x)
    assert gate_log
    for _, record in gate_log:
        assert record.verdicts == (GateVerdict.INACTIVE,)


def test_network_param_names_unique_and_stable():
    net = Network(_mini_network_spec(), seed=5)
    names = [n for n, _ in net.named_params()]
    assert len(names) == len(set(names))
    names2 = [n for n, _ in Network(_mini_network_spec(), seed=6).named_params()]
    assert names == names2


def test_network_seed_determinism():
    a = Network(_mini_network_spec(), seed=7)
    b = Network(_mini_network_spec(), seed=7)
    for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data)


GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the network of the long_clip_gate benchmark workload: a (2+1)D bottleneck
# with the unit at `mid` and a projection skip opening each stage
LONG_CLIP_GATE = (
    "network.depth_kind=bottleneck", "network.conv_kind=two_plus_one_d",
    "network.placement=mid", "network.gate_active=false", "network.stem_stride=1x1x1",
    "stage1.channels=8", "stage2.channels=8", "stage1.blocks=2", "stage2.blocks=2",
)


@pytest.mark.parametrize("name,overrides", [("toy", ()), ("long_clip_gate", LONG_CLIP_GATE)],
                         ids=["toy", "long_clip_gate"])
def test_checkpoint_array_table_matches_golden(name, overrides):
    # the names, shapes and order of the arrays a checkpoint stores
    cfg = apply_overrides(read_config(str(CONFIGS / "toy.cfg")), overrides)
    net = Network(network_spec(cfg), seed=0)
    table = {
        "params": [[n, list(p.data.shape)] for n, p in net.named_params()],
        "buffers": [[n, list(b.shape)] for n, b in net.named_buffers()],
    }
    assert table == json.loads((GOLDEN / "checkpoint_arrays.json").read_text())[name]
