"""Residual block and network tests: placement wiring, shape preservation,
identity paths, gradient flow, the tape-free eval forward with its batch
norm folded into the conv, and the expansion steps' one-op training norm."""

import json
from pathlib import Path

import numpy as np
import pytest

from srtg import blocks
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
from srtg.gate import GateVerdict, srtg_unit
from srtg.tensor import Tensor, backward, grad_check

from oracles import batch_norm_oracle


def _spec(depth="simple", conv="full_3d", placement="none", cin=4, cout=4,
          stride=(1, 1, 1), gate=True):
    """The layout of one cin -> cout block under these network-wide choices."""
    net = NetworkSpec(num_classes=2, depth_kind=depth, conv_kind=conv, placement=placement,
                      gate_active=gate, stages=[StageSpec(1, cout)])
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


def _wired_by_hand(block, placement, x):
    """The block's training output on x with its unit at `placement`, written
    out from the block's own conv steps, `srtg_unit` with the gate inactive
    and the join relu(main + skip)."""
    def steps(v, *tags):
        for tag in tags:
            for op in block._ops[tag]:
                v = block._run_op(op, v, training=True)
        return v

    def unit(v):
        return srtg_unit(v, block.lstm, gate_active=False)[0]

    def relu_sum(main, skip):
        return Tensor(np.maximum(main.data + skip.data, 0.0))

    main = [step.tag for step in block.layout.convs]
    if placement == "start":  # one gated input feeds both paths
        u = unit(x)
        return relu_sum(steps(u, *main), steps(u, "down"))
    if placement == "res":
        return relu_sum(steps(x, *main), unit(steps(x, "down")))
    if placement == "final":
        return unit(relu_sum(steps(x, *main), steps(x, "down")))
    if placement == "none":
        return relu_sum(steps(x, *main), steps(x, "down"))
    # top, mid and end gate the main path after its first, all but its last,
    # and all of its steps
    before = {"top": main[:1], "mid": main[:-1], "end": main}[placement]
    return relu_sum(steps(unit(steps(x, *before)), *main[len(before):]), steps(x, "down"))


@pytest.mark.parametrize("conv_kind", ["full_3d", "two_plus_one_d"])
@pytest.mark.parametrize(
    "depth,placement",
    [(depth, p) for depth, placements in PLACEMENTS.items() for p in placements],
)
def test_block_wires_its_unit_where_placement_says(depth, placement, conv_kind):
    # an inactive gate fuses every clip, so a unit wired anywhere else moves
    # the output; the block widens and strides, so the skip is a projection
    block = Block(_spec(depth=depth, conv=conv_kind, placement=placement, cin=4, cout=8,
                        stride=(2, 2, 2), gate=False), np.random.default_rng(36))
    x = Tensor(np.random.default_rng(37).standard_normal((2, 4, 6, 6, 6)))
    log = []
    out = block.forward(x, training=True, gate_log=log)
    assert out.data.tobytes() == _wired_by_hand(block, placement, x).data.tobytes()
    assert len(log) == (placement != "none")
    if placement == "none":
        return
    # every LSTM weight learns from an inactive gate, wherever the unit sits
    backward(out, np.random.default_rng(38).standard_normal(out.data.shape))
    for name, p in block.lstm.named("lstm"):
        assert p.grad is not None and (p.grad != 0.0).all(), name


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


# a full-3D simple network and a (2+1)D bottleneck one with a projection skip
EVAL_SPECS = [
    _mini_network_spec(),
    _mini_network_spec(placement="mid", depth="bottleneck", conv="two_plus_one_d",
                       channels=(4, 4)),
]
EVAL_IDS = ["toy_gated", "bottleneck_2plus1d_mid"]


def _tape_records(monkeypatch):
    """Per engine op output from now on, whether it recorded a tape node."""
    records, result = [], tt._result

    def spy(data, parents, bwd):
        out = result(data, parents, bwd)
        records.append(out._bwd is not None)
        return out

    monkeypatch.setattr(tt, "_result", spy)
    return records


@pytest.mark.parametrize("spec", EVAL_SPECS, ids=EVAL_IDS)
def test_network_eval_without_tape_matches_eval_with_tape(spec, monkeypatch):
    # an eval forward records no tape even under an enabled one, since its
    # folded steps shift and clamp each conv output in place; the logits, the
    # gate records and the caller's clips must not notice the tape's state
    net = Network(spec, seed=8)
    x = np.random.default_rng(24).standard_normal((2, 1, 8, 16, 16))
    clips = x.copy()
    records = _tape_records(monkeypatch)
    taped, taped_log = net.forward(x)
    assert records and not any(records) and taped._bwd is None
    assert x.tobytes() == clips.tobytes()
    with tt.no_grad():
        untaped, untaped_log = net.forward(x)
    assert untaped._bwd is None and x.tobytes() == clips.tobytes()
    assert untaped.data.tobytes() == taped.data.tobytes()

    def seen(log):
        return [(name, record.verdicts, [a.tolist() for a in record.match_indices()])
                for name, record in log]

    assert taped_log and seen(untaped_log) == seen(taped_log)
    del records[:]
    net.forward(x, training=True)
    assert any(records)  # the spy sees a training forward's tape


def test_block_eval_forward_records_no_tape(monkeypatch):
    # a gated block on an input that needs a gradient: the LSTM, the fuse and
    # the join would record, were the tape on
    block = Block(_spec(placement="final", cin=4, cout=8, stride=(1, 2, 2)),
                  np.random.default_rng(23))
    x = Tensor(np.random.default_rng(24).standard_normal((2, 4, 4, 6, 6)), requires_grad=True)
    records = _tape_records(monkeypatch)
    log = []
    out = block.forward(x, training=False, gate_log=log)
    assert log and records and not any(records) and out._bwd is None


def _perturb_norms(store, seed):
    """Draw every norm's gamma, beta and running statistics away from their
    init (gamma 1, beta 0, mean 0, variance 1), where a fold that drops the
    shift or inverts the scale would still match."""
    rng = np.random.default_rng(seed)
    for name, p in store.named_params():
        if name.endswith((".gamma", ".beta")):
            p.data[:] = rng.uniform(0.5, 1.5, p.data.shape) * rng.choice([-1.0, 1.0], p.data.shape)
    for name, buf in store.named_buffers():
        buf[:] = rng.uniform(0.5, 2.0, buf.shape) if name.endswith("_var") else rng.normal(
            0.0, 1.0, buf.shape)


def _unfolded_run_op(store, op, x, training=False):
    """An eval conv step unfolded: the conv on the unscaled weights, then the
    scalar-loop norm on the running statistics and the step's relu. It takes
    `_Store._run_op`'s arguments, to stand in for it in an eval forward."""
    part, conv, norm = op
    h = tt.conv3d(x, store.params[f"{conv}.weight"], part.stride,
                  tuple(k // 2 for k in part.kernel))
    out, _, _ = batch_norm_oracle(h.data, store.params[f"{norm}.gamma"].data,
                                  store.params[f"{norm}.beta"].data,
                                  store.buffers[f"{norm}.running_mean"],
                                  store.buffers[f"{norm}.running_var"], training=False)
    return Tensor(np.maximum(out, 0.0) if part.relu else out)


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("spec", EVAL_SPECS, ids=EVAL_IDS)
def test_folded_eval_steps_match_unfolded_norm(spec):
    # every conv step of the network, the stem first: with and without relu,
    # strided and not, and under (2+1)D both halves of each split
    net = Network(spec, seed=9)
    _perturb_norms(net, 25)
    ops = [(net, net._stem)] + [(block, op) for block in net.blocks
                                for step_ops in block._ops.values() for op in step_ops]
    assert {op[0].relu for _, op in ops} == {True, False}
    assert any(op[0].stride != (1, 1, 1) for _, op in ops[1:])
    rng = np.random.default_rng(26)
    for store, op in ops:
        x = Tensor(rng.standard_normal((2, op[0].in_ch, 4, 6, 6)))
        with tt.no_grad():
            want = _unfolded_run_op(store, op, x).data
        got = store._run_op(op, x, training=False).data
        assert _rel_err(got, want) <= 1e-12, op[1]


@pytest.mark.parametrize("spec", EVAL_SPECS, ids=EVAL_IDS)
def test_folded_eval_forward_matches_unfolded_network(spec, monkeypatch):
    net = Network(spec, seed=10)
    _perturb_norms(net, 27)
    x = np.random.default_rng(28).standard_normal((2, 1, 8, 16, 16))
    got, got_log = net.forward(x)
    monkeypatch.setattr(blocks._Store, "_run_op", _unfolded_run_op)
    want, want_log = net.forward(x)
    assert _rel_err(got.data, want.data) <= 1e-12
    assert [r.verdicts for _, r in got_log] == [r.verdicts for _, r in want_log]


def _chained_train_op(store, op, x):
    """A training conv step as the engine's ops spell it: conv3d, then
    batch_norm on the batch statistics."""
    part, conv, norm = op
    h = tt.conv3d(x, store.params[f"{conv}.weight"], part.stride,
                  tuple(k // 2 for k in part.kernel))
    return tt.batch_norm(h, store.params[f"{norm}.gamma"], store.params[f"{norm}.beta"],
                         store.buffers[f"{norm}.running_mean"],
                         store.buffers[f"{norm}.running_var"], relu=part.relu)


@pytest.mark.parametrize("spec", EVAL_SPECS, ids=EVAL_IDS)
def test_expansion_steps_match_conv_then_batch_norm(spec, monkeypatch):
    # every 1x1x1 step that widens its input (the bottleneck's conv3, the
    # widening projections) trains through pointwise_conv_norm; against
    # conv3d then batch_norm: the output, both running buffers and the
    # gradients of x, w, gamma and beta
    net = Network(spec, seed=11)
    _perturb_norms(net, 32)
    ops = [(block, op) for block in net.blocks for step_ops in block._ops.values()
           for op in step_ops if op[0].kernel == (1, 1, 1) and op[0].in_ch < op[0].out_ch]
    assert ops
    calls, fused = [], tt.pointwise_conv_norm
    monkeypatch.setattr(tt, "pointwise_conv_norm",
                        lambda *a, **k: calls.append(1) or fused(*a, **k))
    rng = np.random.default_rng(33)
    for store, op in ops:
        part, conv, norm = op
        xd = rng.standard_normal((2, part.in_ch, 4, 6, 6)) + rng.standard_normal(
            (1, part.in_ch, 1, 1, 1))
        leaves = [store.params[f"{conv}.weight"], store.params[f"{norm}.gamma"],
                  store.params[f"{norm}.beta"]]
        buffers = [store.buffers[f"{norm}.running_{k}"] for k in ("mean", "var")]
        start = [b.copy() for b in buffers]
        runs = []
        for run in (lambda x: store._run_op(op, x, training=True),
                    lambda x: _chained_train_op(store, op, x)):
            for buf, value in zip(buffers, start):
                buf[:] = value
            x = Tensor(xd, requires_grad=True)
            out = run(x)
            backward(out, np.random.default_rng(34).standard_normal(out.data.shape))
            runs.append([out.data, *(b.copy() for b in buffers), x.grad,
                         *(p.grad for p in leaves)])
            for p in leaves:
                p.zero_grad()
        for got, want in zip(*runs):
            assert _rel_err(got, want) <= 1e-12, op[1]
    assert len(calls) == len(ops)
    # a training forward runs the op once per expansion step, and only there
    del calls[:]
    net.forward(np.random.default_rng(35).standard_normal((2, 1, 8, 16, 16)), training=True)
    assert len(calls) == len(ops)


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
