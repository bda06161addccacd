"""Optimizer, metrics, training-loop and checkpoint tests."""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srtg.train
from srtg import gate as sg
from srtg import tensor as tt
from srtg.blocks import Network
from srtg.config import NetworkSpec, StageSpec, TrainConfig, network_spec, read_config
from srtg.data import Dataset, generate, save_dataset
from srtg.config import SyntheticSpec
from srtg.tensor import Tensor, backward
from srtg.train import (
    SGD,
    CheckpointError,
    Metrics,
    TrainingDivergedError,
    apply_checkpoint,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    top_k_hits,
    train,
)
from oracles import frame_sample_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the network sections a checkpoint must carry; the tests below only round-trip them
NET_CONFIG = {"network": {"depth_kind": "simple"}}


def _tiny_net_spec(num_classes=2, gate=True, placement="final"):
    return NetworkSpec(
        in_channels=1,
        num_classes=num_classes,
        conv_kind="full_3d",
        depth_kind="simple",
        placement=placement,
        gate_active=gate,
        fusion_mode="multiplicative",
        stem_channels=4,
        stem_kernel=(3, 3, 3),
        stem_stride=(1, 2, 2),
        stem_pool_kernel=None,
        stem_pool_stride=None,
        stages=[StageSpec(blocks=1, channels=4, stride=(1, 2, 2))],
    )


def _tiny_data(n_train=16, n_val=8, seed=5):
    spec = SyntheticSpec(num_classes=2, family="reversed_pair", channels=1, frames=4,
                         height=8, width=8, noise=0.02, train_clips=n_train,
                         val_clips=n_val, seed=seed)
    return generate(spec)


def _cfg(**kw):
    base = dict(lr0=0.05, weight_decay=1e-6, momentum=0.9, batch_size=4,
                epochs=2, frames_per_clip=16, seed=9)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_sgd_zero_lr_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = SGD([("p", p)], momentum=0.9, weight_decay=1e-6)
    before = p.data.copy()
    for _ in range(3):
        backward(tt.sum_all(tt.mul(p, p)))
        opt.step(0.0)
        opt.zero_grad()
    np.testing.assert_array_equal(p.data, before)


def test_sgd_quadratic_matches_reference_recursion():
    # loss = p^2, grad = 2p; reference sequence computed independently
    p = Tensor(np.array([1.0]), requires_grad=True)
    lr, mu, wd = 0.1, 0.9, 1e-6
    opt = SGD([("p", p)], momentum=mu, weight_decay=wd)
    got = []
    for _ in range(10):
        backward(tt.sum_all(tt.mul(p, p)))
        opt.step(lr)
        opt.zero_grad()
        got.append(p.data[0])
    ref_p, ref_v = 1.0, 0.0
    want = []
    for _ in range(10):
        g = 2.0 * ref_p
        ref_v = mu * ref_v + g
        ref_p = ref_p - lr * ref_v
        ref_p = ref_p - lr * wd * ref_p
        want.append(ref_p)
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_top_k_hand_fixture():
    logits = np.array([
        [3.0, 1.0, 2.0, 0.0],   # ranking 0,2,1,3
        [0.0, 0.0, 0.0, 0.0],   # tie -> 0,1,2,3
        [1.0, 4.0, 4.0, 0.0],   # tie at 4 -> 1,2,0,3
        [-1.0, -2.0, -3.0, 5.0],
        [2.0, 2.0, 2.0, 2.1],   # 3,0,1,2
        [0.5, 0.4, 0.3, 0.2],
    ])
    labels = np.array([0, 1, 2, 3, 0, 3])
    # top1 hits: row0 (0==0), row3 (3==3) -> 2; row1 top1 is class 0, row2 is 1,
    # row4 is 3, row5 is 0
    assert top_k_hits(logits, labels, 1) == 2
    # top2 adds row1 (tie set {0,1}), row2 ({1,2}) and row4 ({3,0}) -> 5
    assert top_k_hits(logits, labels, 2) == 5
    assert top_k_hits(logits, labels, 4) == 6


def test_top5_with_two_classes_is_one():
    net = Network(_tiny_net_spec(), seed=0)
    _, val = _tiny_data()
    m = evaluate(net, val)
    assert m.top5 == 1.0
    assert 0.0 <= m.top1 <= m.top5 <= 1.0


def test_constant_logits_tie_rule_gives_class_zero():
    net = Network(_tiny_net_spec(num_classes=4), seed=1)
    net.params["head.weight"].data[:] = 0.0
    net.params["head.bias"].data[:] = 0.0
    # balanced 4-class labels over 8 clips
    _, val = _tiny_data(n_val=8)
    ds = Dataset(val.clips, np.arange(8, dtype=np.int64) % 4, {})
    m = evaluate(net, ds)
    assert m.top1 == 0.25


def test_evaluate_empty_split_rejected():
    net = Network(_tiny_net_spec(), seed=2)
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, Dataset(np.zeros((0, 1, 4, 8, 8)), np.zeros(0, dtype=np.int64), {}))


def test_gate_open_rate_is_one_when_inactive():
    net = Network(_tiny_net_spec(gate=False), seed=3)
    _, val = _tiny_data()
    m = evaluate(net, val)
    assert list(m.gate_open_rates.values()) == [1.0]


def _count_checks(monkeypatch):
    """Shapes of the (N, T, C) pairs passed to the gate's cycle check."""
    calls = []
    real = sg.cycle_consistent
    monkeypatch.setattr(sg, "cycle_consistent",
                        lambda a, b: calls.append(a.shape) or real(a, b))
    return calls


@pytest.mark.parametrize("gate, want", [(False, []), (True, [(4, 4, 4)] * 2)],
                         ids=["inactive", "active"])
def test_evaluate_checks_only_an_active_gate(monkeypatch, gate, want):
    # eval reads .fused alone; an active unit checks once per batch to route
    calls = _count_checks(monkeypatch)
    _, val = _tiny_data()
    evaluate(Network(_tiny_net_spec(gate=gate), seed=3), val, batch_size=4)
    assert calls == want


def test_deferred_indices_match_a_check_of_the_units_own_arrays(monkeypatch):
    # the indices are read after the whole forward and backward, which must
    # leave each inactive unit's embeddings as the unit made them
    pairs = []
    real = sg.recursion

    def recursion(embedding, params):
        filtered = real(embedding, params)
        pairs.append((embedding.data.copy(), filtered.data.copy()))
        return filtered

    monkeypatch.setattr(sg, "recursion", recursion)
    spec = dataclasses.replace(_tiny_net_spec(gate=False, placement="start"),
                               stages=[StageSpec(blocks=2, channels=4, stride=(1, 2, 2))])
    calls = _count_checks(monkeypatch)
    train_ds, _ = _tiny_data()
    logits, gate_log = Network(spec, seed=4).forward(train_ds.clips[:4], training=True)
    backward(tt.softmax_cross_entropy(logits, train_ds.labels[:4]))
    assert calls == [] and len(gate_log) == len(pairs) == 2
    for (emb, filtered), (_, record) in zip(pairs, gate_log):
        assert np.array_equal(record.emb.data, emb)
        assert np.array_equal(record.filtered.data, filtered)
        got = [a.tolist() for a in record.match_indices()]
        want = [a.tolist() for a in sg.cycle_consistent(emb, filtered)[1:]]
        assert got == want
    assert calls == [(4, 4, 4)] * 4  # one per unit on read, one per unit for `want`


@pytest.mark.parametrize("gate", [False, True], ids=["inactive", "active"])
def test_backward_leaves_the_callers_tensors_and_records_intact(gate):
    # backward frees the tape, not the arrays of the Tensors the caller holds
    train_ds, _ = _tiny_data()
    spec = dataclasses.replace(_tiny_net_spec(gate=gate, placement="start"),
                               stages=[StageSpec(blocks=2, channels=4, stride=(1, 2, 2))])
    logits, gate_log = Network(spec, seed=4).forward(train_ds.clips[:4], training=True)
    before = [a.data.copy() for _, r in gate_log for a in (r.emb, r.filtered)]
    want_logits = logits.data.copy()
    backward(tt.softmax_cross_entropy(logits, train_ds.labels[:4]))
    assert np.array_equal(logits.data, want_logits)
    after = [a.data for _, r in gate_log for a in (r.emb, r.filtered)]
    assert len(after) == 4 and all(map(np.array_equal, after, before))
    for i, (_, record) in enumerate(gate_log):
        want = sg.cycle_consistent(before[2 * i], before[2 * i + 1])[1:]
        assert [a.tolist() for a in record.match_indices()] == [a.tolist() for a in want]


def test_backward_frees_the_last_steps_tape():
    # the toy network on a (4, 1, 8, 16, 16) batch, stepped as `train` steps
    # it: the last step's loss and logits stay bound until the next forward
    # returns, so a tape that outlived its backward would stay traced
    net = Network(network_spec(read_config(str(CONFIGS / "toy.cfg"))), seed=7)
    opt = SGD(net.named_params())
    clips = np.random.default_rng(5).standard_normal((4, 1, 8, 16, 16))
    labels = np.array([0, 1, 1, 0])
    param_bytes = sum(p.data.nbytes for _, p in net.named_params())
    peaks = []
    try:
        for step in range(3):  # one untraced warm-up step, then two traced
            if step == 1:
                tracemalloc.start()
            opt.zero_grad()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            logits, _ = net.forward(clips, training=True)
            loss = tt.softmax_cross_entropy(logits, labels)
            backward(loss)
            kept, peak = tracemalloc.get_traced_memory()
            opt.step(0.01)
            if step:
                # the leaves' gradients and a few small arrays, no activations
                assert kept - base <= 2 * param_bytes, (kept - base, param_bytes)
                peaks.append(peak)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_metrics_invariant_guard():
    with pytest.raises(ValueError, match="top1"):
        Metrics(top1=0.9, top5=0.5, loss=1.0)


def test_metrics_invariant_guard_survives_optimize_flag():
    # python -O strips assert statements; the guard must not be one
    src = os.path.dirname(os.path.dirname(os.path.abspath(srtg.train.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c",
         "from srtg.train import Metrics; Metrics(top1=0.9, top5=0.5, loss=1.0)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "ValueError" in run.stderr


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_training_reduces_loss_on_toy_task():
    train_ds, val_ds = _tiny_data(n_train=24, n_val=8)
    net = Network(_tiny_net_spec(), seed=4)
    _, history = train(net, train_ds, val_ds, _cfg(epochs=5, lr0=0.05))
    losses = [row["loss"] for row in history]
    assert losses[-1] < losses[0]
    assert all(np.isfinite(v) for v in losses)


def test_two_seeded_runs_identical_history_and_csv(tmp_path):
    train_ds, val_ds = _tiny_data()
    rows = []
    for run in range(2):
        net = Network(_tiny_net_spec(), seed=11)
        path = tmp_path / f"metrics_{run}.csv"
        train(net, train_ds, val_ds, _cfg(), metrics_path=path)
        rows.append(path.read_bytes())
    assert rows[0] == rows[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_epoch():
    train_ds, val_ds = _tiny_data()
    net = Network(_tiny_net_spec(), seed=12)
    net.params["head.weight"].data[:] = np.inf
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        train(net, train_ds, val_ds, _cfg())


def test_frame_subsampling_applied_when_clips_longer():
    spec = SyntheticSpec(num_classes=2, family="reversed_pair", channels=1, frames=6,
                         height=8, width=8, noise=0.02, train_clips=8, val_clips=4, seed=6)
    train_ds, val_ds = generate(spec)  # 8 clips: one epoch permutes range(8)
    net = Network(_tiny_net_spec(), seed=13)
    cfg = _cfg(epochs=1, frames_per_clip=4)
    seen = []
    forward = net.forward

    def capture(clips, training):
        if training:
            seen.append(clips.copy())
        return forward(clips, training=training)

    net.forward = capture
    _, history = train(net, train_ds, val_ds, cfg)
    assert len(history) == 1
    order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, 1])).permutation(8)
    expected = [frame_sample_oracle(train_ds.clips[i], cfg.seed, 1, int(i), cfg.frames_per_clip)
                for i in order]
    np.testing.assert_array_equal(np.concatenate(seen), np.stack(expected))


def test_lr_schedule_steps_down():
    cfg = TrainConfig(lr0=0.1, epochs=20, milestones=(), seed=0)
    assert cfg.milestones == (10, 15)
    assert cfg.lr_at(9) == 0.1
    assert np.isclose(cfg.lr_at(10), 0.01)
    assert np.isclose(cfg.lr_at(15), 0.001)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    train_ds, val_ds = _tiny_data()
    net = Network(_tiny_net_spec(), seed=14)
    opt = SGD(net.named_params())
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    checkpoint_save(p1, net, opt, epoch=3, seed=7, net_config=NET_CONFIG)
    state = checkpoint_load(p1)
    net2 = Network(_tiny_net_spec(), seed=99)
    opt2 = SGD(net2.named_params())
    apply_checkpoint(net2, opt2, state)
    checkpoint_save(p2, net2, opt2, epoch=3, seed=7, net_config=NET_CONFIG)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_load_keeps_one_copy(tmp_path):
    spec = dataclasses.replace(_tiny_net_spec(), stem_channels=16,
                               stages=[StageSpec(blocks=1, channels=16, stride=(1, 2, 2))])
    net = Network(spec, seed=22)
    path = tmp_path / "c.ckpt"
    checkpoint_save(path, net, SGD(net.named_params()), epoch=1, net_config=NET_CONFIG)
    tracemalloc.start()
    try:
        state = checkpoint_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size
    net2 = Network(spec, seed=23)
    apply_checkpoint(net2, None, state)  # copies out of the read-only views
    for (_, a), (_, b) in zip(net.named_params(), net2.named_params()):
        np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_bytes_match_the_documented_format(tmp_path):
    # README: the SRTGCKPT magic, version 1 and the header length as <IQ, the
    # JSON header with sorted keys naming every array (parameters, batch-norm
    # buffers, then momentum by sorted name), the <f8 payload in that order,
    # then the SHA-256 of everything before it
    net = Network(_tiny_net_spec(), seed=21)
    opt = SGD(net.named_params())
    arrays = [(f"param.{name}", p.data) for name, p in net.named_params()]
    arrays += [(f"buffer.{name}", b) for name, b in net.named_buffers()]
    arrays += [(f"velocity.{name}", opt.velocity[name]) for name in sorted(opt.velocity)]
    for i, (name, arr) in enumerate(arrays):
        if not name.startswith("param."):  # make every array's bytes distinct
            arr[...] = i + np.arange(arr.size).reshape(arr.shape) / arr.size
    header = json.dumps({"epoch": 3, "seed": 7, "net_config": NET_CONFIG,
                         "arrays": [[name, list(arr.shape)] for name, arr in arrays]},
                        sort_keys=True).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(header)) + header
    body += b"".join(struct.pack(f"<{arr.size}d", *arr.ravel()) for _, arr in arrays)
    path = tmp_path / "tiny.ckpt"
    checkpoint_save(path, net, opt, epoch=3, seed=7, net_config=NET_CONFIG)
    assert path.read_bytes() == body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("kind", ["buffer", "velocity"])
def test_checkpoint_restore_checks_buffer_and_velocity_shapes(tmp_path, kind):
    net = Network(_tiny_net_spec(), seed=17)
    opt = SGD(net.named_params())
    path = tmp_path / "s.ckpt"
    checkpoint_save(path, net, opt, epoch=1, net_config=NET_CONFIG)
    state = checkpoint_load(path)
    key = next(k for k in state["arrays"] if k.startswith(f"{kind}."))
    state["arrays"][key] = np.zeros(1)
    with pytest.raises(CheckpointError, match=f"shape mismatch for {key}"):
        apply_checkpoint(Network(_tiny_net_spec(), seed=18), SGD(net.named_params()), state)


def _save_checkpoint_of_epoch(path, epoch):
    net = Network(_tiny_net_spec(), seed=19)
    checkpoint_save(path, net, SGD(net.named_params()), epoch=epoch, net_config=NET_CONFIG)


def _save_dataset_of_seed(path, seed):
    save_dataset(path, _tiny_data(n_train=4, n_val=2, seed=seed)[0])


@pytest.mark.parametrize("save", [_save_checkpoint_of_epoch, _save_dataset_of_seed],
                         ids=["checkpoint_save", "save_dataset"])
def test_save_keeps_previous_file_when_write_fails(tmp_path, monkeypatch, save):
    path = tmp_path / "file.bin"
    save(path, 1)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before the swap")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated"):
        save(path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.bin"]


def test_checkpoint_truncation_detected(tmp_path):
    net = Network(_tiny_net_spec(), seed=15)
    opt = SGD(net.named_params())
    path = tmp_path / "c.ckpt"
    checkpoint_save(path, net, opt, epoch=1, net_config=NET_CONFIG)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(CheckpointError, match="checksum"):
        checkpoint_load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"garbage" * 30)
    with pytest.raises(CheckpointError, match=r"\(bad magic\)$"):
        checkpoint_load(path)


@pytest.mark.parametrize("hjson", [
    b'{"seed": 0, "arrays": []}',
    b'{"epoch": 1, "arrays": []}',
    b'{"epoch": 1, "seed": 0}',
    None,
    b"[1, 2]",
    b'{"epoch": 1,',
    b'{"epoch": 1, "seed": 0, "net_config": {}, "arrays": [1]}',
    b'{"epoch": 1, "seed": 0, "net_config": {}, "arrays": [["param.w", [4]]]}',
    b'{"epoch": 1, "seed": 0, "net_config": {}, '
    b'"arrays": [["param.w", [4294967296, 4294967296]]]}',
    b'{"epoch": "1", "seed": 0, "arrays": []}',
    b'{"epoch": 1.0, "seed": 0, "arrays": []}',
    b'{"epoch": true, "seed": 0, "arrays": []}',
    b'{"epoch": -3, "seed": 0, "arrays": []}',
    b'{"epoch": 1, "seed": "0", "arrays": []}',
    b'{"epoch": 1, "seed": 0.0, "arrays": []}',
    b'{"epoch": 1, "seed": false, "arrays": []}',
    b'{"epoch": 1, "seed": -1, "arrays": []}',
], ids=["no_epoch", "no_seed", "no_arrays", "magic_only", "not_object", "not_json",
        "array_entry_not_a_pair", "array_past_payload", "array_size_past_int64",
        "epoch_string", "epoch_float", "epoch_bool", "epoch_negative",
        "seed_string", "seed_float", "seed_bool", "seed_negative"])
def test_checkpoint_header_faults_are_checkpoint_errors(tmp_path, hjson):
    # the checksum trailer is valid; only what it covers is malformed
    body = b"SRTGCKPT"
    if hjson is not None:
        body += struct.pack("<IQ", 1, len(hjson)) + hjson
    path = tmp_path / "forged.ckpt"
    path.write_bytes(body + hashlib.sha256(body).digest())
    # the message, not the test's tmp_path, must name the header
    with pytest.raises(CheckpointError, match=r"forged\.ckpt: .*header"):
        checkpoint_load(path)


@pytest.mark.parametrize("table,values", [
    ([[7, [1]], ["param.x", [4]]], 5),
    ([["param.x", [1]], ["param.x", [4]]], 5),
    # count -1 reads to the end and moves the offset back 8 bytes, so param.x
    # would start inside the header and the sizes would add up
    ([["junk", [-1]], ["param.x", [4]]], 3),
    ([["param.x", [True]], ["param.y", [3]]], 4),
], ids=["name_not_a_string", "name_repeats", "dim_negative", "dim_bool"])
def test_checkpoint_array_table_faults_are_checkpoint_errors(tmp_path, table, values):
    # the payload holds `values` doubles and the checksum trailer is valid
    hjson = json.dumps({"epoch": 1, "seed": 0, "net_config": NET_CONFIG,
                        "arrays": table}).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(hjson)) + hjson
    body += np.arange(values, dtype="<f8").tobytes()
    path = tmp_path / "forged.ckpt"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match="bad array table"):
        checkpoint_load(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    net = Network(_tiny_net_spec(), seed=16)
    path = tmp_path_factory.mktemp("fuzz") / "checkpoint.bin"
    checkpoint_save(path, net, SGD(net.named_params()), epoch=1, net_config=NET_CONFIG)
    return path


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_truncated_checkpoint_rejected(saved_checkpoint, data):
    raw = saved_checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    forged = saved_checkpoint.with_name("truncated.bin")
    forged.write_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        checkpoint_load(forged)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_byte_flip_in_checkpoint_rejected(saved_checkpoint, data):
    raw = bytearray(saved_checkpoint.read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] ^= data.draw(st.integers(1, 255), label="xor")
    forged = saved_checkpoint.with_name("flipped.bin")
    forged.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        checkpoint_load(forged)


_MISSING = object()


def _checkpoint_with_net_config(path, net_config):
    header = {"epoch": 1, "seed": 0, "arrays": []}
    if net_config is not _MISSING:
        header["net_config"] = net_config
    hjson = json.dumps(header).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(hjson)) + hjson
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


_BAD_NET_CONFIGS = [
    5, "network", [["network", {}]], {"network": 5}, {"network": {"depth_kind": 5}}, None,
]
_BAD_NET_CONFIG_IDS = ["number", "string", "list", "section_not_object", "value_not_string",
                       "null"]


@pytest.mark.parametrize("net_config", _BAD_NET_CONFIGS + [_MISSING],
                         ids=_BAD_NET_CONFIG_IDS + ["missing"])
def test_checkpoint_net_config_must_be_sections_of_strings(tmp_path, net_config):
    path = _checkpoint_with_net_config(tmp_path / "forged.ckpt", net_config)
    with pytest.raises(CheckpointError, match=r"forged\.ckpt: net_config"):
        checkpoint_load(path)


@pytest.mark.parametrize("net_config", _BAD_NET_CONFIGS, ids=_BAD_NET_CONFIG_IDS)
def test_checkpoint_save_refuses_what_load_rejects(tmp_path, net_config):
    net = Network(_tiny_net_spec(), seed=16)
    path = tmp_path / "refused.ckpt"
    with pytest.raises(CheckpointError, match="net_config"):
        checkpoint_save(path, net, SGD(net.named_params()), epoch=1, net_config=net_config)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("net_config", [{}, NET_CONFIG])
def test_checkpoint_net_config_sections_load(tmp_path, net_config):
    path = _checkpoint_with_net_config(tmp_path / "ok.ckpt", net_config)
    assert checkpoint_load(path)["net_config"] == net_config


def test_resume_reproduces_uninterrupted_run(tmp_path):
    train_ds, val_ds = _tiny_data()
    cfg = _cfg(epochs=4)

    net_full = Network(_tiny_net_spec(), seed=16)
    full_path = tmp_path / "full.csv"
    train(net_full, train_ds, val_ds, cfg, metrics_path=full_path)

    net_a = Network(_tiny_net_spec(), seed=16)
    ck = tmp_path / "resume.ckpt"
    part_path = tmp_path / "part.csv"
    train(net_a, train_ds, val_ds, cfg, metrics_path=part_path,
          checkpoint_path=ck, stop_after=2, net_config=NET_CONFIG)

    state = checkpoint_load(ck)
    assert state["epoch"] == 2
    net_b = Network(_tiny_net_spec(), seed=16)
    opt_b = SGD(net_b.named_params(), cfg.momentum, cfg.weight_decay)
    apply_checkpoint(net_b, opt_b, state)
    train(net_b, train_ds, val_ds, cfg, metrics_path=part_path,
          start_epoch=state["epoch"], optimizer=opt_b)

    assert full_path.read_bytes() == part_path.read_bytes()


def test_train_refuses_a_checkpoint_without_sections_before_any_epoch(tmp_path):
    train_ds, val_ds = _tiny_data()
    with pytest.raises(CheckpointError, match="net_config"):
        train(Network(_tiny_net_spec(), seed=16), train_ds, val_ds, _cfg(),
              metrics_path=tmp_path / "metrics.csv", checkpoint_path=tmp_path / "c.bin")
    assert list(tmp_path.iterdir()) == []


def test_resume_after_crash_between_row_and_checkpoint(tmp_path, monkeypatch):
    # the epoch-3 row is written, then its checkpoint fails; resuming from
    # the epoch-2 checkpoint must not repeat that row
    train_ds, val_ds = _tiny_data()
    cfg = _cfg(epochs=4)
    full, part = tmp_path / "full", tmp_path / "part"
    full.mkdir()
    part.mkdir()
    train(Network(_tiny_net_spec(), seed=16), train_ds, val_ds, cfg,
          metrics_path=full / "metrics.csv", checkpoint_path=full / "checkpoint.bin",
          net_config=NET_CONFIG)

    save = srtg.train.checkpoint_save

    def crash_at_epoch_3(path, net, optimizer, epoch, **kw):
        if epoch == 3:
            raise OSError("simulated crash before checkpoint 3")
        save(path, net, optimizer, epoch, **kw)

    monkeypatch.setattr(srtg.train, "checkpoint_save", crash_at_epoch_3)
    with pytest.raises(OSError, match="simulated"):
        train(Network(_tiny_net_spec(), seed=16), train_ds, val_ds, cfg,
              metrics_path=part / "metrics.csv", checkpoint_path=part / "checkpoint.bin",
              net_config=NET_CONFIG)
    monkeypatch.undo()

    state = checkpoint_load(part / "checkpoint.bin")
    assert state["epoch"] == 2
    net = Network(_tiny_net_spec(), seed=16)
    opt = SGD(net.named_params(), cfg.momentum, cfg.weight_decay)
    apply_checkpoint(net, opt, state)
    train(net, train_ds, val_ds, cfg, metrics_path=part / "metrics.csv",
          checkpoint_path=part / "checkpoint.bin", start_epoch=2, optimizer=opt,
          net_config=NET_CONFIG)

    for name in ("metrics.csv", "checkpoint.bin"):
        assert (part / name).read_bytes() == (full / name).read_bytes(), name
