"""Optimizer, metrics, training-loop and checkpoint tests."""

import hashlib
import struct

import numpy as np
import pytest

import srtg.train
from srtg import tensor as tt
from srtg.blocks import Network
from srtg.config import NetworkSpec, StageSpec, TrainConfig
from srtg.data import Dataset, generate
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
    net.head_w.data[:] = 0.0
    net.head_b.data[:] = 0.0
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


def test_metrics_invariant_guard():
    with pytest.raises(AssertionError):
        Metrics(top1=0.9, top5=0.5, loss=1.0)


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
    net.head_w.data[:] = np.inf
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        train(net, train_ds, val_ds, _cfg())


def test_frame_subsampling_applied_when_clips_longer():
    spec = SyntheticSpec(num_classes=2, family="reversed_pair", channels=1, frames=6,
                         height=8, width=8, noise=0.02, train_clips=8, val_clips=4, seed=6)
    train_ds, val_ds = generate(spec)
    net = Network(_tiny_net_spec(), seed=13)
    cfg = _cfg(epochs=1, frames_per_clip=4)
    _, history = train(net, train_ds, val_ds, cfg)
    assert len(history) == 1  # subsampled batches must flow through cleanly


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
    checkpoint_save(p1, net, opt, epoch=3, seed=7)
    state = checkpoint_load(p1)
    net2 = Network(_tiny_net_spec(), seed=99)
    opt2 = SGD(net2.named_params())
    apply_checkpoint(net2, opt2, state)
    checkpoint_save(p2, net2, opt2, epoch=3, seed=7)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("kind", ["buffer", "velocity"])
def test_checkpoint_restore_checks_buffer_and_velocity_shapes(tmp_path, kind):
    net = Network(_tiny_net_spec(), seed=17)
    opt = SGD(net.named_params())
    path = tmp_path / "s.ckpt"
    checkpoint_save(path, net, opt, epoch=1)
    state = checkpoint_load(path)
    key = next(k for k in state["arrays"] if k.startswith(f"{kind}."))
    state["arrays"][key] = np.zeros(1)
    with pytest.raises(CheckpointError, match=f"shape mismatch for {key}"):
        apply_checkpoint(Network(_tiny_net_spec(), seed=18), SGD(net.named_params()), state)


def test_checkpoint_save_keeps_previous_file_when_write_fails(tmp_path, monkeypatch):
    net = Network(_tiny_net_spec(), seed=19)
    opt = SGD(net.named_params())
    path = tmp_path / "checkpoint.bin"
    checkpoint_save(path, net, opt, epoch=1)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before the swap")

    monkeypatch.setattr(srtg.train.os, "replace", crash)
    with pytest.raises(OSError, match="simulated"):
        checkpoint_save(path, net, opt, epoch=2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_checkpoint_truncation_detected(tmp_path):
    net = Network(_tiny_net_spec(), seed=15)
    opt = SGD(net.named_params())
    path = tmp_path / "c.ckpt"
    checkpoint_save(path, net, opt, epoch=1)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(CheckpointError, match="checksum"):
        checkpoint_load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"garbage" * 30)
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_load(path)


@pytest.mark.parametrize("hjson", [
    b'{"seed": 0, "arrays": []}',
    b'{"epoch": 1, "arrays": []}',
    b'{"epoch": 1, "seed": 0}',
    None,
    b"[1, 2]",
    b'{"epoch": 1,',
    b'{"epoch": 1, "seed": 0, "arrays": [1]}',
    b'{"epoch": 1, "seed": 0, "arrays": [["param.w", [4]]]}',
], ids=["no_epoch", "no_seed", "no_arrays", "magic_only", "not_object", "not_json",
        "array_entry_not_a_pair", "array_past_payload"])
def test_checkpoint_header_faults_are_checkpoint_errors(tmp_path, hjson):
    # the checksum trailer is valid; only what it covers is malformed
    body = b"SRTGCKPT"
    if hjson is not None:
        body += struct.pack("<IQ", 1, len(hjson)) + hjson
    path = tmp_path / "forged.ckpt"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match="header"):
        checkpoint_load(path)


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
          checkpoint_path=ck, stop_after=2)

    state = checkpoint_load(ck)
    assert state["epoch"] == 2
    net_b = Network(_tiny_net_spec(), seed=16)
    opt_b = SGD(net_b.named_params(), cfg.momentum, cfg.weight_decay)
    apply_checkpoint(net_b, opt_b, state)
    train(net_b, train_ds, val_ds, cfg, metrics_path=part_path,
          start_epoch=state["epoch"], optimizer=opt_b)

    assert full_path.read_bytes() == part_path.read_bytes()


def test_resume_after_crash_between_row_and_checkpoint(tmp_path, monkeypatch):
    # the epoch-3 row is written, then its checkpoint fails; resuming from
    # the epoch-2 checkpoint must not repeat that row
    train_ds, val_ds = _tiny_data()
    cfg = _cfg(epochs=4)
    full, part = tmp_path / "full", tmp_path / "part"
    full.mkdir()
    part.mkdir()
    train(Network(_tiny_net_spec(), seed=16), train_ds, val_ds, cfg,
          metrics_path=full / "metrics.csv", checkpoint_path=full / "checkpoint.bin")

    save = srtg.train.checkpoint_save

    def crash_at_epoch_3(path, net, optimizer, epoch, **kw):
        if epoch == 3:
            raise OSError("simulated crash before checkpoint 3")
        save(path, net, optimizer, epoch, **kw)

    monkeypatch.setattr(srtg.train, "checkpoint_save", crash_at_epoch_3)
    with pytest.raises(OSError, match="simulated"):
        train(Network(_tiny_net_spec(), seed=16), train_ds, val_ds, cfg,
              metrics_path=part / "metrics.csv", checkpoint_path=part / "checkpoint.bin")
    monkeypatch.undo()

    state = checkpoint_load(part / "checkpoint.bin")
    assert state["epoch"] == 2
    net = Network(_tiny_net_spec(), seed=16)
    opt = SGD(net.named_params(), cfg.momentum, cfg.weight_decay)
    apply_checkpoint(net, opt, state)
    train(net, train_ds, val_ds, cfg, metrics_path=part / "metrics.csv",
          checkpoint_path=part / "checkpoint.bin", start_epoch=2, optimizer=opt)

    for name in ("metrics.csv", "checkpoint.bin"):
        assert (part / name).read_bytes() == (full / name).read_bytes(), name
