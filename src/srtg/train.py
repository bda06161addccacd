"""Deterministic SGD training loop, evaluation metrics and checkpoints.

Determinism contract: with a fixed (dataset seed, init seed, train config),
two runs produce byte-identical metrics logs, and a run resumed from the
epoch-k checkpoint continues bit-exactly like the uninterrupted run. All
randomness is drawn from generators derived from (seed, purpose, epoch, ...),
never from global state, so nothing about RNG needs to live in checkpoints.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from srtg import tensor as tt
from srtg.blocks import Network
from srtg.config import TrainConfig
from srtg.data import Dataset
from srtg.tensor import backward, no_grad

__all__ = [
    "SGD",
    "Metrics",
    "TrainingDivergedError",
    "CheckpointError",
    "top_k_hits",
    "gate_rates",
    "eval_batches",
    "evaluate",
    "train",
    "checkpoint_save",
    "checkpoint_load",
    "apply_checkpoint",
]

_CKPT_MAGIC = b"SRTGCKPT"
_CKPT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite; the message names the offending epoch."""


class CheckpointError(RuntimeError):
    """Bad magic, version, shape or checksum in a checkpoint file."""


class SGD:
    """Momentum SGD with decoupled weight decay.

    v <- momentum * v + grad;  p <- p - lr * v;  p <- p - lr * wd * p.
    The decay step is applied after the gradient step, independent of the
    momentum buffer.
    """

    def __init__(self, named_params, momentum=0.9, weight_decay=1e-6):
        self.params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float):
        for name, p in self.params:
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += p.grad
            p.data -= lr * v
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()


@dataclass
class Metrics:
    top1: float
    top5: float
    loss: float
    gate_open_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        assert 0.0 <= self.top1 <= self.top5 <= 1.0


def top_k_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Count rows whose label ranks in the top k; logit ties break toward the
    smaller class index."""
    n, classes = logits.shape
    # lexsort: primary key -logits, secondary key class index
    order = np.lexsort((np.tile(np.arange(classes), (n, 1)), -logits), axis=1)
    top = order[:, : min(k, classes)]
    return int((top == labels[:, None]).any(axis=1).sum())


def _batches(n, batch_size, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def gate_rates(gate_log) -> dict:
    """Per unit, the share of clip decisions that fused, over a gate log's
    (unit, decisions) pairs gathered from any number of batches."""
    tally = {}
    for name, decisions in gate_log:
        acc = tally.setdefault(name, [0, 0])
        acc[0] += sum(1 for d in decisions if d.fused)
        acc[1] += len(decisions)
    return {name: fused / n for name, (fused, n) in tally.items()}


def eval_batches(net: Network, ds: Dataset, batch_size: int):
    """Forward the split in eval mode, batch by batch in clip order; yields
    (clip indices, logits, gate log). The tape stays off while the caller
    handles each batch."""
    with no_grad():
        for idx in _batches(len(ds), batch_size):
            logits, gate_log = net.forward(ds.clips[idx], training=False)
            yield idx, logits, gate_log


def _subsample_frames(clip, frames_per_clip, rng):
    t = clip.shape[1]
    if t <= frames_per_clip:
        return clip
    keep = np.sort(rng.choice(t, size=frames_per_clip, replace=False))
    return clip[:, keep]


def evaluate(net: Network, ds: Dataset, batch_size=16) -> Metrics:
    """Forward the whole split in eval mode; top-k uses the documented tie
    rule and gate-open rates aggregate the per-clip decisions per unit."""
    if len(ds) == 0:
        raise ValueError("evaluate: empty split")
    hits1 = hits5 = 0
    loss_sum = 0.0
    log = []
    for idx, logits, gate_log in eval_batches(net, ds, batch_size):
        labels = ds.labels[idx]
        loss = tt.softmax_cross_entropy(logits, labels)
        loss_sum += float(loss.data) * len(idx)
        hits1 += top_k_hits(logits.data, labels, 1)
        hits5 += top_k_hits(logits.data, labels, 5)
        log += gate_log
    n = len(ds)
    return Metrics(hits1 / n, hits5 / n, loss_sum / n, gate_rates(log))


def _history_columns(unit_names):
    return ["epoch", "loss", "top1", "top5", "lr"] + [
        f"gate_open_rate.{name}" for name in unit_names
    ]


def _drop_rows_after(path, epoch):
    """Cut a metrics file after its last complete row for an epoch <= epoch.
    The row of epoch k is written before checkpoint k, so a crash between the
    two leaves a row that the run resumed from checkpoint k-1 writes again."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        keep = len(fh.readline())  # column names
        for line in fh:
            first = line.split(b",", 1)[0]
            if not (line.endswith(b"\n") and first.isdigit() and int(first) <= epoch):
                break
            keep += len(line)
        fh.truncate(keep)


def train(
    net: Network,
    train_ds: Dataset,
    val_ds: Dataset,
    cfg: TrainConfig,
    metrics_path=None,
    checkpoint_path=None,
    start_epoch=0,
    optimizer=None,
    stop_after=None,
    net_config=None,
):
    """Run epochs start_epoch+1 .. cfg.epochs; returns (optimizer, history).

    stop_after simulates an interruption: the run halts after that epoch but
    keeps the full-length schedule, so resuming from its checkpoint continues
    the original run bit-exactly.

    History rows hold the epoch's mean train loss, val top-1/top-5, the lr
    used, and per-unit gate-open rates on the val split. Rows are appended to
    metrics_path as they are produced, after dropping any past start_epoch;
    a checkpoint (when requested) is rewritten after every epoch.
    """
    optimizer = optimizer or SGD(net.named_params(), cfg.momentum, cfg.weight_decay)
    unit_names = net.srtg_unit_names()
    columns = _history_columns(unit_names)
    history = []
    writer = None
    fh = None
    if metrics_path is not None:
        if start_epoch:
            _drop_rows_after(metrics_path, start_epoch)
        fh = open(metrics_path, "w" if start_epoch == 0 else "a", newline="")
        writer = csv.writer(fh)
        if start_epoch == 0:
            writer.writerow(columns)
            fh.flush()
    last_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, stop_after)
    try:
        n = len(train_ds)
        for epoch in range(start_epoch + 1, last_epoch + 1):
            lr = cfg.lr_at(epoch)
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 2, epoch])
            ).permutation(n)
            loss_sum = 0.0
            for batch in _batches(n, cfg.batch_size, order):
                clips = train_ds.clips[batch]
                if clips.shape[2] > cfg.frames_per_clip:
                    sub = []
                    for pos, clip_idx in enumerate(batch):
                        rng = np.random.default_rng(
                            np.random.SeedSequence([cfg.seed, 3, epoch, int(clip_idx)])
                        )
                        sub.append(_subsample_frames(clips[pos], cfg.frames_per_clip, rng))
                    clips = np.stack(sub)
                logits, _ = net.forward(clips, training=True)
                loss = tt.softmax_cross_entropy(logits, train_ds.labels[batch])
                if not np.isfinite(loss.data):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
                loss_sum += float(loss.data) * len(batch)
                optimizer.zero_grad()
                backward(loss)
                optimizer.step(lr)
            optimizer.zero_grad()
            metrics = evaluate(net, val_ds, batch_size=cfg.batch_size)
            row = [epoch, loss_sum / n, metrics.top1, metrics.top5, lr] + [
                metrics.gate_open_rates.get(name, 1.0) for name in unit_names
            ]
            history.append(dict(zip(columns, row)))
            if writer is not None:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
                fh.flush()
            if checkpoint_path is not None:
                checkpoint_save(checkpoint_path, net, optimizer, epoch,
                                seed=cfg.seed, net_config=net_config)
    finally:
        if fh is not None:
            fh.close()
    return optimizer, history


# ---------------------------------------------------------------------------
# checkpoints: magic, version, json header, raw arrays, sha256 trailer
# ---------------------------------------------------------------------------


def _state_arrays(net: Network, optimizer: SGD):
    arrays = [(f"param.{name}", p.data) for name, p in net.named_params()]
    arrays += [(f"buffer.{name}", b) for name, b in net.named_buffers()]
    arrays += [(f"velocity.{name}", v) for name, v in sorted(optimizer.velocity.items())]
    return arrays


def checkpoint_save(path, net: Network, optimizer: SGD, epoch: int, seed=0, net_config=None):
    """net_config, when given, is the sectioned network config (plain strings);
    it lets evaluate/gate-analyze rebuild the architecture from the file alone."""
    arrays = _state_arrays(net, optimizer)
    header = {
        "epoch": int(epoch),
        "seed": int(seed),
        "net_config": net_config,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    hjson = json.dumps(header, sort_keys=True).encode()
    body = bytearray()
    body += _CKPT_MAGIC
    body += struct.pack("<IQ", _CKPT_VERSION, len(hjson))
    body += hjson
    for _, arr in arrays:
        body += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    digest = hashlib.sha256(bytes(body)).digest()
    # write beside the target and swap it in, so a crash mid-write keeps the
    # previous checkpoint
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(body))
            fh.write(digest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checkpoint_load(path) -> dict:
    """Return {"epoch", "seed", "arrays": {name: ndarray}}; verifies checksum."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < len(_CKPT_MAGIC) + 32 or raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (truncated or corrupt)")
    off = len(_CKPT_MAGIC)
    if len(body) < off + struct.calcsize("<IQ"):
        raise CheckpointError(f"{path}: header truncated")
    version, hlen = struct.unpack_from("<IQ", body, off)
    off += struct.calcsize("<IQ")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(body[off : off + hlen].decode())
    except ValueError as e:
        raise CheckpointError(f"{path}: header is not JSON ({e})") from e
    if not isinstance(header, dict) or not {"epoch", "seed", "arrays"} <= header.keys():
        raise CheckpointError(f"{path}: header is not an object with epoch, seed and arrays")
    off += hlen
    arrays = {}
    try:
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(shape)
            arrays[name] = arr.copy()
            off += count * 8
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad array table in header ({e})") from e
    if off != len(body):
        raise CheckpointError(f"{path}: payload size mismatch")
    return {
        "epoch": header["epoch"],
        "seed": header["seed"],
        "net_config": header.get("net_config"),
        "arrays": arrays,
    }


def apply_checkpoint(net: Network, optimizer: SGD | None, state: dict):
    """Restore parameters, batch-norm buffers and (if given) momentum in place."""
    arrays = state["arrays"]

    def restore(key, dest):
        if key not in arrays:
            raise CheckpointError(f"checkpoint missing array {key}")
        if arrays[key].shape != dest.shape:
            raise CheckpointError(
                f"shape mismatch for {key}: checkpoint {arrays[key].shape}, "
                f"model {dest.shape}"
            )
        dest[:] = arrays[key]

    for name, p in net.named_params():
        restore(f"param.{name}", p.data)
    for name, b in net.named_buffers():
        restore(f"buffer.{name}", b)
    if optimizer is not None:
        for name, v in optimizer.velocity.items():
            restore(f"velocity.{name}", v)
