"""Deterministic SGD training loop, evaluation metrics and checkpoints.

Determinism contract: with a fixed (dataset seed, init seed, train config),
two runs produce byte-identical metrics logs, and a run resumed from the
epoch-k checkpoint continues bit-exactly like the uninterrupted run. All
randomness is drawn from generators derived from (seed, purpose, epoch, ...),
never from global state, so nothing about RNG needs to live in checkpoints.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from srtg import tensor as tt
from srtg.blocks import Network
from srtg.config import ConfigError, TrainConfig
from srtg.data import Dataset, frame_bytes, read_file, read_frame, write_atomic
from srtg.tensor import backward

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
        if not 0.0 <= self.top1 <= self.top5 <= 1.0:
            raise ValueError(f"Metrics: need 0 <= top1 ({self.top1}) <= top5 ({self.top5}) <= 1")


def top_k_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Count rows whose label ranks in the top k; logit ties break toward the
    smaller class index."""
    # a stable sort keeps tied classes in index order
    top = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return int((top == labels[:, None]).any(axis=1).sum())


def _batches(n, batch_size, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start : start + batch_size]


def gate_rates(gate_log) -> dict:
    """Per unit, the share of clip verdicts that fused, over a gate log's
    (unit, record) pairs gathered from any number of batches."""
    tally = {}
    for name, record in gate_log:
        acc = tally.setdefault(name, [0, 0])
        acc[0] += sum(1 for v in record if v.fused)
        acc[1] += len(record)
    return {name: fused / n for name, (fused, n) in tally.items()}


def eval_batches(net: Network, ds: Dataset, batch_size: int):
    """Forward the split in eval mode, batch by batch in clip order; yields
    (clip indices, logits, gate log). `Network.forward` turns the tape off
    for an eval forward, so the logits carry no graph into the caller."""
    for idx in _batches(len(ds), batch_size):
        logits, gate_log = net.forward(ds.clips[idx], training=False)
        yield idx, logits, gate_log


def evaluate(net: Network, ds: Dataset, batch_size=16) -> Metrics:
    """Forward the whole split in eval mode; top-k uses the documented tie
    rule and gate-open rates aggregate the per-clip verdicts per unit."""
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


def kept_metrics_rows(path, epoch, net):
    """The rows a run that starts after `epoch` keeps of its metrics file: the
    complete rows up to the first that does not end in a newline or whose
    epoch is not a number <= epoch; none at epoch 0. The row of epoch k is
    written before checkpoint k, so a crash between the two leaves a row that
    the run resumed from checkpoint k-1 writes again. A resume into a file with
    other columns than `net`'s is refused: it is another network's, left as is."""
    if not epoch:
        return []
    try:
        with open(path, "rb") as fh:
            head, lines = fh.readline(), list(fh)
    except (FileNotFoundError, NotADirectoryError):
        return []
    columns = _history_columns(net.srtg_unit_names())
    if head and head.rstrip(b"\r\n") != ",".join(columns).encode():
        raise ConfigError(f"{path} was written for another network: its columns differ")
    rows = []
    for line in lines:
        first = line.split(b",", 1)[0]
        if not (line.endswith(b"\n") and first.isdigit() and int(first) <= epoch):
            break
        rows.append(line)
    return rows


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
    used, and per-unit gate-open rates on the val split. metrics_path is
    rewritten whole at the start and after every epoch: the column row, the
    rows kept_metrics_rows returns, then this run's. A checkpoint (when
    requested) is rewritten after every epoch, with net_config as its network
    sections, which must then be given.
    """
    if checkpoint_path is not None:  # refuse before an epoch is spent
        _check_net_config(net_config, checkpoint_path)
    optimizer = optimizer or SGD(net.named_params(), cfg.momentum, cfg.weight_decay)
    unit_names = net.srtg_unit_names()
    columns = _history_columns(unit_names)
    history = []
    if metrics_path is not None:
        lines = [(",".join(columns) + "\r\n").encode(),
                 *kept_metrics_rows(metrics_path, start_epoch, net)]
        write_atomic(metrics_path, lines)
    last_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, stop_after)
    n = len(train_ds)
    for epoch in range(start_epoch + 1, last_epoch + 1):
        lr = cfg.lr_at(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 2, epoch])
        ).permutation(n)
        loss_sum = 0.0
        for batch in _batches(n, cfg.batch_size, order):
            clips = train_ds.clips[batch]
            frames = clips.shape[2]
            if frames > cfg.frames_per_clip:
                # each clip's sorted frame sample comes from its own generator
                keep = np.array([
                    np.sort(np.random.default_rng(
                        np.random.SeedSequence([cfg.seed, 3, epoch, int(clip_idx)])
                    ).choice(frames, size=cfg.frames_per_clip, replace=False))
                    for clip_idx in batch
                ])
                clips = np.take_along_axis(clips, keep[:, None, :, None, None], axis=2)
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
            metrics.gate_open_rates[name] for name in unit_names
        ]
        history.append(dict(zip(columns, row)))
        if metrics_path is not None:
            lines.append((",".join(map(str, row)) + "\r\n").encode())
            write_atomic(metrics_path, lines)
        if checkpoint_path is not None:
            checkpoint_save(checkpoint_path, net, optimizer, epoch,
                            seed=cfg.seed, net_config=net_config)
    return optimizer, history


# ---------------------------------------------------------------------------
# checkpoints: magic, version, json header, raw arrays, sha256 trailer
# ---------------------------------------------------------------------------


def _state_arrays(net: Network, optimizer: SGD | None = None):
    """The checkpoint's array table: (name, live array) in file order, the
    momentum entries only when an optimizer is given."""
    arrays = [(f"param.{name}", p.data) for name, p in net.named_params()]
    arrays += [(f"buffer.{name}", b) for name, b in net.named_buffers()]
    if optimizer is not None:
        arrays += [(f"velocity.{name}", v) for name, v in sorted(optimizer.velocity.items())]
    return arrays


def _check_net_config(net_config, path):
    """The checkpoint's network: an object of config sections of strings."""
    if not (isinstance(net_config, dict) and all(
            isinstance(sec, dict) and all(isinstance(v, str) for v in sec.values())
            for sec in net_config.values())):
        raise CheckpointError(f"{path}: net_config is not an object of sections of strings")
    return net_config


def checkpoint_save(path, net: Network, optimizer: SGD, epoch: int, net_config, seed=0):
    """net_config is the sectioned network config (plain strings) the net was
    built from; evaluate/gate-analyze rebuild the architecture from it."""
    _check_net_config(net_config, path)
    arrays = _state_arrays(net, optimizer)
    header = {
        "epoch": int(epoch),
        "seed": int(seed),
        "net_config": net_config,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    parts = [frame_bytes(_CKPT_MAGIC, header)]
    parts += [np.ascontiguousarray(arr, dtype="<f8") for _, arr in arrays]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    write_atomic(path, [*parts, digest.digest()])


def checkpoint_load(path) -> dict:
    """Return {"epoch", "seed", "net_config", "arrays": {name: read-only
    ndarray}}; verifies the magic and checksum before it parses the header."""
    raw = read_file(path, CheckpointError)
    if len(raw) < len(_CKPT_MAGIC) + 32 or raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    body, digest = memoryview(raw)[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (truncated or corrupt)")
    header, off = read_frame(body, _CKPT_MAGIC, path, CheckpointError)
    if not {"epoch", "seed", "arrays"} <= header.keys():
        raise CheckpointError(f"{path}: header is not an object with epoch, seed and arrays")
    if any(type(header[k]) is not int or header[k] < 0 for k in ("epoch", "seed")):
        raise CheckpointError(f"{path}: header epoch and seed must be non-negative JSON integers")
    net_config = _check_net_config(header.get("net_config"), path)
    arrays = {}
    try:
        for name, shape in header["arrays"]:
            if type(name) is not str or name in arrays:
                raise ValueError(f"array name {name!r} is not a string or repeats")
            if any(type(v) is not int or v < 0 for v in shape):
                raise ValueError(f"shape of {name} is not non-negative integers")
            count = math.prod(shape)
            # a read-only view of the one read buffer; apply_checkpoint copies
            arrays[name] = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(shape)
            off += count * 8
    except (TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path}: bad array table in header ({e})") from e
    if off != len(body):
        raise CheckpointError(f"{path}: payload size mismatch")
    return {
        "epoch": header["epoch"],
        "seed": header["seed"],
        "net_config": net_config,
        "arrays": arrays,
    }


def apply_checkpoint(net: Network, optimizer: SGD | None, state: dict):
    """Restore parameters, batch-norm buffers and (if given) momentum in place."""
    arrays = state["arrays"]
    for key, dest in _state_arrays(net, optimizer):
        if key not in arrays:
            raise CheckpointError(f"checkpoint missing array {key}")
        if arrays[key].shape != dest.shape:
            raise CheckpointError(
                f"shape mismatch for {key}: checkpoint {arrays[key].shape}, "
                f"model {dest.shape}"
            )
        dest[:] = arrays[key]
