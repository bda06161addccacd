"""Synthetic moving-pattern clip generation, the binary dataset format, the
file frame datasets and checkpoints share, and the atomic write every output
file goes through.

Clips are float64 volumes (C, T, H, W) with a Gaussian blob moving on a
wrapping canvas. Classes differ by motion: per-class translation direction,
per-class oscillation phase, or forward-versus-reversed playback. In the
reversed-pair family the two classes share the same frame multiset and differ
only in frame order, so temporal structure carries all label information.

Every clip draws from its own generator seeded by (dataset seed, split,
clip index): generation order and worker sharding cannot change the data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from srtg.config import SyntheticSpec

__all__ = ["Dataset", "DatasetFormatError", "generate", "save_dataset", "load_dataset"]

_MAGIC = b"SRTGDATA"
_VERSION = 1

_DIRECTIONS = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]


class DatasetFormatError(RuntimeError):
    """Corrupt, truncated or wrong-version dataset file."""


@dataclass
class Dataset:
    clips: np.ndarray  # (n, C, T, H, W) float64
    labels: np.ndarray  # (n,) int64
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.clips.shape[0]


def _make_clip(spec, label, rng):
    """All T frames of one clip at once: frame t is the blob rolled by
    t*velocity on the wrapping canvas (translate, reversed_pair) or scaled by
    a per-frame gain (oscillate), tiled over the channels, plus noise."""
    height, width = spec.height, spec.width
    if spec.family == "reversed_pair":
        vy, vx = 0, int(rng.integers(1, 3))
    elif spec.family == "translate":
        speed = 1 + label // len(_DIRECTIONS)
        vy, vx = (speed * v for v in _DIRECTIONS[label % len(_DIRECTIONS)])
    cy = float(rng.uniform(2, height - 2))
    cx = float(rng.uniform(2, width - 2))
    ys, xs = np.arange(height)[:, None], np.arange(width)[None, :]
    sigma = max(height, width) / 10
    base = np.exp(-(((ys - cy) ** 2) + ((xs - cx) ** 2)) / (2.0 * sigma * sigma))
    t = np.arange(spec.frames)[:, None, None]
    if spec.family == "oscillate":
        phase = 2.0 * np.pi * label / spec.num_classes
        frames = (0.75 + 0.25 * np.sin(2.0 * np.pi * t / spec.frames + phase)) * base
    else:
        base = float(rng.uniform(0.8, 1.2)) * base
        frames = base[(ys - t * vy) % height, (xs - t * vx) % width]
    # the noise is drawn last, even at noise 0, where it adds nothing
    clip = frames + spec.noise * rng.standard_normal((spec.channels,) + frames.shape)
    # reversed_pair: class 1 plays a class-0-style clip backwards, so the two
    # classes share frame multisets and only temporal order separates them
    return clip[:, ::-1] if spec.family == "reversed_pair" and label == 1 else clip


def _split(spec: SyntheticSpec, split_id: int, count: int) -> Dataset:
    shape = (spec.channels, spec.frames, spec.height, spec.width)
    clips = np.zeros((count,) + shape)
    labels = np.zeros(count, dtype=np.int64)
    for idx in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, split_id, idx]))
        label = idx % spec.num_classes
        clips[idx] = _make_clip(spec, label, rng)
        labels[idx] = label
    meta = {
        "family": spec.family,
        "classes": spec.num_classes,
        "seed": spec.seed,
        "split": "train" if split_id == 0 else "val",
        "noise": spec.noise,
    }
    return Dataset(clips, labels, meta)


def generate(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, val) datasets for the spec."""
    return _split(spec, 0, spec.train_clips), _split(spec, 1, spec.val_clips)


# ---------------------------------------------------------------------------
# file frame, shared with checkpoints: magic, <IQ version and header length,
# sorted-JSON header, then the payload
# ---------------------------------------------------------------------------


def frame_bytes(magic: bytes, header: dict) -> bytes:
    hjson = json.dumps(header, sort_keys=True).encode()
    return magic + struct.pack("<IQ", _VERSION, len(hjson)) + hjson


def read_frame(raw, magic: bytes, path, error) -> tuple[dict, int]:
    """Check the frame's magic, header length, version and JSON object in the
    bytes-like raw; returns (header, payload offset) or raises `error` with
    one line."""
    if raw[: len(magic)] != magic:
        raise error(f"{path}: not a {magic.decode()} file (bad magic)")
    off = len(magic) + struct.calcsize("<IQ")
    # a file too short for the version and length fails the length check
    version, hlen = struct.unpack_from("<IQ", raw, len(magic)) if len(raw) >= off else (0, 0)
    if len(raw) < off + hlen:
        raise error(f"{path}: truncated header")
    if version != _VERSION:
        raise error(f"{path}: unsupported version {version}")
    try:
        header = json.loads(str(raw[off : off + hlen], "utf-8"))
    except ValueError as e:  # bad UTF-8 included
        raise error(f"{path}: header is not JSON ({e})") from e
    if not isinstance(header, dict):
        raise error(f"{path}: header is not a JSON object")
    return header, off + hlen


def read_file(path, error) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e


def write_atomic(path, parts):
    """Stream the bytes-like parts to <path>.tmp and swap it in, so a crash
    mid-write keeps the previous file and leaves no .tmp behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(path, ds: Dataset):
    header = {"count": int(len(ds)), "shape": [int(v) for v in ds.clips.shape[1:]],
              "dtype": "float64", "meta": ds.meta}
    write_atomic(path, [frame_bytes(_MAGIC, header),
                        np.ascontiguousarray(ds.clips, dtype="<f8"),
                        np.ascontiguousarray(ds.labels, dtype="<i8")])


def load_dataset(path) -> Dataset:
    raw = read_file(path, DatasetFormatError)
    header, off = read_frame(raw, _MAGIC, path, DatasetFormatError)
    count, shape = header.get("count"), header.get("shape")
    # JSON integers only; type() and not isinstance(), so true and false fail
    if not isinstance(shape, list) or any(type(v) is not int for v in [count, *shape]):
        raise DatasetFormatError(f"{path}: header lacks a valid count and shape (JSON integers)")
    shape = tuple(shape)
    if count < 1 or len(shape) != 4 or min(shape) < 1:
        raise DatasetFormatError(
            f"{path}: header count {count} and clip shape {list(shape)} must be positive, "
            "with shape (C, T, H, W)"
        )
    nclip = count * math.prod(shape)  # exact: an int64 product can wrap to 0
    expected = off + nclip * 8 + count * 8
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: truncated or padded payload ({len(raw)} bytes, expected {expected})"
        )
    clips = np.frombuffer(raw, dtype="<f8", count=nclip, offset=off).reshape((count,) + shape)
    off += nclip * 8
    labels = np.frombuffer(raw, dtype="<i8", count=count, offset=off)
    # read-only views of the one read buffer: the file is held once
    return Dataset(clips, labels, header.get("meta", {}))

