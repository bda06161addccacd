"""Dataclass configs and the sectioned plain-text config format.

Configs are INI files parsed with configparser; values are validated here
against per-section key schemas (unknown keys are rejected) and turned into
dataclasses. Dotted overrides look like `section.key=value`.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "StageSpec",
    "NetworkSpec",
    "TrainConfig",
    "SyntheticSpec",
    "read_config",
    "apply_overrides",
    "write_config",
    "network_spec",
    "train_config",
    "synthetic_spec",
    "data_paths",
    "parse_triple",
    "parse_shape",
]

CONV_KINDS = ("full_3d", "two_plus_one_d")
# where a gated unit can sit in each block kind; top and end exist only in the
# three-conv bottleneck (srtg.blocks.block_layout maps each to a position)
PLACEMENTS = {
    "simple": ("none", "start", "mid", "res", "final"),
    "bottleneck": ("none", "start", "top", "mid", "end", "res", "final"),
}
DEPTH_KINDS = tuple(PLACEMENTS)
FAMILIES = ("translate", "oscillate", "reversed_pair")


class ConfigError(ValueError):
    """Bad key, value, or section in a config file or override."""


@dataclass
class StageSpec:
    blocks: int
    channels: int
    stride: tuple[int, int, int]


@dataclass
class NetworkSpec:
    in_channels: int
    num_classes: int
    conv_kind: str
    depth_kind: str
    placement: str
    gate_active: bool
    fusion_mode: str
    stem_channels: int
    stem_kernel: tuple[int, int, int]
    stem_stride: tuple[int, int, int]
    stem_pool_kernel: tuple[int, int, int] | None
    stem_pool_stride: tuple[int, int, int] | None
    stages: list[StageSpec] = field(default_factory=list)


@dataclass
class TrainConfig:
    lr0: float = 0.1
    weight_decay: float = 1e-6
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 30
    milestones: tuple[int, ...] = ()  # empty -> 50% and 75% of epochs
    lr_decay: float = 0.1
    frames_per_clip: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("train: lr0, batch_size and epochs must be positive")
        if self.weight_decay < 0 or self.momentum < 0 or self.lr_decay <= 0:
            raise ConfigError("train: negative decay or momentum")
        if not self.milestones:
            self.milestones = (self.epochs // 2, (3 * self.epochs) // 4)
        self.milestones = tuple(sorted(m for m in self.milestones if m > 0))

    def lr_at(self, epoch: int) -> float:
        lr = self.lr0
        for m in self.milestones:
            if epoch >= m:
                lr *= self.lr_decay
        return lr


@dataclass
class SyntheticSpec:
    num_classes: int = 2
    family: str = "reversed_pair"
    channels: int = 1
    frames: int = 8
    height: int = 16
    width: int = 16
    noise: float = 0.05
    train_clips: int = 400
    val_clips: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"synthetic: unknown family {self.family!r}")
        if min(self.channels, self.frames, self.height, self.width) < 1:
            raise ConfigError("synthetic: degenerate clip shape")
        if self.height < 4 or self.width < 4:
            raise ConfigError("synthetic: frames must be at least 4x4 pixels")
        if self.num_classes < 2:
            raise ConfigError("synthetic: need at least two classes")
        if self.family == "reversed_pair" and self.num_classes != 2:
            raise ConfigError("synthetic: reversed_pair is a two-class family")
        if self.noise < 0:
            raise ConfigError("synthetic: negative noise level")
        if min(self.train_clips, self.val_clips) < 1:
            raise ConfigError("synthetic: train_clips and val_clips must be at least 1")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"expected TxHxW triple, got {text!r}")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"bad triple {text!r}") from e
    if any(v < 1 for v in vals):
        raise ConfigError(f"triple must be positive, got {text!r}")
    return vals


def parse_shape(text: str) -> tuple[int, int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 4:
        raise ConfigError(f"expected CxTxHxW shape, got {text!r}")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"bad shape {text!r}") from e
    if any(v < 1 for v in vals):
        raise ConfigError(f"shape must be positive, got {text!r}")
    return vals


def _parse_bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


_SCHEMA = {
    "network": {
        "in_channels", "num_classes", "conv_kind", "depth_kind", "placement",
        "gate_active", "fusion_mode", "stem_channels", "stem_kernel",
        "stem_stride", "stem_pool_kernel", "stem_pool_stride",
    },
    "train": {
        "lr0", "weight_decay", "momentum", "batch_size", "epochs",
        "milestones", "lr_decay", "frames_per_clip", "seed",
    },
    "data": {"train", "val"},
    "synthetic": {
        "num_classes", "family", "channels", "frames", "height", "width",
        "noise", "train_clips", "val_clips", "seed",
    },
}
_STAGE_KEYS = {"blocks", "channels", "stride"}


def _validate_sections(cfg: dict):
    for section, keys in cfg.items():
        if section.startswith("stage") and section[5:].isdigit():
            extra = set(keys) - _STAGE_KEYS
        elif section in _SCHEMA:
            extra = set(keys) - _SCHEMA[section]
        else:
            raise ConfigError(f"unknown config section [{section}]")
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}")


def read_config(path: str) -> dict:
    """Read an INI file into {section: {key: raw string}} and validate keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    cfg = {s: dict(parser.items(s)) for s in parser.sections()}
    _validate_sections(cfg)
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply `section.key=value` overrides in order; returns the same dict."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = dotted.split(".", 1)
        cfg.setdefault(section, {})[key] = value
    _validate_sections(cfg)
    return cfg


def write_config(cfg: dict, path: str):
    """Echo the effective config back out as INI, sections in sorted order."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in sorted(cfg):
        parser[section] = {k: str(v) for k, v in sorted(cfg[section].items())}
    buf = io.StringIO()
    parser.write(buf)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _get(cfg, section, key, default=None, required=False):
    sec = cfg.get(section, {})
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key {section}.{key}")
        return default
    return sec[key]


def _get_int(cfg, section, key, default=None, required=False):
    raw = _get(cfg, section, key, default=None, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from e


def _get_float(cfg, section, key, default=None):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as e:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from e


def network_spec(cfg: dict) -> NetworkSpec:
    conv_kind = _get(cfg, "network", "conv_kind", "full_3d")
    if conv_kind not in CONV_KINDS:
        raise ConfigError(f"network.conv_kind {conv_kind!r} not in {CONV_KINDS}")
    depth_kind = _get(cfg, "network", "depth_kind", "simple")
    if depth_kind not in DEPTH_KINDS:
        raise ConfigError(f"network.depth_kind {depth_kind!r} not in {DEPTH_KINDS}")
    placement = _get(cfg, "network", "placement", "final")
    if placement not in PLACEMENTS[depth_kind]:
        raise ConfigError(
            f"network.placement {placement!r} not valid for {depth_kind} blocks "
            f"(allowed: {', '.join(PLACEMENTS[depth_kind])})"
        )
    fusion = _get(cfg, "network", "fusion_mode", "multiplicative")
    if fusion not in ("multiplicative", "additive"):
        raise ConfigError(f"network.fusion_mode {fusion!r}")

    pool_kernel = _get(cfg, "network", "stem_pool_kernel", "none")
    pool_stride = _get(cfg, "network", "stem_pool_stride", "none")
    stem_pool_kernel = None if pool_kernel == "none" else parse_triple(pool_kernel)
    stem_pool_stride = None if pool_stride == "none" else parse_triple(pool_stride)
    if (stem_pool_kernel is None) != (stem_pool_stride is None):
        raise ConfigError("network: stem_pool_kernel and stem_pool_stride go together")

    stages = []
    idx = 1
    while f"stage{idx}" in cfg:
        sec = f"stage{idx}"
        stages.append(
            StageSpec(
                blocks=_get_int(cfg, sec, "blocks", required=True),
                channels=_get_int(cfg, sec, "channels", required=True),
                stride=parse_triple(_get(cfg, sec, "stride", "1x1x1")),
            )
        )
        idx += 1
    if not stages:
        raise ConfigError("network: at least one [stageN] section is required")
    for s in stages:
        if s.blocks < 1 or s.channels < 1:
            raise ConfigError("stage: blocks and channels must be positive")

    return NetworkSpec(
        in_channels=_get_int(cfg, "network", "in_channels", 3),
        num_classes=_get_int(cfg, "network", "num_classes", required=True),
        conv_kind=conv_kind,
        depth_kind=depth_kind,
        placement=placement,
        gate_active=_parse_bool(_get(cfg, "network", "gate_active", "true"), "network.gate_active"),
        fusion_mode=fusion,
        stem_channels=_get_int(cfg, "network", "stem_channels", 64),
        stem_kernel=parse_triple(_get(cfg, "network", "stem_kernel", "3x7x7")),
        stem_stride=parse_triple(_get(cfg, "network", "stem_stride", "1x2x2")),
        stem_pool_kernel=stem_pool_kernel,
        stem_pool_stride=stem_pool_stride,
        stages=stages,
    )


def train_config(cfg: dict) -> TrainConfig:
    milestones_raw = _get(cfg, "train", "milestones", "")
    milestones = ()
    if milestones_raw.strip():
        try:
            milestones = tuple(int(m) for m in milestones_raw.split(","))
        except ValueError as e:
            raise ConfigError(f"train.milestones: bad list {milestones_raw!r}") from e
    return TrainConfig(
        lr0=_get_float(cfg, "train", "lr0", 0.1),
        weight_decay=_get_float(cfg, "train", "weight_decay", 1e-6),
        momentum=_get_float(cfg, "train", "momentum", 0.9),
        batch_size=_get_int(cfg, "train", "batch_size", 8),
        epochs=_get_int(cfg, "train", "epochs", 30),
        milestones=milestones,
        lr_decay=_get_float(cfg, "train", "lr_decay", 0.1),
        frames_per_clip=_get_int(cfg, "train", "frames_per_clip", 16),
        seed=_get_int(cfg, "train", "seed", 0),
    )


def synthetic_spec(cfg: dict) -> SyntheticSpec:
    return SyntheticSpec(
        num_classes=_get_int(cfg, "synthetic", "num_classes", 2),
        family=_get(cfg, "synthetic", "family", "reversed_pair"),
        channels=_get_int(cfg, "synthetic", "channels", 1),
        frames=_get_int(cfg, "synthetic", "frames", 8),
        height=_get_int(cfg, "synthetic", "height", 16),
        width=_get_int(cfg, "synthetic", "width", 16),
        noise=_get_float(cfg, "synthetic", "noise", 0.05),
        train_clips=_get_int(cfg, "synthetic", "train_clips", 400),
        val_clips=_get_int(cfg, "synthetic", "val_clips", 100),
        seed=_get_int(cfg, "synthetic", "seed", 0),
    )


def data_paths(cfg: dict) -> tuple[str, str]:
    return (
        _get(cfg, "data", "train", required=True),
        _get(cfg, "data", "val", required=True),
    )
