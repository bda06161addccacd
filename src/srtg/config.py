"""Dataclass configs and the sectioned plain-text config format.

Configs are INI files parsed with configparser. One dataclass per section is
that section's whole schema: its fields are the keys (unknown keys are
rejected), its defaults the defaults, each annotation picks the parser of the
raw string and `__post_init__` rejects bad values. Stage sections are
`[stage1]` to `[stageN]`, without gaps. Overrides look like `section.key=value`.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, astuple, dataclass, field, fields

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
FUSION_MODES = ("multiplicative", "additive")
FAMILIES = ("translate", "oscillate", "reversed_pair")


class ConfigError(ValueError):
    """Bad key, value, or section in a config file or override."""


@dataclass
class StageSpec:
    blocks: int
    channels: int
    stride: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        if self.blocks < 1 or self.channels < 1:
            raise ConfigError("stage: blocks and channels must be positive")


@dataclass(kw_only=True)
class NetworkSpec:
    in_channels: int = 3
    num_classes: int
    conv_kind: str = "full_3d"
    depth_kind: str = "simple"
    placement: str = "final"
    gate_active: bool = True
    fusion_mode: str = "multiplicative"
    stem_channels: int = 64
    stem_kernel: tuple[int, int, int] = (3, 7, 7)
    stem_stride: tuple[int, int, int] = (1, 2, 2)
    stem_pool_kernel: tuple[int, int, int] | None = None
    stem_pool_stride: tuple[int, int, int] | None = None
    # filled from the [stageN] sections, not from a [network] key
    stages: list[StageSpec] = field(default_factory=list)

    def __post_init__(self):
        if self.conv_kind not in CONV_KINDS:
            raise ConfigError(f"network.conv_kind {self.conv_kind!r} not in {CONV_KINDS}")
        if self.depth_kind not in DEPTH_KINDS:
            raise ConfigError(f"network.depth_kind {self.depth_kind!r} not in {DEPTH_KINDS}")
        allowed = PLACEMENTS[self.depth_kind]
        if self.placement not in allowed:
            raise ConfigError(
                f"network.placement {self.placement!r} not valid for {self.depth_kind} "
                f"blocks (allowed: {', '.join(allowed)})"
            )
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"network.fusion_mode {self.fusion_mode!r}")
        if (self.stem_pool_kernel is None) != (self.stem_pool_stride is None):
            raise ConfigError("network: stem_pool_kernel and stem_pool_stride go together")
        if min(self.in_channels, self.num_classes, self.stem_channels) < 1:
            raise ConfigError(
                "network: in_channels, num_classes and stem_channels must be positive"
            )
        if not self.stages:
            raise ConfigError("network: at least one [stageN] section is required")


@dataclass
class TrainConfig:
    lr0: float = 0.1
    weight_decay: float = 1e-6
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 30
    milestones: tuple[int, ...] = ()  # empty -> 50% and 75% of epochs, once each
    lr_decay: float = 0.1
    frames_per_clip: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigError("train: lr0, batch_size and epochs must be positive")
        if self.weight_decay < 0 or self.momentum < 0 or self.lr_decay <= 0:
            raise ConfigError("train: negative decay or momentum")
        if self.frames_per_clip < 1:
            raise ConfigError("train: frames_per_clip must be positive")
        if self.seed < 0:
            raise ConfigError("train: seed must be non-negative")
        if any(m < 1 or m > self.epochs for m in self.milestones):
            raise ConfigError(f"train: milestones must lie in 1..epochs ({self.epochs})")
        if len(set(self.milestones)) != len(self.milestones):
            raise ConfigError("train: a milestone is repeated; it would decay the lr twice")
        # the derived ones are both 1 when epochs is 2 and both 0 when it is 1
        self.milestones = tuple(sorted(self.milestones or
                                       {self.epochs // 2, 3 * self.epochs // 4} - {0}))

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
        if self.family == "translate" and self.num_classes > 16:  # 8 directions, 2 speeds
            raise ConfigError("synthetic: translate family supports at most 16 classes")
        if self.noise < 0:
            raise ConfigError("synthetic: negative noise level")
        if min(self.train_clips, self.val_clips) < 1:
            raise ConfigError("synthetic: train_clips and val_clips must be at least 1")
        if self.seed < 0:
            raise ConfigError("synthetic: seed must be non-negative")


@dataclass
class _DataPaths:
    train: str
    val: str


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _dims(text: str, axes: str, what: str) -> tuple[int, ...]:
    parts = text.lower().split("x")
    if len(parts) != axes.count("x") + 1:
        raise ConfigError(f"expected {axes} {what}, got {text!r}")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"bad {what} {text!r}") from e
    if any(v < 1 for v in vals):
        raise ConfigError(f"{what} must be positive, got {text!r}")
    return vals


def parse_triple(text: str) -> tuple[int, int, int]:
    return _dims(text, "TxHxW", "triple")


def parse_shape(text: str) -> tuple[int, int, int, int]:
    return _dims(text, "CxTxHxW", "shape")


def _parser(cast, expected: str):
    """parser(text, where) applying `cast`; a failed cast names the key."""

    def parse(text: str, where: str):
        try:
            return cast(text)
        except (KeyError, ValueError) as e:
            raise ConfigError(f"{where}: expected {expected}, got {text!r}") from e

    return parse


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # nan and inf pass every range check
        raise ValueError(text)
    return value


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


# field annotation (a string, under postponed evaluation) -> parser(text, where)
_PARSERS = {
    "int": _parser(int, "an integer"),
    "float": _parser(_finite, "a finite number"),
    "bool": _parser(lambda text: _BOOLS[text.strip().lower()], "a boolean"),
    "str": lambda text, where: text,
    "tuple[int, ...]": _parser(
        lambda text: tuple(int(m) for m in text.split(",")) if text.strip() else (),
        "a comma-separated list of integers",
    ),
    "tuple[int, int, int]": lambda text, where: parse_triple(text),
    "tuple[int, int, int] | None": lambda text, where: (
        None if text == "none" else parse_triple(text)
    ),
}
_SECTIONS = {
    "network": NetworkSpec,
    "train": TrainConfig,
    "data": _DataPaths,
    "synthetic": SyntheticSpec,
}
# per class, built once: {key: (parser, required)}
_KEYS = {
    cls: {
        f.name: (_PARSERS[f.type], f.default is MISSING)
        for f in fields(cls)
        if f.name != "stages"
    }
    for cls in (StageSpec, *_SECTIONS.values())
}


def _validate_sections(cfg: dict):
    stages = {s for s in cfg if s.startswith("stage")}
    if stages != {f"stage{i}" for i in range(1, len(stages) + 1)}:
        raise ConfigError(
            "stage sections must be numbered [stage1] to [stageN] without gaps, "
            f"got {', '.join(sorted(stages))}"
        )
    for section, keys in cfg.items():
        cls = StageSpec if section in stages else _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(keys) - _KEYS[cls].keys()
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


def _build(cls, cfg: dict, section: str, **given):
    """One section's dataclass from its raw strings; absent keys take the
    field defaults, and a key without a default is required."""
    raw = cfg.get(section, {})
    values = {}
    for key, (parse, required) in _KEYS[cls].items():
        if key in raw:
            values[key] = parse(raw[key], f"{section}.{key}")
        elif required:
            raise ConfigError(f"missing required key {section}.{key}")
    return cls(**values, **given)


def network_spec(cfg: dict) -> NetworkSpec:
    stages = []
    while (section := f"stage{len(stages) + 1}") in cfg:
        stages.append(_build(StageSpec, cfg, section))
    return _build(NetworkSpec, cfg, "network", stages=stages)


def train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, "train")


def synthetic_spec(cfg: dict) -> SyntheticSpec:
    return _build(SyntheticSpec, cfg, "synthetic")


def data_paths(cfg: dict) -> tuple[str, str]:
    return astuple(_build(_DataPaths, cfg, "data"))
