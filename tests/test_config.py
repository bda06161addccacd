"""Config parsing, override, and echo round-trip tests."""

from pathlib import Path

import pytest

from srtg.config import (
    ConfigError,
    NetworkSpec,
    StageSpec,
    SyntheticSpec,
    TrainConfig,
    apply_overrides,
    data_paths,
    format_config,
    network_spec,
    parse_shape,
    parse_triple,
    read_config,
    synthetic_spec,
    train_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINI = """
[network]
num_classes = 2
in_channels = 1
stem_kernel = 3x3x3
stem_stride = 1x2x2

[stage1]
blocks = 1
channels = 8
stride = 1x1x1

[train]
epochs = 10
seed = 4
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "mini.cfg"
    p.write_text(MINI)
    return str(p)


def test_parse_triple_and_shape():
    assert parse_triple("1x2x3") == (1, 2, 3)
    assert parse_shape("3x16x224x224") == (3, 16, 224, 224)
    with pytest.raises(ConfigError):
        parse_triple("1x2")
    with pytest.raises(ConfigError):
        parse_shape("3x16x224")
    with pytest.raises(ConfigError):
        parse_triple("0x1x1")


def test_read_and_build_specs(cfg_path):
    cfg = read_config(cfg_path)
    spec = network_spec(cfg)
    assert spec.num_classes == 2
    assert spec.stem_kernel == (3, 3, 3)
    assert spec.placement == "final"  # default
    tc = train_config(cfg)
    assert tc.epochs == 10 and tc.seed == 4
    assert tc.lr0 == 0.1 and tc.weight_decay == 1e-6  # library defaults


def test_milestones_default_to_half_and_three_quarters():
    tc = TrainConfig(epochs=30)
    assert tc.milestones == (15, 22)
    tc2 = TrainConfig(epochs=30, milestones=(5, 20))
    assert tc2.milestones == (5, 20)
    assert TrainConfig(epochs=1).milestones == ()  # both derived ones are 0
    assert TrainConfig(epochs=12).milestones == (6, 9)


@pytest.mark.parametrize("epochs,milestones", [(2, (1,)), (3, (1, 2)), (4, (2, 3))],
                         ids=["2", "3", "4"])
def test_derived_milestones_decay_once_each(epochs, milestones):
    # with 2 epochs both derived ones are 1; a repeat would decay twice
    tc = TrainConfig(epochs=epochs)
    assert tc.milestones == milestones
    assert tc.lr_at(epochs) == tc.lr0 * tc.lr_decay ** len(milestones)


def test_milestone_at_epochs_decays_the_last_epoch():
    tc = TrainConfig(epochs=8, milestones=(8,))
    assert tc.lr_at(7) == tc.lr0 and tc.lr_at(8) == tc.lr0 * tc.lr_decay


@pytest.mark.parametrize("milestones,match", [((4, 4), "repeated"), ((2, 6, 2), "repeated"),
                                              ((9,), "1..epochs"), ((100,), "1..epochs")],
                         ids=["4,4", "2,6,2", "9", "100"])
def test_repeated_or_unreachable_milestones_rejected(milestones, match):
    # a repeat decays twice at once; one past the last epoch never decays
    with pytest.raises(ConfigError, match=match):
        TrainConfig(epochs=8, milestones=milestones)


@pytest.mark.parametrize("milestones", [(-3,), (0,), (2, -1)])
def test_given_milestones_below_one_rejected(milestones):
    # dropping them would leave the learning rate undecayed
    with pytest.raises(ConfigError, match="milestones"):
        TrainConfig(epochs=4, milestones=milestones)


def test_overrides_applied_and_validated(cfg_path):
    cfg = read_config(cfg_path)
    apply_overrides(cfg, ["train.epochs=3", "stage1.channels=16"])
    assert train_config(cfg).epochs == 3
    assert network_spec(cfg).stages[0].channels == 16
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(cfg, ["train.epoch=3"])
    with pytest.raises(ConfigError, match="section.key"):
        apply_overrides(cfg, ["epochs=3"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["train.epochs"])


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[wat]\nx = 1\n")
    with pytest.raises(ConfigError, match="section"):
        read_config(str(p))


def test_bad_values_rejected(cfg_path):
    cfg = read_config(cfg_path)
    apply_overrides(cfg, ["network.conv_kind=conv4d"])
    with pytest.raises(ConfigError, match="conv_kind"):
        network_spec(cfg)
    cfg2 = read_config(cfg_path)
    apply_overrides(cfg2, ["train.epochs=-1"])
    with pytest.raises(ConfigError):
        train_config(cfg2)


def test_echo_roundtrip(tmp_path, cfg_path):
    cfg = read_config(cfg_path)
    apply_overrides(cfg, ["train.epochs=7"])
    echo = tmp_path / "effective.cfg"
    echo.write_text(format_config(cfg))
    again = read_config(str(echo))
    assert train_config(again).epochs == 7
    assert network_spec(again).stages[0].channels == 8


# ---------------------------------------------------------------------------
# the dataclasses are the schema: each key and default is declared once
# ---------------------------------------------------------------------------


def test_absent_sections_build_the_dataclass_defaults():
    assert train_config({}) == TrainConfig()
    assert synthetic_spec({}) == SyntheticSpec()


def test_minimal_network_config_builds_the_constructor_spec(cfg_path):
    assert network_spec(read_config(cfg_path)) == NetworkSpec(
        num_classes=2, in_channels=1, stem_kernel=(3, 3, 3), stem_stride=(1, 2, 2),
        stages=[StageSpec(blocks=1, channels=8, stride=(1, 1, 1))],
    )


def test_stages_is_not_a_network_key(cfg_path):
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[network\]: stages"):
        apply_overrides(read_config(cfg_path), ["network.stages=1"])


@pytest.mark.parametrize("stage", ["stage4", "stage0"])
def test_stage_sections_must_count_from_one_without_gaps(stage):
    # toy.cfg has [stage1] and [stage2]
    cfg = read_config(str(CONFIGS / "toy.cfg"))
    with pytest.raises(ConfigError, match="without gaps"):
        apply_overrides(cfg, [f"{stage}.blocks=1", f"{stage}.channels=32"])


def test_override_filling_the_next_stage_adds_it():
    cfg = read_config(str(CONFIGS / "toy.cfg"))
    apply_overrides(cfg, ["stage3.blocks=1", "stage3.channels=32"])
    assert [s.channels for s in network_spec(cfg).stages] == [8, 16, 32]


_BUILDERS = {
    "network": network_spec,
    "train": train_config,
    "synthetic": synthetic_spec,
    "data": data_paths,
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_bundled_config_echo_builds_equal_specs(tmp_path, path):
    cfg = read_config(str(path))
    echo = tmp_path / "effective.cfg"
    echo.write_text(format_config(cfg))
    again = read_config(str(echo))
    builders = [build for section, build in _BUILDERS.items() if section in cfg]
    assert builders
    for build in builders:
        assert build(again) == build(cfg)
