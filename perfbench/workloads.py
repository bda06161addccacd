"""The benchmark's workloads: a network config, a data config and overrides.

Configs are read from the checkout's `configs/` and overridden the way
`srtg train --set` / `srtg gen-data --set` would. The workload seed is applied
on top as `synthetic.seed` and `train.seed`, so the program only ever sees
generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    net_overrides: tuple[str, ...] = ()
    data_overrides: tuple[str, ...] = ()
    # the best val top-1 of the first `floor_epochs` epochs must clear TOP1_FLOOR
    floor_epochs: int = 4


NET_CONFIG = "configs/toy.cfg"
DATA_CONFIG = "configs/toy_data.cfg"
# a broken gradient stays near the two-class chance level of 0.5
TOP1_FLOOR = 0.8


# toy_data.cfg's clip shape and 4:1 train/val ratio at a fifth of its clips:
# an epoch then takes well under a second, so a run times many epochs
TOY_CLIPS = ("synthetic.train_clips=80", "synthetic.val_clips=20")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy_gated",
            "conv-dominated toy run with every gate closed, so the fuse branch is "
            "built and thrown away",
            data_overrides=TOY_CLIPS,
        ),
        Workload(
            "toy_ungated",
            "the same toy run with no gated units; the gate layer does no work, "
            "so gate changes predict no change here",
            net_overrides=("network.placement=none",),
            data_overrides=TOY_CLIPS,
        ),
        Workload(
            "long_clip_gate",
            "(2+1)D bottleneck units see T=32 and T=16 and every clip fuses; "
            "gate-heavy, 1x1x1 and factorized convs",
            net_overrides=(
                "network.depth_kind=bottleneck",
                "network.conv_kind=two_plus_one_d",
                "network.placement=mid",
                "network.gate_active=false",
                "network.stem_stride=1x1x1",
                "stage1.channels=8",
                "stage2.channels=8",
                "stage1.blocks=2",
                "stage2.blocks=2",
                "train.frames_per_clip=32",
            ),
            data_overrides=(
                "synthetic.frames=32",
                "synthetic.height=8",
                "synthetic.width=8",
                "synthetic.train_clips=32",
                "synthetic.val_clips=16",
            ),
            floor_epochs=6,
        ),
    )
}

# the analytic count that `count-ops` must keep reproducing
R3D34_CONFIG = "configs/r3d34_srtg.cfg"
R3D34_INPUT = (3, 16, 224, 224)
R3D34_GFLOPS = 111.05
