"""The traced benchmark (`perfbench/run.py --trace 1`) reads the library from
outside: `spans.Tracer` replaces public functions at the names their callers
look them up by and counts the verdicts of `srtg_unit`'s record through
`len` and `.fused`, and `replay.replay` rebuilds the recorded op calls. These
tests run both over one train step and one eval forward of a tiny network, so
a change to what they wrap or read fails here rather than only under
`--trace 1`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from srtg import blocks, gate
from srtg import train as training
from srtg.blocks import Network
from srtg.config import NetworkSpec, StageSpec, SyntheticSpec, TrainConfig
from srtg.data import generate

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import replay  # noqa: E402
import spans  # noqa: E402

CLIPS = 4  # one batch of each split
UNITS = 2  # one gated unit per block, one block per stage


def _spec(gate_active):
    return NetworkSpec(
        in_channels=1, num_classes=2, conv_kind="full_3d", depth_kind="simple",
        placement="final", gate_active=gate_active,
        stem_channels=4, stem_kernel=(3, 3, 3), stem_stride=(1, 2, 2),
        stem_pool_kernel=None, stem_pool_stride=None,
        stages=[StageSpec(blocks=1, channels=4), StageSpec(blocks=1, channels=8,
                                                           stride=(1, 2, 2))],
    )


def _traced_epoch(gate_active):
    """One train() epoch under the tracer: one train step, then the val pass
    as one eval forward."""
    train_ds, val_ds = generate(SyntheticSpec(
        num_classes=2, family="reversed_pair", channels=1, frames=4, height=8, width=8,
        noise=0.02, train_clips=CLIPS, val_clips=CLIPS, seed=5))
    cfg = TrainConfig(lr0=0.05, batch_size=CLIPS, epochs=1, frames_per_clip=4, seed=9)
    net = Network(_spec(gate_active), seed=3)
    tracer = spans.Tracer()
    with tracer.installed():
        training.train(net, train_ds, val_ds, cfg)
    return tracer


@pytest.mark.parametrize("gate_active", [False, True], ids=["inactive", "active"])
def test_tracer_and_replay_run_over_a_train_step_and_an_eval_forward(monkeypatch,
                                                                     gate_active):
    records = []  # the gate records the traced forwards returned
    real_unit = blocks.srtg_unit

    def unit(*args, **kwargs):
        out, record = real_unit(*args, **kwargs)
        records.append(record)
        return out, record

    monkeypatch.setattr(blocks, "srtg_unit", unit)
    real_check, real_forward = gate.cycle_consistent, Network.forward
    tracer = _traced_epoch(gate_active)
    assert (gate.cycle_consistent, Network.forward) == (real_check, real_forward)

    assert tracer.step_kinds == ["train", "eval"]
    assert tracer.decisions == 2 * UNITS * CLIPS  # N decisions per unit and forward
    verdicts = [v for record in records for v in record.verdicts]
    assert len(records) == 2 * UNITS and len(verdicts) == tracer.decisions
    if gate_active:
        # the tracer counts fused clips through the record; some clips close
        assert tracer.fused == verdicts.count(gate.GateVerdict.OPEN)
        assert gate.GateVerdict.CLOSED in verdicts
    else:
        assert tracer.fused == tracer.decisions
    names = [name for name, *_ in tracer.spans]
    # an inactive unit fuses without its check; an active one checks to route
    assert names.count("gate.cycle_consistent") == (2 * UNITS if gate_active else 0)
    assert tracer.calls_in_step(tracer.record_step, ["tensor.add_relu"]) == UNITS
    assert tracer.calls_in_step(tracer.record_step, ["tensor.backward"]) == 1
    assert tracer.table()["gate.srtg_unit"]["calls"] == 2 * UNITS

    replayed = replay.replay(tracer.recorded)
    assert set(replayed) == {"tensor.conv3d", "tensor.batch_norm", "gate.recursion",
                             "gate.fuse"}
    assert replayed["gate.recursion"]["calls"] == replayed["gate.fuse"]["calls"] == UNITS
    for row in replayed.values():
        assert np.isfinite([row["fwd_ms"], row["bwd_ms"]]).all()
