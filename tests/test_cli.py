"""End-to-end CLI tests: artifact layout, exit codes, determinism, resume."""

import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srtg
from srtg import checks
from srtg import gate as sg
from srtg.checks import CHECK_TOLERANCES
from srtg.cli import _build_parser, main
from srtg.config import read_config
from srtg.data import load_dataset, save_dataset

from oracles import cycle_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_SMALL_DATA = [
    "--set", "synthetic.train_clips=12",
    "--set", "synthetic.val_clips=6",
    "--set", "synthetic.frames=4",
    "--set", "synthetic.height=8",
    "--set", "synthetic.width=8",
]


def _gen(tmp_path, seed=3):
    out = tmp_path / "data"
    rc = main(["gen-data", "--config", str(CONFIGS / "toy_data.cfg"),
               "--out", str(out), "--seed", str(seed)] + _SMALL_DATA)
    assert rc == 0
    return out


def _train_args(data_dir, out_dir, epochs=2, extra=()):
    return [
        "train", "--config", str(CONFIGS / "toy.cfg"), "--out", str(out_dir),
        "--set", f"data.train={data_dir / 'train.bin'}",
        "--set", f"data.val={data_dir / 'val.bin'}",
        "--set", f"train.epochs={epochs}",
        "--set", "train.batch_size=4",
        *extra,
    ]


def test_gen_data_artifacts(tmp_path, capsys):
    out = _gen(tmp_path)
    assert (out / "train.bin").exists()
    assert (out / "val.bin").exists()
    assert (out / "effective.cfg").exists()
    assert "train_clips = 12" in (out / "effective.cfg").read_text()
    payload = json.loads(capsys.readouterr().out)
    assert payload["train"]["clips"] == 12


def test_train_writes_metrics_checkpoint_and_echo(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(_train_args(data, out)) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.bin").exists()
    assert (out / "effective.cfg").exists()
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("epoch,loss,top1,top5,lr,gate_open_rate.")
    assert len(lines) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["epochs_run"] == 2


def test_seeded_runs_byte_identical(tmp_path):
    data = _gen(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(_train_args(data, out, extra=["--seed", "7"])) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_effective_config_refeeds_bit_exactly(tmp_path):
    data = _gen(tmp_path)
    first = tmp_path / "first"
    assert main(_train_args(data, first)) == 0
    second = tmp_path / "second"
    rc = main(["train", "--config", str(first / "effective.cfg"), "--out", str(second)])
    assert rc == 0
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


def test_resume_matches_uninterrupted(tmp_path):
    data = _gen(tmp_path)
    full = tmp_path / "full"
    assert main(_train_args(data, full, epochs=4)) == 0

    part = tmp_path / "part"
    assert main(_train_args(data, part, epochs=4, extra=["--stop-after", "2"])) == 0
    resumed = tmp_path / "resumed"
    rc = main(_train_args(data, resumed, epochs=4,
                          extra=["--resume", str(part / "checkpoint.bin")]))
    assert rc == 0

    full_rows = (full / "metrics.csv").read_text().strip().splitlines()
    resumed_rows = (resumed / "metrics.csv").read_text().strip().splitlines()
    assert resumed_rows == full_rows[:1] + full_rows[3:]  # columns, epochs 3 and 4, bit-exact
    assert (full / "checkpoint.bin").read_bytes() == (resumed / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("extra, message", [
    (["--seed", "99"], "written with train.seed 7, but this run has train.seed 99"),
    (["--set", "network.gate_active=false", "--set", "network.stem_stride=1x1x1"],
     "written for another network: gate_active, stem_stride differ"),
    (["--set", "train.epochs=1"], "is already at epoch 1, but this run has train.epochs 1"),
    (["--stop-after", "1"], "is already at epoch 1, but this run has train.epochs 2 "
                            "and --stop-after 1"),
], ids=["seed", "network", "epochs_done", "stop_after_done"])
def test_resume_from_another_run_exits_1_before_any_epoch(tmp_path, capsys, extra, message):
    # same parameter shapes, so without the checks the run would train on;
    # resuming into the checkpoint's own run directory must leave it as it was
    data = _gen(tmp_path)
    part = tmp_path / "part"
    assert main(_train_args(data, part, extra=["--stop-after", "1"])) == 0
    before = {p.name: p.read_bytes() for p in part.iterdir()}
    capsys.readouterr()
    rc = main(_train_args(data, part,
                          extra=["--resume", str(part / "checkpoint.bin"), *extra]))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in part.iterdir()} == before


def _forge_header(ckpt, forged, edit):
    """Write `ckpt` to `forged` with `edit` applied to its header dict, under
    a valid checksum."""
    raw = ckpt.read_bytes()
    _, hlen = struct.unpack_from("<IQ", raw, 8)
    header = json.loads(raw[20:20 + hlen])
    edit(header)
    hjson = json.dumps(header).encode()
    body = raw[:8] + struct.pack("<IQ", 1, len(hjson)) + hjson + raw[20 + hlen:-32]
    forged.write_bytes(body + hashlib.sha256(body).digest())


def test_resume_from_negative_epoch_checkpoint_exits_2_and_writes_nothing(tmp_path, capsys):
    # a checksum-valid checkpoint of this very run, with only its epoch forged;
    # resumed into its own run directory, no file there may change
    data = _gen(tmp_path)
    part = tmp_path / "part"
    assert main(_train_args(data, part, epochs=4, extra=["--stop-after", "1"])) == 0
    ckpt = part / "checkpoint.bin"
    _forge_header(ckpt, ckpt, lambda header: header.update(epoch=-3))
    before = {p.name: p.read_bytes() for p in part.iterdir()}
    capsys.readouterr()
    rc = main(_train_args(data, part, epochs=4, extra=["--resume", str(ckpt)]))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "header" in err and len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in part.iterdir()} == before


@pytest.mark.parametrize("edit", [lambda header: header.pop("net_config"),
                                  lambda header: header.update(net_config=None)],
                         ids=["missing", "null"])
def test_checkpoint_without_network_sections_exits_2(tmp_path, capsys, edit):
    # a refused resume writes nothing to --out, not even effective.cfg
    data = _gen(tmp_path)
    part = tmp_path / "part"
    assert main(_train_args(data, part, epochs=4, extra=["--stop-after", "1"])) == 0
    forged = tmp_path / "forged.bin"
    _forge_header(part / "checkpoint.bin", forged, edit)
    fresh = tmp_path / "fresh"
    for argv in (_train_args(data, fresh, epochs=4, extra=["--resume", str(forged)]),
                 ["evaluate", "--checkpoint", str(forged), "--data", str(data / "val.bin"),
                  "--out", str(fresh)],
                 ["gate-analyze", "--checkpoint", str(forged), "--data", str(data / "val.bin"),
                  "--out", str(fresh)]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and "forged.bin: net_config" in err, err
        assert len(err.splitlines()) == 1
        assert not fresh.exists()


def test_checkpoint_with_an_unknown_network_key_exits_1_for_every_command(tmp_path, capsys):
    # the embedded sections are validated as a config file's are, so resuming
    # refuses a key (here fusion_mode, which older checkpoints carry) as
    # evaluate and gate-analyze do, before --out is created
    data = _gen(tmp_path)
    part = tmp_path / "part"
    assert main(_train_args(data, part, epochs=4, extra=["--stop-after", "1"])) == 0
    forged = tmp_path / "forged.bin"
    _forge_header(part / "checkpoint.bin", forged,
                  lambda header: header["net_config"]["network"].update(
                      fusion_mode="multiplicative"))
    fresh = tmp_path / "fresh"
    for argv in (_train_args(data, fresh, epochs=4, extra=["--resume", str(forged)]),
                 ["evaluate", "--checkpoint", str(forged), "--data", str(data / "val.bin"),
                  "--out", str(fresh)],
                 ["gate-analyze", "--checkpoint", str(forged), "--data", str(data / "val.bin"),
                  "--out", str(fresh)]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == "error: unknown key(s) in [network]: fusion_mode\n"
        assert not fresh.exists()


def test_resume_into_another_networks_metrics_exits_1_and_keeps_them(tmp_path, capsys):
    data = _gen(tmp_path)
    part, other = tmp_path / "part", tmp_path / "other"
    assert main(_train_args(data, part, epochs=3, extra=["--stop-after", "1"])) == 0
    assert main(_train_args(data, other, epochs=3,
                            extra=["--set", "network.placement=none"])) == 0
    metrics = (other / "metrics.csv").read_bytes()
    cfg = (other / "effective.cfg").read_bytes()
    capsys.readouterr()
    rc = main(_train_args(data, other, epochs=3,
                          extra=["--resume", str(part / "checkpoint.bin")]))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "another network" in err
    assert len(err.splitlines()) == 1
    # the refusal comes before anything is written: the config still matches
    assert (other / "metrics.csv").read_bytes() == metrics
    assert (other / "effective.cfg").read_bytes() == cfg


def test_evaluate_checkpoint(tmp_path, capsys):
    # --out gets the report and, as effective.cfg, the checkpoint's network sections
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run)) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    rc = main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data / "val.bin"), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert (out / "eval.json").read_text() == printed
    payload = json.loads(printed)
    assert 0.0 <= payload["top1"] <= payload["top5"] <= 1.0
    assert payload["clips"] == 6
    sections = read_config(str(run / "effective.cfg"))
    assert read_config(str(out / "effective.cfg")) == {
        s: v for s, v in sections.items() if s == "network" or s.startswith("stage")}


def test_evaluate_and_gate_analyze_without_config(tmp_path, capsys):
    # the network is rebuilt from the sections the checkpoint embeds
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run)) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data / "val.bin")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clips"] == 6
    rc = main(["gate-analyze", "--checkpoint", str(run / "checkpoint.bin"),
               "--data", str(data / "val.bin")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any('"verdict"' in l for l in lines)


def _count_checks(monkeypatch):
    """Shapes of the (N, T, C) pairs passed to the gate's cycle check."""
    calls = []
    real = sg.cycle_consistent
    monkeypatch.setattr(sg, "cycle_consistent",
                        lambda a, b: calls.append(a.shape) or real(a, b))
    return calls


# one cycle check's (N, T, C) per unit (T=4 at C=8, T=2 at C=16) and batch,
# for the six val clips: one batch of six, or batches of four and two
_ONE_BATCH = [(6, 2, 16), (6, 4, 8)]
_TWO_BATCHES = [(2, 2, 16), (2, 4, 8), (4, 2, 16), (4, 4, 8)]


def test_inactive_gate_checks_only_when_gate_analyze_reads_indices(tmp_path, capsys,
                                                                    monkeypatch):
    calls = _count_checks(monkeypatch)
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run, extra=("--set", "network.gate_active=false"))) == 0
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data / "val.bin")]) == 0
    assert calls == []  # train steps, per-epoch evaluation and evaluate
    capsys.readouterr()
    assert main(["gate-analyze", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data / "val.bin"), "--batch-size", "4"]) == 0
    # one per unit and batch, when the indices are read
    assert sorted(calls) == _TWO_BATCHES
    lines = capsys.readouterr().out.splitlines()
    assert sum('"verdict": "inactive"' in line for line in lines) == 12


def test_active_gate_checks_once_to_route_and_gate_analyze_reads_that_check(tmp_path, capsys,
                                                                           monkeypatch):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run)) == 0
    calls = _count_checks(monkeypatch)
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data / "val.bin")]) == 0
    assert sorted(calls) == _ONE_BATCH  # to route, one per unit and batch
    calls.clear()
    capsys.readouterr()
    assert main(["gate-analyze", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data / "val.bin"), "--batch-size", "4"]) == 0
    # one per unit and batch to route; the record hands its indices on
    assert sorted(calls) == _TWO_BATCHES


@pytest.mark.parametrize("gate_active", [False, True], ids=["inactive", "active"])
def test_gate_analyze_records_match_the_oracle_clip_by_clip(tmp_path, capsys, monkeypatch,
                                                            gate_active):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    gate = ("--set", f"network.gate_active={str(gate_active).lower()}")
    assert main(_train_args(data, run, extra=gate)) == 0
    pairs = []  # each unit's (emb, filtered), per batch in call order
    real = sg.recursion

    def recursion(embedding, params):
        filtered = real(embedding, params)
        pairs.append((embedding.data.copy(), filtered.data.copy()))
        return filtered

    monkeypatch.setattr(sg, "recursion", recursion)
    out = tmp_path / "gates"
    assert main(["gate-analyze", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data / "val.bin"), "--batch-size", "4",
                 "--out", str(out)]) == 0
    records = [json.loads(l) for l in (out / "gates.jsonl").read_text().splitlines()]
    want = []
    for emb, filtered in pairs:
        for e, f in zip(emb, filtered):
            ok, fwd, bwd = cycle_oracle(e.tolist(), f.tolist())
            verdict = ("open" if ok else "closed") if gate_active else "inactive"
            want.append((verdict, fwd, bwd))
    got = [(r["verdict"], r["match_indices_fwd"], r["match_indices_bwd"]) for r in records]
    assert len(pairs) == 4 and got == want
    # per batch, each unit's clips: 0-3 twice, then 4-5 twice
    assert [r["clip_id"] for r in records] == [0, 1, 2, 3] * 2 + [4, 5] * 2
    assert ("closed" in [r["verdict"] for r in records]) == gate_active


def test_count_ops_report(tmp_path, capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "r3d34_srtg.cfg"),
               "--input", "3x16x224x224"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["totals"]["gflops"] - 110.48) / 110.48 <= 0.02
    assert 0.0005 <= payload["srtg_overhead_ratio"] <= 0.004
    assert payload["layers"][0]["name"] == "stem.conv"


def test_count_ops_writes_report_file(tmp_path, capsys):
    out = tmp_path / "ops"
    rc = main(["count-ops", "--net", str(CONFIGS / "r3d50_srtg.cfg"),
               "--input", "3x16x224x224", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "opcount.json").read_text())
    assert report["totals"]["total"] > 0


@pytest.mark.parametrize("placement", ["final", "none"])
def test_gate_analyze_jsonl(tmp_path, capsys, placement):
    units = 0 if placement == "none" else 2
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run, extra=("--set", f"network.placement={placement}"))) == 0
    capsys.readouterr()
    out = tmp_path / "gates"
    args = ["gate-analyze", "--checkpoint", str(run / "checkpoint.bin"),
            "--data", str(data / "val.bin")]
    assert main(args + ["--out", str(out)]) == 0
    text = (out / "gates.jsonl").read_text()
    if not units:
        assert text == ""  # no records, so no lines
    records = [json.loads(l) for l in text.splitlines()]  # strict JSON lines
    capsys.readouterr()
    assert main(args) == 0  # stdout: the same lines, then the summary
    printed = capsys.readouterr().out
    assert printed.startswith(text) and printed[len(text)] == "{"
    assert len(records) == 6 * units  # six clips
    for rec in records:
        assert set(rec) == {"layer", "clip_id", "verdict", "match_indices_fwd",
                            "match_indices_bwd"}
        assert rec["verdict"] in ("open", "closed", "inactive")
    summary = json.loads((out / "gate_summary.json").read_text())
    for rate in summary["open_rates"].values():
        assert 0.0 <= rate <= 1.0


def test_grad_check_command(tmp_path, capsys):
    rc = main(["grad-check", "--target", "lstm_layer", "--target", "primitives"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["errors"]["lstm_layer"] <= 1e-4


def test_grad_check_command_passes_every_target(capsys):
    # the whole battery, as `srtg grad-check` runs it; the assertion names a
    # failing check with its error, or the message of a check that raised
    rc = main(["grad-check"])
    out, err = capsys.readouterr()
    assert not err, err
    payload = json.loads(out)
    errors, raised = payload["errors"], payload["raised"]
    failed = {k: v for k, v in errors.items() if not v <= CHECK_TOLERANCES[k]}
    assert not failed and not raised, f"over tolerance: {failed}, raised: {raised}"
    assert rc == 0 and set(errors) == set(CHECK_TOLERANCES)


def test_grad_check_command_reports_a_raising_check_with_the_others(monkeypatch, capsys):
    def broken():
        raise ValueError("cannot reshape array\nsecond line")

    monkeypatch.setitem(checks._CHECKS, "simple_block_final", (broken, 1e-4))
    rc = main(["grad-check", "--target", "primitives", "--target", "simple_block_final",
               "--target", "lstm_layer"])
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    payload = json.loads(out)
    assert payload["raised"] == {"simple_block_final": "ValueError: cannot reshape array"}
    assert set(payload["errors"]) == {"primitives", "lstm_layer"}
    assert payload["errors"]["primitives"] <= CHECK_TOLERANCES["primitives"]
    assert set(payload["tolerances"]) == {"primitives", "simple_block_final", "lstm_layer"}
    assert payload["passed"] is False


def test_run_checks_refuses_an_unknown_target_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(checks._CHECKS, "primitives", (lambda: ran.append(1) or 0.0, 1e-5))
    with pytest.raises(ValueError, match="'bogus'"):
        checks.run_checks(["primitives", "bogus"])
    assert ran == []


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_readme_commands_parse():
    # every `srtg ...` line of README's fenced sh blocks, continuations joined
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("srtg ")]
    assert {argv[0] for argv in commands} == {"gen-data", "train", "evaluate", "gate-analyze",
                                              "count-ops", "grad-check"}
    for argv in commands:
        _build_parser().parse_args(argv)


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(CONFIGS / "toy_data.cfg"),
               "--out", str(tmp_path / "o"), "--set", "synthetic.sneed=1"])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_input_shape_exits_1(capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "r3d34_srtg.cfg"),
               "--input", "3x16x224"])
    assert rc == 1


def test_input_channels_not_matching_the_network_exit_1(capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "toy.cfg"), "--input", "3x8x16x16"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input channels 3 do not match")
    assert len(err.strip().splitlines()) == 1


def test_placement_missing_from_depth_kind_exits_1(capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "toy.cfg"), "--input", "1x8x16x16",
               "--set", "network.placement=top"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network.placement 'top' not valid for simple blocks")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("setting", [
    "network.in_channels=0",
    "network.stem_channels=0",
    "network.stem_channels=-1",
    "network.num_classes=0",
    "train.frames_per_clip=0",
    "train.frames_per_clip=-3",
    "train.milestones=-3",
    "train.milestones=4,4",
    "train.milestones=13",
])
def test_bad_network_and_train_values_exit_1_at_parse_time(tmp_path, capsys, setting):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(CONFIGS / "toy.cfg"), "--out", str(out),
               "--set", setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()  # rejected before the run directory or data


@pytest.mark.parametrize("command,config,setting", [
    ("train", "toy.cfg", "train.lr0=nan"),
    ("train", "toy.cfg", "train.momentum=inf"),
    ("train", "toy.cfg", "train.weight_decay=-inf"),
    ("gen-data", "toy_data.cfg", "synthetic.noise=NaN"),
])
def test_non_finite_float_values_exit_1_at_parse_time(tmp_path, capsys, command, config,
                                                      setting):
    out = tmp_path / "run"
    rc = main([command, "--config", str(CONFIGS / config), "--out", str(out),
               "--set", setting])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "expected a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [("gen-data", "toy_data.cfg"), ("train", "toy.cfg")])
def test_negative_seed_exits_1_before_any_output(tmp_path, capsys, command, config):
    out = tmp_path / "run"
    rc = main([command, "--config", str(CONFIGS / config), "--out", str(out), "--seed", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "seed must be non-negative" in err
    assert not out.exists()  # no run directory, no effective.cfg


def test_translate_beyond_16_classes_exits_1_before_any_output(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--config", str(CONFIGS / "toy_data.cfg"), "--out", str(out),
               "--set", "synthetic.family=translate", "--set", "synthetic.num_classes=17"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "at most 16 classes" in err
    assert not out.exists()  # no data directory, no effective.cfg


@pytest.mark.parametrize("argv", [
    ["evaluate", "--checkpoint", "c.bin", "--data", "v.bin", "--seed", "1"],
    ["count-ops", "--net", str(CONFIGS / "toy.cfg"), "--input", "1x8x16x16",
     "--seed", "1"],
    ["gate-analyze", "--checkpoint", "c.bin", "--data", "v.bin", "--seed", "1"],
    ["evaluate", "--checkpoint", "c.bin", "--data", "v.bin", "--config", "toy.cfg"],
    ["gate-analyze", "--checkpoint", "c.bin", "--data", "v.bin", "--config", "toy.cfg"],
    ["grad-check", "--seed", "1"],
    ["grad-check", "--set", "nonsense.key=1"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_options_a_command_would_ignore_are_usage_errors(capsys, argv):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_2_without_traceback():
    pythonpath = [str(Path(srtg.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    proc = subprocess.Popen(
        [sys.executable, "-m", "srtg.cli", "count-ops", "--net", str(CONFIGS / "toy.cfg"),
         "--input", "1x8x16x16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    proc.stdout.close()  # long before the command has imported numpy and written
    _, err = proc.communicate(timeout=120)
    err = err.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err and len(err.strip().splitlines()) <= 1


@pytest.mark.parametrize("size", ["0", "-1", "two"])
def test_gate_analyze_rejects_batch_size_below_one(tmp_path, capsys, size):
    rc = main(["gate-analyze", "--checkpoint", str(tmp_path / "none.bin"),
               "--data", str(tmp_path / "none.bin"), "--batch-size", size])
    assert rc == 1
    assert "--batch-size: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("epochs", ["0", "-2", "two"])
def test_train_rejects_stop_after_below_one(tmp_path, capsys, epochs):
    out = tmp_path / "run"
    rc = main(_train_args(tmp_path, out, extra=["--stop-after", epochs]))
    assert rc == 1
    assert "--stop-after: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"SRTGCKPT" + b"\x00" * 64)
    rc = main(["evaluate", "--checkpoint", str(bad), "--data", str(data / "val.bin")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


def test_checkpoint_header_without_epoch_exits_2(tmp_path, capsys):
    # the checksum is valid; only the header is wrong
    hjson = json.dumps({"seed": 0, "arrays": []}).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(hjson)) + hjson
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["evaluate", "--checkpoint", str(forged), "--data", str(tmp_path / "val.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "epoch, seed and arrays" in err
    assert len(err.splitlines()) == 1


def test_checkpoint_net_config_not_an_object_exits_2(tmp_path, capsys):
    # evaluate rebuilds the network from net_config
    hjson = json.dumps({"epoch": 1, "seed": 0, "arrays": [], "net_config": 5}).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(hjson)) + hjson
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["evaluate", "--checkpoint", str(forged), "--data", str(tmp_path / "val.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    # the tmp_path holds "net_config" too, so match the file's name with it
    assert err.startswith("runtime error: ") and "forged.ckpt: net_config" in err
    assert len(err.splitlines()) == 1


def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                          "(10000000000000, 1, 8, 16, 16) and data type float64")

    monkeypatch.setattr(srtg.data, "generate", out_of_memory)
    rc = main(["gen-data", "--config", str(CONFIGS / "toy_data.cfg"),
               "--out", str(tmp_path / "data")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: Unable to allocate") and len(err.splitlines()) == 1


def test_dataset_header_with_negative_sizes_exits_2(tmp_path, capsys):
    # count -1 and shape [-1] multiply to one clip of one value, and the file
    # has no payload: the sizes themselves must be rejected
    hjson = json.dumps({"count": -1, "shape": [-1], "meta": {}}).encode()
    forged = tmp_path / "forged.bin"
    forged.write_bytes(b"SRTGDATA" + struct.pack("<IQ", 1, len(hjson)) + hjson)
    rc = main(_train_args(tmp_path, tmp_path / "run", extra=(
        "--set", f"data.train={forged}", "--set", f"data.val={forged}")))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "must be positive" in err
    assert len(err.splitlines()) == 1


def test_evaluate_label_outside_classes_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run, epochs=1)) == 0
    val = load_dataset(data / "val.bin")
    val.labels = val.labels.copy()  # a loaded dataset is a read-only view
    for label in (5, -1):
        val.labels[-1] = label
        save_dataset(tmp_path / "bad.bin", val)
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                   "--data", str(tmp_path / "bad.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: softmax_cross_entropy: label {label} outside [0, 2)\n"


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    data = _gen(root)
    assert main(_train_args(data, root / "run", epochs=1)) == 0
    return root / "run" / "checkpoint.bin", data / "val.bin"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_damaged_checkpoint_evaluate_exits_2_with_one_line(toy_checkpoint, data):
    ckpt, val = toy_checkpoint
    raw = bytearray(ckpt.read_bytes())
    if data.draw(st.booleans(), label="flip"):
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="xor")
    else:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    forged = ckpt.with_name("damaged.bin")
    forged.write_bytes(bytes(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["evaluate", "--checkpoint", str(forged), "--data", str(val)])
    assert rc == 2
    lines = err.getvalue().splitlines()
    # one line and no traceback
    assert len(lines) == 1 and lines[0].startswith("runtime error: "), lines


@pytest.mark.parametrize("command, blocked, code", [
    ("train", "metrics.csv", 2),
    ("train", "checkpoint.bin", 2),
    ("train", "effective.cfg", 1),
    ("evaluate", "eval.json", 2),
])
def test_output_path_taken_by_a_directory_exits_with_one_line(toy_checkpoint, tmp_path, capsys,
                                                              command, blocked, code):
    ckpt, val = toy_checkpoint
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "train":
        argv = _train_args(val.parent, out, epochs=1)
    else:
        argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(val), "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: " if code == 1 else "runtime error: ") and blocked in err
    assert not list(out.glob("*.tmp"))


def test_effective_config_written_before_run(tmp_path):
    # even a failing run leaves the echoed config + seed behind
    out = tmp_path / "run"
    rc = main([
        "train", "--config", str(CONFIGS / "toy.cfg"), "--out", str(out),
        "--set", "data.train=/nonexistent/train.bin",
        "--set", "data.val=/nonexistent/val.bin",
        "--seed", "123",
    ])
    assert rc == 2
    text = (out / "effective.cfg").read_text()
    assert "seed = 123" in text
