"""End-to-end CLI tests: artifact layout, exit codes, determinism, resume."""

import hashlib
import json
import os
import struct
from pathlib import Path

import pytest

from srtg.cli import main
from srtg.data import load_dataset, save_dataset

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
    assert resumed_rows == full_rows[3:]  # epochs 3 and 4, bit-exact
    assert (full / "checkpoint.bin").read_bytes() == (resumed / "checkpoint.bin").read_bytes()


def test_evaluate_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run)) == 0
    capsys.readouterr()
    rc = main([
        "evaluate", "--config", str(run / "effective.cfg"),
        "--checkpoint", str(run / "checkpoint.bin"),
        "--data", str(data / "val.bin"),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["top1"] <= payload["top5"] <= 1.0
    assert payload["clips"] == 6


def test_evaluate_and_gate_analyze_without_config(tmp_path, capsys):
    # the checkpoint embeds the network sections, so --config is optional
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


def test_count_ops_report(tmp_path, capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "r3d34_srtg.cfg"),
               "--input", "3x16x224x224", "--units", "gflops"])
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


def test_gate_analyze_jsonl(tmp_path, capsys):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run)) == 0
    capsys.readouterr()
    out = tmp_path / "gates"
    rc = main([
        "gate-analyze", "--config", str(run / "effective.cfg"),
        "--checkpoint", str(run / "checkpoint.bin"),
        "--data", str(data / "val.bin"), "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "gates.jsonl").read_text().strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert len(records) == 6 * 2  # six clips, two gated units
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


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


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


def test_placement_missing_from_depth_kind_exits_1(capsys):
    rc = main(["count-ops", "--net", str(CONFIGS / "toy.cfg"), "--input", "1x8x16x16",
               "--set", "network.placement=top"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: network.placement 'top' not valid for simple blocks")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("size", ["0", "-1", "two"])
def test_gate_analyze_rejects_batch_size_below_one(tmp_path, capsys, size):
    rc = main(["gate-analyze", "--checkpoint", str(tmp_path / "none.bin"),
               "--data", str(tmp_path / "none.bin"), "--batch-size", size])
    assert rc == 1
    assert "--batch-size: expected a positive integer" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"SRTGCKPT" + b"\x00" * 64)
    rc = main([
        "evaluate", "--config", str(CONFIGS / "toy.cfg"),
        "--checkpoint", str(bad), "--data", str(data / "val.bin"),
    ])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


def test_checkpoint_header_without_epoch_exits_2(tmp_path, capsys):
    # the checksum is valid; only the header is wrong
    hjson = json.dumps({"seed": 0, "arrays": []}).encode()
    body = b"SRTGCKPT" + struct.pack("<IQ", 1, len(hjson)) + hjson
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["evaluate", "--config", str(CONFIGS / "toy.cfg"),
               "--checkpoint", str(forged), "--data", str(tmp_path / "val.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "epoch, seed and arrays" in err
    assert len(err.splitlines()) == 1


def test_evaluate_label_outside_classes_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    run = tmp_path / "run"
    assert main(_train_args(data, run, epochs=1)) == 0
    val = load_dataset(data / "val.bin")
    for label in (5, -1):
        val.labels[-1] = label
        save_dataset(tmp_path / "bad.bin", val)
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                   "--data", str(tmp_path / "bad.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"runtime error: softmax_cross_entropy: label {label} outside [0, 2)\n"


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
