"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 trains two small
networks end to end through the CLI and dominates the runtime (a few minutes
on one core); everything else finishes in well under two minutes combined.
"""

import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import cycle_oracle, separated_embedding

import srtg
from srtg import tensor as tt
from srtg.blocks import Block, block_layout
from srtg.checks import CHECK_TOLERANCES, run_checks
from srtg.cli import main as cli_main
from srtg.config import PLACEMENTS, NetworkSpec, StageSpec, network_spec, read_config
from srtg.gate import (
    GateVerdict,
    LstmParams,
    cycle_consistent,
    init_lstm_params,
    nearest_frame_index,
    soft_match_weights,
    soft_nearest_neighbor,
    srtg_unit,
)
from srtg.opcount import count_macs
from srtg.tensor import Tensor, backward

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_SINGLE_CORE_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def _verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_overhead_reproduction():
    started = time.perf_counter()
    spec = network_spec(read_config(str(CONFIGS / "r3d34_srtg.cfg")))
    counts = count_macs(spec, (3, 16, 224, 224))
    elapsed = time.perf_counter() - started
    gflops = 2.0 * counts.total / 1e9
    deviation = abs(gflops - 110.48) / 110.48
    ratio = counts.srtg_overhead_ratio
    ok = deviation <= 0.02 and 0.0005 <= ratio <= 0.004 and elapsed < 5.0
    _verdict(
        "1 overhead-reproduction",
        ok,
        f"gflops={gflops:.2f} vs 110.48 ({100 * deviation:.2f}% off), "
        f"overhead={100 * ratio:.3f}%, {elapsed:.2f}s",
    )


def test_criterion_2_equation_oracles():
    started = time.perf_counter()
    ref = np.array([[[0.0], [1.0]]])
    soft = soft_nearest_neighbor(np.array([[[0.0]]]), ref)
    fixture_ok = (abs(soft[0, 0, 0] - 0.26894) <= 1e-5
                  and nearest_frame_index(soft, ref).tolist() == [[0]])

    rng = np.random.default_rng(2024)
    agree = 0
    pairs = 500
    for trial in range(pairs):
        t_len = int(rng.integers(1, 9))
        c_len = int(rng.integers(1, 17))
        scale = (0.3, 1.0, 4.0)[trial % 3]
        a = rng.standard_normal((t_len, c_len)) * scale
        b = rng.standard_normal((t_len, c_len)) * scale
        passed, fwd, bwd = cycle_consistent(a[None], b[None])
        if (bool(passed[0]), fwd[0].tolist(), bwd[0].tolist()) == cycle_oracle(
            a.tolist(), b.tolist()
        ):
            agree += 1
    elapsed = time.perf_counter() - started
    ok = fixture_ok and agree == pairs and elapsed < 10.0
    _verdict(
        "2 equation-oracles",
        ok,
        f"fixture={'ok' if fixture_ok else 'BAD'}, oracle agreement {agree}/{pairs}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    targets = [
        "lstm_layer",
        "srtg_unit_multiplicative",
        "srtg_unit_additive",
        "simple_block_final",
        "bottleneck_block_final",
    ]
    errors, raised = run_checks(targets)
    elapsed = time.perf_counter() - started
    worst = max(errors.values(), default=float("inf"))
    ok = not raised and all(err <= 1e-4 for err in errors.values()) and elapsed < 60.0
    detail = ", ".join([f"{k}={v:.2e}" for k, v in errors.items()]
                       + [f"{k} raised {m}" for k, m in raised.items()])
    _verdict("3 gradient-correctness", ok, f"{detail}, worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_consistency_properties():
    rng = np.random.default_rng(4)
    trials = 100

    self_ok = 0
    for _ in range(trials):
        e = separated_embedding(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        passed, fwd, _ = cycle_consistent(e[None], e[None])
        if passed[0] and fwd[0].tolist() == list(range(len(e))):
            self_ok += 1

    perm_ok = 0
    for _ in range(trials):
        t_len = int(rng.integers(2, 9))
        e = separated_embedding(rng, t_len, int(rng.integers(2, 9)))
        # pairwise distances here are > 2.0, comfortably above the 1e-3 floor
        perm = rng.permutation(t_len)
        while (perm == np.arange(t_len)).all():
            perm = rng.permutation(t_len)
        if not cycle_consistent(e[None], e[perm][None])[0][0]:
            perm_ok += 1

    shift_ok = 0
    for _ in range(trials):
        t_len, c_len = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        a = rng.standard_normal((t_len, c_len))
        b = rng.standard_normal((t_len, c_len))
        off = np.full(c_len, float(rng.uniform(-50, 50)))
        if np.allclose(
            soft_match_weights((a + off)[None], (b + off)[None]),
            soft_match_weights(a[None], b[None]),
            rtol=0,
            atol=1e-12,
        ):
            shift_ok += 1

    closed_seen = 0
    closed_exact = 0
    for trial in range(trials):
        trial_rng = np.random.default_rng(10_000 + trial)
        params = init_lstm_params(3, 2, trial_rng)
        for layer in params.layers:  # small weights keep the stream degenerate
            layer.w_f.data *= 0.05
            layer.w_i.data *= 0.05
            layer.w_c.data *= 0.05
            layer.w_a.data *= 0.05
        x = trial_rng.standard_normal((2, 3, 4, 2, 2))
        out, record = srtg_unit(Tensor(x), params, gate_active=True)
        for clip, verdict in enumerate(record):
            if verdict is GateVerdict.CLOSED:
                closed_seen += 1
                if np.array_equal(out.data[clip], x[clip]):
                    closed_exact += 1

    ok = (
        self_ok == trials
        and perm_ok == trials
        and shift_ok == trials
        and closed_seen >= trials
        and closed_exact == closed_seen
    )
    _verdict(
        "4 consistency-properties",
        ok,
        f"self {self_ok}/{trials}, permutation {perm_ok}/{trials}, "
        f"shift-invariance {shift_ok}/{trials}, closed-identity "
        f"{closed_exact}/{closed_seen}",
    )


def test_criterion_5_configuration_sweep():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 8, 4, 8, 8))
    combos = [(depth, p) for depth, placements in PLACEMENTS.items() for p in placements]

    def layout(depth, conv_kind, placement):  # an 8 -> 8 channel block
        spec = NetworkSpec(num_classes=2, depth_kind=depth, conv_kind=conv_kind,
                           placement=placement, stages=[StageSpec(1, 8)])
        return block_layout(spec, 8, 8, (1, 1, 1))

    ran = 0
    for depth, placement in combos:
        for conv_kind in ("full_3d", "two_plus_one_d"):
            plain = Block(layout(depth, conv_kind, "none"), np.random.default_rng(50))
            ref_shape = plain.forward(Tensor(x), training=True, gate_log=[]).data.shape
            block = Block(layout(depth, conv_kind, placement), np.random.default_rng(51))
            xt = Tensor(x, requires_grad=True)
            out = block.forward(xt, training=True, gate_log=[])
            assert out.data.shape == ref_shape, (depth, placement, conv_kind)
            backward(tt.sum_all(out))
            assert xt.grad is not None and np.isfinite(xt.grad).all()
            ran += 1
    ok = ran == 24  # (5 simple + 7 bottleneck) x 2 conv kinds
    _verdict("5 configuration-sweep", ok, f"{ran}/24 combinations forward+backward")


def _run_cli(args, cwd):
    """Run `python -m srtg.cli` on the `srtg` this test process imported.

    A relative PYTHONPATH entry (`PYTHONPATH=src`) does not resolve from
    `cwd`, so the package's absolute parent directory goes first.
    """
    env = dict(os.environ)
    env.update(_SINGLE_CORE_ENV)
    pythonpath = [str(Path(srtg.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "srtg.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"srtg {args[0]} exited {proc.returncode}: {proc.stderr}"
    )
    return proc


def _read_metrics(metrics_csv):
    """Best top-1, epoch count and final-epoch gate open rate per unit."""
    with open(metrics_csv) as fh:
        rows = list(csv.DictReader(fh))
    prefix = "gate_open_rate."
    open_rates = {
        key[len(prefix):]: float(value)
        for key, value in rows[-1].items()
        if key.startswith(prefix)
    }
    return max(float(r["top1"]) for r in rows), len(rows), open_rates


def test_criterion_6_temporal_task_smoke_training(tmp_path):
    data_dir = tmp_path / "data"
    _run_cli(
        ["gen-data", "--config", str(CONFIGS / "toy_data.cfg"), "--out", str(data_dir)],
        cwd=tmp_path,
    )

    def train(out_name, extra):
        out = tmp_path / out_name
        started = time.perf_counter()
        _run_cli(
            [
                "train",
                "--config", str(CONFIGS / "toy.cfg"),
                "--out", str(out),
                "--set", f"data.train={data_dir / 'train.bin'}",
                "--set", f"data.val={data_dir / 'val.bin'}",
                *extra,
            ],
            cwd=tmp_path,
        )
        elapsed = time.perf_counter() - started
        return (*_read_metrics(out / "metrics.csv"), elapsed)

    gated_top1, gated_epochs, gated_rates, gated_time = train("srtg_run", [])
    plain_top1, plain_epochs, _, plain_time = train(
        "plain_run", ["--set", "network.placement=none"]
    )

    ok = gated_top1 >= 0.9 and gated_epochs <= 30 and gated_time < 900.0
    rates = ", ".join(f"{name}={rate:.3f}" for name, rate in gated_rates.items())
    _verdict(
        "6 temporal-task-smoke-training",
        ok,
        f"gated top1={gated_top1:.3f} in {gated_epochs} epochs ({gated_time:.0f}s), "
        f"final gate_open_rate {rates} (report-only); "
        f"ungated comparison top1={plain_top1:.3f} in {plain_epochs} epochs "
        f"({plain_time:.0f}s, report-only)",
    )


def test_criterion_7_determinism_and_resume(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli_main(
        [
            "gen-data", "--config", str(CONFIGS / "toy_data.cfg"),
            "--out", str(data_dir), "--seed", "5",
            "--set", "synthetic.train_clips=16",
            "--set", "synthetic.val_clips=8",
            "--set", "synthetic.frames=4",
            "--set", "synthetic.height=8",
            "--set", "synthetic.width=8",
        ]
    )
    assert rc == 0

    def run(name, extra):
        out = tmp_path / name
        rc = cli_main(
            [
                "train",
                "--config", str(CONFIGS / "toy.cfg"),
                "--out", str(out),
                "--set", f"data.train={data_dir / 'train.bin'}",
                "--set", f"data.val={data_dir / 'val.bin'}",
                "--set", "train.epochs=4",
                "--set", "train.batch_size=4",
                "--seed", "21",
                *extra,
            ]
        )
        assert rc == 0
        return out

    run_a = run("a", [])
    run_b = run("b", [])
    identical = (run_a / "metrics.csv").read_bytes() == (run_b / "metrics.csv").read_bytes()

    part = run("part", ["--stop-after", "2"])
    resumed = run("resumed", ["--resume", str(part / "checkpoint.bin")])
    full_rows = (run_a / "metrics.csv").read_text().strip().splitlines()
    resumed_rows = (resumed / "metrics.csv").read_text().strip().splitlines()
    resume_exact = resumed_rows == full_rows[:1] + full_rows[3:] and (
        (run_a / "checkpoint.bin").read_bytes() == (resumed / "checkpoint.bin").read_bytes()
    )

    ok = identical and resume_exact
    _verdict(
        "7 determinism-and-resume",
        ok,
        f"seeded reruns byte-identical={identical}, resume bit-exact={resume_exact}",
    )
