"""Mutation battery: each mutant breaks one gradient or kernel detail of the
engine, or one detail of how the network, its data and its reports are
built, and a named test must fail on it.

    python tests/mutants/run.py [NAME ...]

A mutant is one exact-string replacement, which must match exactly once, in
one file under src/srtg. The driver copies the tree once into a temporary
directory and runs every named test there unmutated, which must pass. It
then applies each mutant in turn (all, or the NAMEs given) and runs the
pytest node ids it names, stopping at the first failure. One JSON line per
mutant says whether it was killed, and by which test with which message.
The exit status is 1 if any mutant survives or errs, or if any replacement
no longer matches once; 2 if a NAME is unknown or a named test fails on
the unmutated tree. The driver uses the standard library only; the tests
it runs need pytest, as the rest of the suite does.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/srtg
    old: str
    new: str
    nodes: tuple[str, ...]  # pytest node ids, any of which kills it


TENSOR = "src/srtg/tensor.py"
# the whole battery as `srtg grad-check` runs it
GRAD_CHECK = ("tests/test_cli.py::test_grad_check_command_passes_every_target",)
# one conv3d kernel kind against the loop oracles, by its parametrize id
KINDS = "tests/test_tensor.py::test_conv3d_kernel_kinds_match_loop_oracles"

MUTANTS = (
    # gradients: `srtg grad-check` must fail each of these
    # dw on each layout: channels-last runs `primitives`' 2-channel conv and
    # the simple block's, the other layout the bottleneck's 1-channel 3x3x3
    Mutant("conv3d_dw_sign_flipped", TENSOR,
           "part = row.T @ gm if last", "part = -row.T @ gm if last", GRAD_CHECK),
    Mutant("conv3d_dw_sign_flipped_channels_first", TENSOR,
           "else (row @ gm).sum(axis=0)", "else -(row @ gm).sum(axis=0)", GRAD_CHECK),
    Mutant("conv3d_dw_nan", TENSOR,
           "dw[:, :, t, h] = part", "dw[:, :, t, h] = np.nan * part", GRAD_CHECK),
    Mutant("conv3d_strided_dx_scatter_scaled", TENSOR,
           "dxp[_tap(off, ext, stride)] += (wk[off].T @ g2)",
           "dxp[_tap(off, ext, stride)] += 1.01 * (wk[off].T @ g2)", GRAD_CHECK),
    Mutant("conv3d_dx_kw_not_flipped", TENSOR,
           "w.data[:, :, ::-1, ::-1, ::-1]", "w.data[:, :, ::-1, ::-1, :]", GRAD_CHECK),
    Mutant("conv3d_dx_channels_not_swapped", TENSOR,
           "wflip = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)",
           "wflip = w.data[:, :, ::-1, ::-1, ::-1]", GRAD_CHECK),
    Mutant("fuse_passed_clips_send_emb_grad", TENSOR,
           "gemb[~clips] = 0.0", "pass", GRAD_CHECK),
    Mutant("batch_norm_drops_dbeta_term", TENSOR,
           "dx -= (dbeta / m)[:, None]", "pass", GRAD_CHECK),
    Mutant("batch_norm_fused_relu_mask_dropped", TENSOR,
           "g3 = g3 * (out > 0.0)", "pass", GRAD_CHECK),
    Mutant("lstm_dc_next_without_forget_gate", TENSOR,
           "dc_next = dc * f[s]", "dc_next = dc", GRAD_CHECK),
    Mutant("spatial_pool_not_dividing_by_w", TENSOR, "/ (h * w)", "/ h", GRAD_CHECK),
    Mutant("max_pool_routes_all_to_offset_0", TENSOR,
           "+= g * (argoff == idx)", "+= g * (idx == 0)", GRAD_CHECK),
    Mutant("affine_db_as_mean", TENSOR,
           "(b, g.sum(axis=0))", "(b, g.mean(axis=0))", GRAD_CHECK),
    Mutant("fuse_multiplicative_vol_grad_unscaled", TENSOR,
           "(vol, g * emap if multiplicative else g)", "(vol, g)", GRAD_CHECK),
    Mutant("sigmoid_backward_wrong", TENSOR,
           "[(x, g * s * (1.0 - s))]", "[(x, g * (1.0 - s))]", GRAD_CHECK),
    Mutant("add_relu_mask_ge_minus_one", TENSOR,
           "gm = g * (out > 0.0)", "gm = g * (out >= -1.0)", GRAD_CHECK),
    # kernels: the loop oracles and memory bounds must fail each of these
    Mutant("conv3d_tap_offsets_swap_h_and_w", TENSOR,
           "buf[:, k] = xp[_tap((t, h, k), ext, stride)]",
           "buf[:, k] = xp[_tap((t, k, h), ext, stride)]",
           (f"{KINDS}[cin1-3x3x3-s111]",)),
    Mutant("conv3d_channels_last_gather_ignores_w_stride", TENSOR,
           "(1, *stride, 1)", "(1, *stride[:2], 1, 1)",
           (f"{KINDS}[3x3x3-s122]",)),
    Mutant("batch_norm_view_mixes_n_and_c", TENSOR,
           "rows = x.data.reshape(n, c, -1)",
           "rows = x.data.reshape(c, n, -1).transpose(1, 0, 2)",
           ("tests/test_tensor.py::test_batch_norm_matches_loop_oracle[True]",)),
    Mutant("conv3d_dx_g_padded_without_cropping", TENSOR,
           "crop = [max(-p, 0) for p in pads]", "crop = [0 for p in pads]",
           (f"{KINDS}[1x1x1-s111-p111]",
            f"{KINDS}[3x1x1-s111-p300]",
            f"{KINDS}[3x3x3-s111-p333]")),
    Mutant("conv3d_dx_full_im2col", TENSOR,
           "return grads + [(x, _correlate(gp, wflip, x.data.shape[2:], (1, 1, 1)))]",
           "return grads + [(x, np.einsum('nokthw,iok->nithw', np.stack([gp[_tap("
           "o, x.data.shape[2:], (1, 1, 1))] for o in itertools.product("
           "*map(range, w.data.shape[2:]))], 2), wflip.reshape(cin, cout, -1)))]",
           ("tests/test_tensor.py::test_conv3d_backward_gathers_one_row_of_taps",)),
    # construction and bookkeeping: the LSTM record's draw order, checkpoint
    # names, the top-k tie rule, noise-free clips and the op-count totals
    Mutant("lstm_forget_bias_on_input_gate", "src/srtg/gate.py",
           "b(1.0), b(0.0), b(0.0), b(0.0)", "b(0.0), b(1.0), b(0.0), b(0.0)",
           ("tests/test_gate.py::test_init_lstm_params_draws_weights_then_biases_forget_bias_one",)),
    Mutant("two_plus_one_d_temporal_norm_named_mid_bn", "src/srtg/blocks.py",
           '(temporal, f"{conv}.temporal", norm)',
           '(temporal, f"{conv}.temporal", f"{conv}.mid_bn")',
           ("tests/test_blocks.py::test_checkpoint_array_table_matches_golden[long_clip_gate]",)),
    Mutant("top_k_ranks_lowest_logits", "src/srtg/train.py",
           "np.argsort(-logits", "np.argsort(logits",
           ("tests/test_train.py::test_top_k_hand_fixture",)),
    Mutant("clip_noise_at_noise_zero", "src/srtg/data.py",
           "spec.noise * rng", "(spec.noise + 1e-3) * rng",
           ("tests/test_data.py::test_generate_matches_frame_loop_oracle[reversed_pair-2-0.0-1]",)),
    Mutant("op_count_conv_totalled_as_head", "src/srtg/opcount.py",
           '"conv": "convolutions"', '"conv": "head"',
           ("tests/test_opcount.py::test_mini_network_matches_hand_summed_arithmetic",)),
    # metrics.csv: the rows a resume keeps, the column-row refusal and the
    # start-of-run write that drops an older run's rows
    Mutant("metrics_resume_drops_the_checkpoint_epochs_row", "src/srtg/train.py",
           "int(first) <= epoch", "int(first) < epoch",
           ("tests/test_train.py::test_resume_after_crash_between_row_and_checkpoint",)),
    Mutant("metrics_column_row_refusal_disabled", "src/srtg/train.py",
           'if head and head.rstrip(b"\\r\\n")', 'if False and head.rstrip(b"\\r\\n")',
           ("tests/test_cli.py::test_resume_into_another_networks_metrics_exits_1_and_keeps_them",)),
    Mutant("metrics_start_of_run_write_dropped", "src/srtg/train.py",
           "net)]\n        write_atomic(metrics_path, lines)", "net)]",
           ("tests/test_train.py::test_run_that_writes_no_row_leaves_only_the_column_row",)),
)


def matches(mutant: Mutant) -> int:
    """How often the mutant's replacement matches its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old)


def _pytest(tree: Path, nodes) -> tuple[int, str | None, str | None]:
    """Run the node ids in tree, stopping at the first failure; returns the
    exit code and the first failing node id with its message."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="400")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *nodes],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    lines = run.stdout.strip().splitlines()
    for line in lines:
        found = re.match(r"(?:FAILED|ERROR) (\S+)(?: - (.*))?$", line)
        if found:
            return run.returncode, found[1], found[2]
    return run.returncode, None, lines[-1] if lines else None


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    stale = [m.name for m in chosen if matches(m) != 1]
    if stale:
        print(f"replacements that no longer match once: {stale}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="srtg-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks"))
        nodes = list(dict.fromkeys(n for m in chosen for n in m.nodes))
        code, node, message = _pytest(tree, nodes)
        if code != 0:
            print(f"named tests fail on the unmutated tree: {node} {message}", file=sys.stderr)
            return 2
        survivors = []
        for m in chosen:
            path = tree / m.path
            source = path.read_text()
            path.write_text(source.replace(m.old, m.new))
            started = time.perf_counter()
            try:
                code, node, message = _pytest(tree, m.nodes)
            finally:
                path.write_text(source)
            # pytest exits 1 when a test failed; anything else is an error
            status = {0: "survived", 1: "killed"}.get(code, "error")
            print(json.dumps({"mutant": m.name, "status": status, "by": node,
                              "message": message,
                              "seconds": round(time.perf_counter() - started, 1)}),
                  flush=True)
            if status != "killed":
                survivors.append(m.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
