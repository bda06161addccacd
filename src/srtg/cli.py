"""Command-line entry point.

Commands: gen-data, train, evaluate, count-ops, gate-analyze, grad-check.
Exit codes: 0 success, 1 validation error (bad arguments, config, missing
inputs), 2 runtime failure (divergence, corrupt files, failed checks). Every
command that takes --out persists the effective post-override config and the
seed before doing any work, so a run can be reproduced from its output
directory alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from srtg import checks, config, data, opcount, train as training
from srtg.blocks import Network
from srtg.config import ConfigError
from srtg.data import DatasetFormatError, load_dataset, save_dataset
from srtg.tensor import ShapeError
from srtg.train import (
    CheckpointError,
    SGD,
    TrainingDivergedError,
    apply_checkpoint,
    checkpoint_load,
    evaluate,
)

_VALIDATION_ERRORS = (ConfigError, FileNotFoundError, NotADirectoryError)
_RUNTIME_ERRORS = (
    CheckpointError,
    DatasetFormatError,
    TrainingDivergedError,
    ShapeError,
    ValueError,
    MemoryError,
    OSError,  # an output file that cannot be written; after BrokenPipeError in main
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ensure_out(path, cfg=None):
    """Create the output directory and, given the effective config, write it
    there as effective.cfg."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory {path} is not writable")
    if cfg is not None:
        try:
            data.write_atomic(os.path.join(path, "effective.cfg"),
                              [config.format_config(cfg).encode()])
        except OSError as e:
            raise ConfigError(f"cannot write the effective config: {e}") from e
    return path


def _load_cfg(args, seed_section=None):
    """Read config, apply --set overrides and the --seed shorthand."""
    cfg = config.read_config(args.config)
    config.apply_overrides(cfg, args.set or [])
    if seed_section and args.seed is not None:
        cfg.setdefault(seed_section, {})["seed"] = str(args.seed)
    return cfg


def _emit(payload, out_dir, filename):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_dir is not None:
        data.write_atomic(os.path.join(out_dir, filename), [(text + "\n").encode()])
    # flushed here, so a closed stdout pipe raises inside main, not at exit
    print(text, flush=True)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args):
    cfg = _load_cfg(args, seed_section="synthetic")
    spec = config.synthetic_spec(cfg)
    out = _ensure_out(args.out, cfg)
    train_ds, val_ds = data.generate(spec)
    save_dataset(os.path.join(out, "train.bin"), train_ds)
    save_dataset(os.path.join(out, "val.bin"), val_ds)
    _emit(
        {
            "train": {"path": "train.bin", "clips": len(train_ds)},
            "val": {"path": "val.bin", "clips": len(val_ds)},
            "seed": spec.seed,
            "family": spec.family,
        },
        out,
        "gen_data.json",
    )
    return 0


def _checkpoint_network(state, overrides=()):
    """The network sections embedded in a checkpoint, with `overrides` applied
    and validated as a config file's are, and the NetworkSpec they describe."""
    cfg = config.apply_overrides(dict(state["net_config"]), overrides)
    return cfg, config.network_spec(cfg)


def _check_resumes_this_run(state, path, train_cfg, net_spec, stop_after):
    """A checkpoint of another seed or network restores into equal shapes and
    would train on silently, and one at or past this run's last epoch (the
    smaller of train.epochs and --stop-after) has nothing left to train."""
    _, saved = _checkpoint_network(state)
    if state["seed"] != train_cfg.seed:
        raise ConfigError(f"{path} was written with train.seed {state['seed']}, "
                          f"but this run has train.seed {train_cfg.seed}")
    if state["epoch"] >= min(train_cfg.epochs, stop_after or train_cfg.epochs):
        raise ConfigError(f"{path} is already at epoch {state['epoch']}, "
                          f"but this run has train.epochs {train_cfg.epochs}"
                          + (f" and --stop-after {stop_after}" if stop_after else ""))
    changed = [f.name for f in fields(saved)
               if getattr(saved, f.name) != getattr(net_spec, f.name)]
    if changed:
        raise ConfigError(f"{path} was written for another network: "
                          f"{', '.join(changed)} differ")


def _cmd_train(args):
    cfg = _load_cfg(args, seed_section="train")
    net_spec = config.network_spec(cfg)
    train_cfg = config.train_config(cfg)
    train_path, val_path = config.data_paths(cfg)
    # a refused resume writes nothing, not even effective.cfg in --out
    state = checkpoint_load(args.resume) if args.resume else None
    net = Network(net_spec, seed=train_cfg.seed)
    if state:
        _check_resumes_this_run(state, args.resume, train_cfg, net_spec, args.stop_after)
        training.kept_metrics_rows(
            os.path.join(args.out, "metrics.csv"), state["epoch"], net)
    out = _ensure_out(args.out, cfg)
    train_ds = load_dataset(train_path)
    val_ds = load_dataset(val_path)
    optimizer = SGD(net.named_params(), train_cfg.momentum, train_cfg.weight_decay)
    start_epoch = 0
    if state:
        apply_checkpoint(net, optimizer, state)
        start_epoch = state["epoch"]
    net_sections = {
        s: dict(cfg[s]) for s in cfg if s == "network" or s.startswith("stage")
    }
    _, history = training.train(
        net,
        train_ds,
        val_ds,
        train_cfg,
        metrics_path=os.path.join(out, "metrics.csv"),
        checkpoint_path=os.path.join(out, "checkpoint.bin"),
        start_epoch=start_epoch,
        optimizer=optimizer,
        stop_after=args.stop_after,
        net_config=net_sections,
    )
    final = history[-1] if history else {}
    _emit({"epochs_run": len(history), "final": final, "seed": train_cfg.seed},
          out, "train_result.json")
    return 0


def _net_from_checkpoint(args):
    """Rebuild the network from the sections embedded in the checkpoint, with
    --set applied; returns it with the --out directory (or None) and the
    --data split."""
    state = checkpoint_load(args.checkpoint)
    cfg, spec = _checkpoint_network(state, args.set)
    net = Network(spec, seed=0)
    apply_checkpoint(net, None, state)
    return net, _ensure_out(args.out, cfg) if args.out else None, load_dataset(args.data)


def _cmd_evaluate(args):
    net, out, ds = _net_from_checkpoint(args)
    metrics = evaluate(net, ds)
    _emit({**asdict(metrics), "clips": len(ds)}, out, "eval.json")
    return 0


def _cmd_count_ops(args):
    cfg = _load_cfg(args)
    net_spec = config.network_spec(cfg)
    input_shape = config.parse_shape(args.input)
    out = _ensure_out(args.out, cfg) if args.out else None
    counts = opcount.count_macs(net_spec, input_shape)
    report = opcount.report_dict(counts, input_shape)
    _emit(report, out, "opcount.json")
    return 0


def _cmd_gate_analyze(args):
    net, out, ds = _net_from_checkpoint(args)
    records, log = [], []
    for idx, _, gate_log in training.eval_batches(net, ds, args.batch_size):
        log += gate_log
        for layer, record in gate_log:
            fwd, bwd = record.match_indices()
            records += [{"layer": layer, "clip_id": int(clip), "verdict": verdict.value,
                         "match_indices_fwd": f.tolist(), "match_indices_bwd": b.tolist()}
                        for clip, verdict, f, b in zip(idx, record, fwd, bwd)]
    # one line per record: no records, no lines
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if out:
        data.write_atomic(os.path.join(out, "gates.jsonl"), [lines.encode()])
    else:
        print(lines, end="")
    _emit({"open_rates": training.gate_rates(log), "clips": len(ds)},
          out, "gate_summary.json")
    return 0


def _cmd_grad_check(args):
    errors, raised = checks.run_checks(args.target or None)
    failed = {name for name, err in errors.items() if err > checks.CHECK_TOLERANCES[name]}
    payload = {
        "errors": errors,
        "raised": raised,
        "tolerances": {k: checks.CHECK_TOLERANCES[k] for k in [*errors, *raised]},
        "passed": not failed and not raised,
    }
    out = _ensure_out(args.out) if args.out else None
    _emit(payload, out, "grad_check.json")
    return 0 if payload["passed"] else 2


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser():
    parser = _Parser(prog="srtg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="config override (repeatable)")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    common(p)
    p.add_argument("--seed", type=int, default=None, help="sets synthetic.seed")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--stop-after", type=_positive_int, default=None,
                   help="halt after this epoch (simulated interruption)")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="sets train.seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    common(p, out_required=False)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("count-ops", help="analytic MAC/GFLOP report for a spec")
    p.add_argument("--net", dest="config", required=True, help="network config")
    p.add_argument("--input", required=True, metavar="CxTxHxW")
    common(p, out_required=False)
    p.set_defaults(func=_cmd_count_ops)

    p = sub.add_parser("gate-analyze", help="dump per-clip gate decisions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch-size", type=_positive_int, default=16)
    common(p, out_required=False)
    p.set_defaults(func=_cmd_gate_analyze)

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.add_argument("--target", action="append",
                   choices=sorted(checks.CHECK_TOLERANCES),
                   help="check to run (repeatable; default all)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); point it at devnull
        # so the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("runtime error: stdout was closed before the output was written",
              file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
