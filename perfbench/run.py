"""srtg benchmark: train/eval throughput per workload, or a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy_gated --seed 1 --seconds 35 --trace 0

`--workload all` measures every workload in turn. Each workload runs in its
own worker process with OpenBLAS/OMP/MKL pinned to one thread. With --trace 0
a few set-up-only workers run too, so set-up time is a median of whole
process starts. Every metric is printed with its unit, followed by a
steadiness record, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `all`, its metric names
are prefixed by the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
RUN_TIMEOUT_S = 170.0
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "train_clips_per_ref_s": "clips/ref-s",
    "eval_clips_per_ref_s": "clips/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, workload, root, workdir, tag, deadline, setup_only=False):
    """Run worker.py once; returns its result dict."""
    out = os.path.join(workdir, f"{tag}.json")
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the worker started")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        fail(f"worker {tag} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"worker {tag} exited with code {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def measure(args, workload, root):
    """Run one workload; prints its metric lines and returns
    (metrics, attempted, failed)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(root, ".perfbench", f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def probe_setups(count):
        """Set-up-only workers; their set-up times join the main worker's."""
        for _ in range(0 if args.trace else count):
            probe_dir = os.path.join(workdir, "probe")
            os.makedirs(probe_dir)
            probe = worker(args, workload, root, probe_dir, "setup", deadline, True)
            setups.append(probe["setup_s"])
            setup_walls.append(probe["setup_wall_s"])
            shutil.rmtree(probe_dir)

    load_start = os.getloadavg()
    setups, setup_walls = [], []
    # half the probes before and half after the main worker, so the median
    # spans the run rather than one moment of the machine's load
    probe_setups(SETUP_PROBES // 2)
    result = worker(args, workload, root, workdir, "worker", deadline)
    probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    load_end = os.getloadavg()
    for name in ("train.bin", "val.bin", "checkpoint.bin"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):  # no checkpoint if training diverged at once
            os.remove(path)

    attempted, failed = result["attempted"], result["failed"]
    env = result["environment"]
    steadiness = {
        **env,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "load_exceeded_nproc": max(load_start[0], load_end[0]) > env["nproc"],
        "reference_kernel_ms": result["reference_kernel_ms"],
    }
    if args.trace:
        metrics = result["per_layer"]
    else:
        setups.append(result["setup_s"])
        setup_walls.append(result["setup_wall_s"])
        values = {
            "train_clips_per_ref_s": result["train_clips_per_ref_s"],
            "eval_clips_per_ref_s": result["eval_clips_per_ref_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {"steadiness": steadiness, "metrics": metrics, "setup_ref_samples_s": setups,
              "setup_wall_samples_s": setup_walls,
              **{k: v for k, v in result.items() if k not in ("per_layer", "environment")}}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name in ("train_clips_per_s", "eval_clips_per_s"):
            print(f"{workload} {name} {result[name]:.6g} clips/s (wall clock)")
        print(f"{workload} setup_wall_s {statistics.median(setup_walls):.6g} s (wall clock)")
    print(f"{workload} failed_share {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    if result["failed_checks"]:
        print(f"{workload} failed checks: {', '.join(result['failed_checks'])}")
    print(f"{workload} steadiness " + json.dumps(steadiness, sort_keys=True))
    return metrics, attempted, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/srtg/__init__.py", "configs/toy.cfg", "configs/toy_data.cfg"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an srtg source checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = measure(args, name, root)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
