"""fusegcn benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {hom400,cite3k,sweep400} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
The inputs of seed s are instance s mod `workloads.INSTANCES`, whose loss
traces are recorded, so every run is checked against a recorded trace.
Passes run in worker processes (`perfbench/worker.py`), one at a time, each
with one BLAS thread. On hom400 and sweep400 a run is one fresh worker: an
untimed warm-up pass, then timed passes for --seconds. On cite3k every pass
is a fresh worker, and workers start while the next one, at the mean worker
time so far, would end within --seconds. A run makes at least
`workloads.Scale.min_timed` timed passes. Each end-to-end metric is the
median over the run's samples.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same untraced
workers, then one traced worker in the same environment, and prints the
per-layer metrics plus `trace.overhead`, the ratio of traced to untraced
`train_epochs_per_s`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it report the run
environment, every metric with its unit and sample count, error_rate, the
info values, absent spans and failed checks. Exit code 0 means a result was
printed; 2 means the program is missing or cannot be imported (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

# name -> (unit, better); every workload reports all of them
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "train_epochs_per_s": ("1/s", "higher"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

RUN_BUDGET_S = 170          # every worker of one invocation ends within this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    """Environment shared by every worker of a run: src/ on the path, one BLAS thread.

    One BLAS thread, which is within nproc: the program is mostly
    single-threaded Python and numpy, and on a small shared host a second,
    spinning BLAS thread competes with it for the other core.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = "1"
    return env


class ProgramMissing(Exception):
    pass


def run_worker(args, seed, deadline, extra):
    """Run one worker; its result dict, or a failure dict if it died or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(seed), "--scale", args.scale] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"died": f"worker {' '.join(extra) or 'untraced'} timed out"}
    if proc.returncode == 3:
        raise ProgramMissing("the program cannot be imported from src/")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"died": f"worker {' '.join(extra) or 'untraced'} exited with {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"died": "worker printed no result"}


def counts(result, workload, scale, first, passes=1):
    """(attempted, failed); a worker that died fails every operation of its planned passes."""
    if "died" in result:
        n = W.planned_ops(workload, scale, scale is W.FULL, first, passes)
        return n, n
    return result["attempted"], result["failed"]


def pooled(results, name):
    return [v for r in results for v in r.get("samples", {}).get(name, [])]


def median(values):
    return float(statistics.median(values)) if values else None


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description="fusegcn benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(W.SCALES), default="full",
                    help="'tiny' is for the harness self-test only")
    args = ap.parse_args(argv)
    scale = W.SCALES[args.scale]

    if not Path("src/fusegcn/__init__.py").is_file():
        print("perfbench: src/fusegcn not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    instance = args.seed % W.INSTANCES
    runs = []           # (label, first, planned passes, result)
    in_process = args.workload in W.IN_PROCESS
    try:
        if in_process:
            runs.append(("worker", True, 1 + scale.min_timed[args.workload],
                         run_worker(args, instance, deadline,
                                    ["--first", "--warmup", "--seconds", str(args.seconds)])))
        else:
            # start another worker while it would end within --seconds at the mean so far
            t_start = time.monotonic()
            while len(runs) < scale.min_timed[args.workload] or (
                    (time.monotonic() - t_start) * (len(runs) + 1) / len(runs) <= args.seconds):
                first = not runs
                runs.append((f"worker {len(runs)}", first, 1,
                             run_worker(args, instance, deadline, ["--first"] if first else [])))
        untraced = [res for _, _, _, res in runs]
        traced = {}
        if args.trace:
            warm = ["--warmup"] if in_process else []
            traced = run_worker(args, instance, deadline, ["--traced"] + warm)
            runs.append(("traced", False, 1 + in_process, traced))
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for label, first, passes, res in runs:
        a, f = counts(res, args.workload, scale, first, passes)
        attempted, failed = attempted + a, failed + f
        for note in [res["died"]] if "died" in res else res.get("notes", []):
            print(f"perfbench: {label}: {note}")
    if "env" in untraced[0]:
        print("perfbench env: " + json.dumps(untraced[0]["env"]))

    e2e = {name: median(pooled(untraced, name)) for name in E2E_METRICS}
    info = {name: median(pooled(untraced, name))
            for name in ("test_acc", "baseline_epochs_per_s")}
    info.update(untraced[0].get("info", {}))
    if args.workload == "sweep400":
        info["sweep_s"] = e2e["pass_s"]
    if args.trace:
        table, metrics = LAYER_METRICS, dict(traced.get("layers", {}))
        rate_t = median(pooled([traced], "train_epochs_per_s"))
        rate_u = e2e["train_epochs_per_s"]
        metrics["trace.overhead"] = rate_t / rate_u if rate_u and rate_t else None
        samples, absent = traced.get("layer_samples", {}), traced.get("absent", [])
    else:
        table, metrics = E2E_METRICS, e2e
        samples = {name: len(pooled(untraced, name)) for name in E2E_METRICS}
    n_passes = sum(res.get("passes", 0) for res in untraced)
    print(f"perfbench: workload {args.workload} seed {args.seed} (input instance {instance}): "
          f"{len(untraced)} workers, "
          f"{n_passes} passes, error_rate {failed}/{attempted}")
    for name, (unit, better) in table.items():
        n = samples.get(name)
        print(f"perfbench:   {name:34s} {fmt(metrics.get(name)):>12s} {unit:8s} "
              f"({better} is better{'' if n is None else f', n={n}'})")
    for key, value in sorted(info.items()):
        if value is not None:
            print(f"perfbench:   info {key} = {value}")
    if args.trace:
        print("perfbench: n/a = span absent from the program or never entered on this "
              "workload; reported as 0. Absent spans: " + (", ".join(absent) or "none"))

    out = {name: {"value": metrics[name] if metrics.get(name) is not None else 0.0,
                  "unit": unit}
           for name, (unit, _) in table.items()
           if metrics.get(name) is not None or args.trace}
    correct = failed == 0 and all("died" not in res for *_, res in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
