"""Passes of one workload in their own process, started by `perfbench/run.py`.

    python3 perfbench/worker.py --workload hom400 --seed 0 [--first] [--traced]
        [--warmup] [--seconds S]

Prints one JSON object as the last line of standard output: the passes'
metric samples, operation and check counts, and notes. The program is
imported from `src/` of the current directory (the launcher sets
PYTHONPATH). Exit code 3 means the program could not be imported at all.

The worker writes the seeded dataset, then runs passes: an untimed warm-up
pass with --warmup, then timed passes for --seconds (one when it is 0). A
pass times the set-ups and runs the workload's program calls once. After the
last pass the worker checks every loss trace. The first worker of a run
also checks the kNN graph, runs the model gradient check and reports the
environment. With --traced the one timed pass runs under `spans.Tracer` and
the result also carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as W  # noqa: E402

WORKDIR = Path(".perfbench_work")     # generated datasets, inside the checkout

MEMORY_NOTE = (
    "Each epoch's `Tape` is tied to its `TensorNode`s in a reference cycle, so only "
    "the cyclic GC frees it. At seed, RSS grows about 0.78 GB per epoch: 0.26 GB "
    "before epoch 1 and 5.0 GB before epoch 7. A 10-epoch run was OOM-killed on "
    "this 7 GB machine.")


class Ledger:
    """Operations attempted and failed; a failure never stops the ledger."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:
            self.failed += 1
            self.notes.append(f"{what} raised {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what} {detail}".rstrip())
        return ok

    def lost(self, what, n):
        """`n` operations that could not run because an earlier one failed."""
        if n > 0:
            self.attempted += n
            self.failed += n
            self.notes.append(f"{n} {what} not run")


class CallCapture:
    """Times and keeps the results of every call through one module binding."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.orig = getattr(module, attr, None)
        self.calls = []         # (elapsed, result)

    def __enter__(self):
        if self.orig is not None:
            orig, calls = self.orig, self.calls

            def capture(*args, **kwargs):
                t0 = time.perf_counter()
                result = orig(*args, **kwargs)
                calls.append((time.perf_counter() - t0, result))
                return result

            setattr(self.module, self.attr, capture)
        return self

    def __exit__(self, *exc):
        if self.orig is not None:
            setattr(self.module, self.attr, self.orig)


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment():
    import gc
    import importlib.util

    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    total_kb = None
    try:
        with open("/proc/meminfo") as f:
            total_kb = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "FUSEGCN_DISABLE_NUMBA": os.environ.get("FUSEGCN_DISABLE_NUMBA"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "total_ram_gb": round(total_kb / 2**20, 2) if total_kb else None,
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "cite3k_memory_note": MEMORY_NOTE,
    }


def run_workload(workload, seed, *, first=False, traced=False, scale=W.FULL,
                 tracer_targets=None, record=False, warmup=False, seconds=0.0):
    """Passes of a workload in this process; returns their samples and counts.

    With `warmup` an untimed pass comes first; its samples are dropped except
    `peak_rss_mb`, which is always the process's peak after its first pass.
    Timed passes then repeat while the next one, at the mean pass time so
    far, would end within `seconds` (at least `scale.min_timed` of them when
    `seconds` > 0; one pass when it is 0). A traced worker times one pass,
    under the tracer.

    `first` adds the checks a run needs once: the kNN graph against the
    brute-force oracle and the model gradient check. Every check runs after
    the measured part, so the harness's own objects (the reference table, the
    oracle's arrays) do not change the program's memory or GC behaviour.
    """
    from fusegcn import autodiff, dataio, graphs, heterophily, losses, training

    cfg = W.train_config(workload, seed, scale)
    ledger = Ledger()
    data_dir = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    tracer = None
    if traced:
        from spans import SPAN_TARGETS, Tracer
        tracer = Tracer(targets=dict(tracer_targets or SPAN_TARGETS))
    modules = (dataio, graphs, heterophily, training)
    samples = defaultdict(list)
    traces = []
    peak_rss = []
    try:
        W.write_dataset(workload, seed, data_dir, scale)
        if warmup:
            _, pass_traces, g, gf = _one_pass(workload, seed, cfg, scale, ledger, data_dir,
                                              *modules)
            traces += pass_traces
            peak_rss.append(_peak_rss_mb())
        t_start = time.perf_counter()
        n_timed, min_timed = 0, scale.min_timed[workload]
        while True:
            if tracer:
                tracer.install()
            try:
                pass_samples, pass_traces, g, gf = _one_pass(workload, seed, cfg, scale, ledger,
                                                             data_dir, *modules)
            finally:
                if tracer:
                    tracer.uninstall()
            for name, values in pass_samples.items():
                samples[name] += values
            traces += pass_traces
            if not peak_rss:
                peak_rss.append(_peak_rss_mb())
            n_timed += 1
            # stop before a pass that would end after `seconds`, judged by the mean pass
            next_end = (time.perf_counter() - t_start) * (n_timed + 1) / n_timed
            if traced or seconds <= 0 or (n_timed >= min_timed and next_end > seconds):
                break
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    samples["peak_rss_mb"] = peak_rss
    calls_per_pass = W.CALLS_PER_PASS[workload] or scale.sweep_levels

    result = {"samples": dict(samples), "info": {}, "passes": n_timed + warmup,
              "recorded": [checks.loss_rows(tr) for tr in traces if tr is not None]}
    if first:
        if gf is None:
            ledger.lost("knn check", 1)
        else:
            ok, deviations, detail = checks.knn_check(g.features, cfg.knn_k, gf.edges)
            ledger.check("knn matches brute-force cosine kNN", ok, detail)
            result["info"]["knn_tie_deviations"] = deviations
    # traces are recorded at the full scale only
    reference = None if record or scale is not W.FULL else \
        checks.load_references().get(workload, {}).get(str(seed))
    if reference is None and scale is W.FULL and not record:
        ledger.check(f"a loss trace is recorded for seed {seed}", False)
    n_checks = 2 + (reference is not None)
    for k, tr in enumerate(traces):
        i = k % calls_per_pass
        if tr is None:
            ledger.lost(f"loss checks of failed call {i}", n_checks)
            continue
        r = checks.loss_rows(tr)
        ledger.check(f"finite losses (call {i})", checks.finite_check(r))
        ledger.check(f"epochs run == {cfg.epochs} (call {i})", len(r) == cfg.epochs,
                     f"got {len(r)}")
        if reference is not None:
            ok, detail = checks.trace_check(r, reference[i]) if i < len(reference) \
                else (False, "no recorded trace")
            ledger.check(f"loss trace matches reference (call {i})", ok, detail)
    if first:
        rep = ledger.op("model_gradient_check", training.model_gradient_check,
                        8, 3, 2, 4, 1)
        if rep is None:
            ledger.lost("gradient check verdict", 1)
        else:
            ledger.check("model_gradient_check", rep.passed,
                         f"max rel error {rep.max_rel_error:.2e}")
    if traced:
        from layers import layer_metrics
        metrics, layer_samples = layer_metrics(tracer, gf, autodiff, losses)
        result.update(layers=metrics, layer_samples=layer_samples, absent=tracer.absent)
    result.update(attempted=ledger.attempted, failed=ledger.failed, notes=ledger.notes)
    return result


def _one_pass(workload, seed, cfg, scale, ledger, data_dir,
              dataio, graphs, heterophily, training):
    """Set-ups and program calls; returns (samples, traces, graph, feature graph)."""
    samples = {name: [] for name in ("setup_s", "train_epochs_per_s", "pass_s", "test_acc",
                                     "baseline_epochs_per_s")}
    g = gf = sweep_plan = None
    for _ in range(scale.setup_reps[workload]):
        t0 = time.perf_counter()
        g = ledger.op("load_dataset", dataio.load_dataset, data_dir)
        gf = g and ledger.op("knn_feature_graph", graphs.knn_feature_graph,
                             g.features, cfg.knn_k)
        if workload == "sweep400" and gf is not None:
            sweep_plan = ledger.op("make_sweep_plan", heterophily.make_sweep_plan,
                                   g, seed, scale.sweep_levels, scale.sweep_max_level)
        samples["setup_s"].append(time.perf_counter() - t0)

    n_calls = W.CALLS_PER_PASS[workload] or scale.sweep_levels
    traces = [None] * n_calls
    if gf is None or (workload == "sweep400" and sweep_plan is None):
        ledger.lost("program calls", n_calls)
    elif workload == "sweep400":
        t0 = time.perf_counter()
        with CallCapture(heterophily, "train") as cap:
            try:
                rows = heterophily.heterophily_sweep(g, gf, sweep_plan, cfg)
            except Exception as e:
                rows = None
                ledger.notes.append(f"heterophily_sweep raised {type(e).__name__}: {e}")
                traceback.print_exc(file=sys.stderr)
        samples["pass_s"].append(time.perf_counter() - t0)
        # one operation per sweep level; a level that did not finish failed
        done = min(n_calls, len(cap.calls)) - (rows is None and len(cap.calls) >= n_calls)
        ledger.attempted += n_calls
        ledger.failed += n_calls - done
        traces[:done] = [tr for _, (_, tr) in cap.calls[:done]]
        train_s = sum(el for el, _ in cap.calls)
        if rows is not None and train_s > 0:
            samples["train_epochs_per_s"].append(
                sum(len(tr.records) for _, (_, tr) in cap.calls) / train_s)
            samples["test_acc"].append(statistics.fmean(r[1] for r in rows))
    else:
        t0 = time.perf_counter()
        out = ledger.op("train", training.train, g, gf, cfg)
        elapsed = time.perf_counter() - t0
        if out is not None:
            traces[0] = out[1]
            samples["train_epochs_per_s"].append(len(out[1].records) / elapsed)
            samples["test_acc"].append(out[1].final_accuracy)
        if workload == "hom400":
            t1 = time.perf_counter()
            base = ledger.op("train_baseline", training.train_baseline, g, cfg)
            if base is not None:
                traces[1] = base[1]
                samples["baseline_epochs_per_s"].append(
                    len(base[1].records) / (time.perf_counter() - t1))
        samples["pass_s"].append(time.perf_counter() - t0)
    return samples, traces, g, gf


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", action="store_true",
                    help="first worker of a run: kNN and gradient checks, environment")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--warmup", action="store_true", help="an untimed pass first")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="repeat timed passes for this long (0: one pass)")
    ap.add_argument("--record", action="store_true", help="return the loss traces")
    ap.add_argument("--scale", choices=sorted(W.SCALES), default="full")
    args = ap.parse_args(argv)
    try:
        import fusegcn  # noqa: F401
    except ImportError as e:
        print(f"perfbench worker: cannot import the program: {e}", file=sys.stderr)
        return 3
    result = run_workload(args.workload, args.seed, first=args.first, traced=args.traced,
                          scale=W.SCALES[args.scale], record=args.record,
                          warmup=args.warmup, seconds=args.seconds)
    if not args.record:
        result.pop("recorded")
    if args.first:
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
