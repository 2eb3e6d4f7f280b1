"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
1. every workload prints, through the real command, each metric that
   BENCHMARK.json names, with its unit, for --trace 0 and --trace 1;
2. a wrapped name the program lacks is reported absent, not as a failure;
3. error_rate counts an injected failure: a program call that raises, a
   kNN graph that is wrong, and a worker that dies.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), "src"]

import workloads as W  # noqa: E402
from run import counts  # noqa: E402
from spans import SPAN_TARGETS  # noqa: E402
from worker import run_workload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FAILURES = []


def check(what, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {what}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        FAILURES.append(what)


def command_prints_every_metric():
    for workload in W.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                stdout=subprocess.PIPE, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(f"{workload} --trace {trace}: exit 0, exact result keys",
                  proc.returncode == 0 and set(result) == {"correct", "attempted", "failed",
                                                           "metrics"})
            check(f"{workload} --trace {trace}: correct, 0 of {result.get('attempted')} failed",
                  result.get("correct") is True and result.get("failed") == 0)
            check(f"{workload} --trace {trace}: every {section} metric with its unit",
                  got == want, f"missing {set(want) - set(got)}, extra {set(got) - set(want)}")
            printed = "\n".join(lines[:-1])
            check(f"{workload} --trace {trace}: metrics and error_rate on the report lines",
                  "error_rate" in printed and all(name in printed for name in want))


def absent_spans_tolerated():
    targets = dict(SPAN_TARGETS)
    targets["model.input_mlp"] = ("fusegcn.model", "input_mlp_renamed", None)
    targets["kernels.gone"] = ("fusegcn.no_such_module", "spmm", None)
    res = run_workload("hom400", 1, traced=True, scale=W.TINY, tracer_targets=targets)
    check("missing function and module reported absent",
          {"model.input_mlp", "kernels.gone"} <= set(res["absent"]), str(res["absent"]))
    check("absent span leaves the run correct", res["failed"] == 0, str(res["notes"]))
    check("absent span's metric is None, others measured",
          res["layers"]["model.input_mlp_s"] is None
          and res["layers"]["model.forward_s"] is not None)


def failures_are_counted():
    import fusegcn.graphs
    import fusegcn.training

    clean = run_workload("hom400", 2, first=True, scale=W.TINY)
    check("clean tiny run has no failures", clean["failed"] == 0, str(clean["notes"]))
    planned = W.planned_ops("hom400", W.TINY, False, True)
    check("attempted equals the planned operation count", clean["attempted"] == planned,
          f"{clean['attempted']} vs {planned}")
    warm = run_workload("hom400", 2, first=True, scale=W.TINY, warmup=True, seconds=0.01)
    planned = W.planned_ops("hom400", W.TINY, False, True, warm["passes"])
    check("a warm-up and repeated passes: clean, attempted as planned",
          warm["failed"] == 0 and warm["passes"] == 1 + W.TINY.min_timed["hom400"]
          and warm["attempted"] == planned and len(warm["samples"]["peak_rss_mb"]) == 1,
          f"{warm['failed']}/{warm['attempted']} in {warm['passes']} passes, planned {planned}")

    orig = fusegcn.training.train_baseline

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    fusegcn.training.train_baseline = broken
    try:
        res = run_workload("hom400", 2, first=True, scale=W.TINY)
    finally:
        fusegcn.training.train_baseline = orig
    check("a raising program call counts as failed, base unchanged",
          res["failed"] >= 1 and res["attempted"] == clean["attempted"],
          f"{res['failed']}/{res['attempted']} vs clean {clean['attempted']}")

    orig_knn = fusegcn.graphs.knn_feature_graph

    def wrong_knn(x, k):
        g = orig_knn(x, k)
        return type(g)(g.n_nodes, g.edges[1:], g.features, g.labels)

    fusegcn.graphs.knn_feature_graph = wrong_knn
    try:
        res = run_workload("hom400", 2, first=True, scale=W.TINY)
    finally:
        fusegcn.graphs.knn_feature_graph = orig_knn
    check("a wrong kNN graph counts as one failed check",
          res["failed"] == 1 and res["attempted"] == clean["attempted"], str(res["notes"]))

    n_attempted, n_failed = counts({"died": "killed"}, "hom400", W.TINY, True)
    check("a worker that dies counts every planned operation as failed",
          n_attempted == n_failed > 0)


if __name__ == "__main__":
    command_prints_every_metric()
    absent_spans_tolerated()
    failures_are_counted()
    print(f"selftest: {len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
