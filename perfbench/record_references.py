"""Record the per-epoch loss traces that the benchmark's correctness check compares against.

    python3 perfbench/record_references.py

Run from the root of a checkout. Each (workload, seed) trains once in its own
worker process, exactly as a benchmark run does, and the losses of every
program call of that pass are written to `perfbench/reference_traces.json`.
Re-record only when the benchmark's inputs or training settings change; a
change to the program must match the recorded traces, not replace them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from run import worker_env  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=W.INSTANCES, help="record seeds 0 .. N-1")
    ap.add_argument("--workloads", nargs="*", default=list(W.WORKLOADS))
    args = ap.parse_args(argv)
    table = checks.load_references()
    for workload in args.workloads:
        for seed in range(args.seeds):
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--record"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['notes']}")
            table.setdefault(workload, {})[str(seed)] = [
                [[float(f"{v:.12g}") for v in row] for row in call]
                for call in result["recorded"]]
            print(f"recorded {workload} seed {seed}: {len(result['recorded'])} calls", flush=True)
        doc = {"rtol": checks.TRACE_RTOL, "atol": checks.TRACE_ATOL,
               "columns": ["loss_total", "loss_cl", "loss_c", "loss_d"],
               "traces": table}
        checks.REFERENCE_FILE.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
