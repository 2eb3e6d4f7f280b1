"""Training-step memory of the three-channel model on its tape.

Builds one full-model objective on a synthetic SBM graph (16 features, 5
classes, hidden width h = 64, seed 0) and measures, with `tracemalloc`, two
figures of one training step:

- the forward live set: memory still allocated once the objective has
  returned the loss, i.e. everything the tape keeps for backward plus the
  nodes the caller holds;
- the backward peak: the highest allocation during `backward`, over the same
  starting point.

Both are printed in MiB and in units of N * h * 8 bytes (one float64 N x h
matrix), which makes sizes comparable: the counts stay near constant in N.
Set-up (graphs, adjacencies, parameters) happens before tracing starts. If
tracing is already on (``-X tracemalloc``, ``PYTHONTRACEMALLOC`` or a caller
that measures), it is left running, with its peak reset for the backward
figure, and the figures are taken over it.

Run from the repository root:

    PYTHONPATH=src python -m benchmarks.tape_memory [--nodes 600 2000 3327]
"""

import argparse
import gc
import tracemalloc

import numpy as np

from fusegcn.autodiff import backward
from fusegcn.graphs import knn_feature_graph
from fusegcn.heterophily import SynthSpec, generate_synthetic
from fusegcn.model import init_params
from fusegcn.training import TrainConfig, full_objective, make_split

MIB = 2 ** 20
N_FEATURES, N_CLASSES, HIDDEN, SEED = 16, 5, 64, 0


def unit_bytes(n: int) -> int:
    """One float64 n x HIDDEN matrix, the unit the figures are given in."""
    return n * HIDDEN * 8


def step_memory(n: int) -> tuple[int, int]:
    """(forward live set, backward peak) in bytes for one full-model step."""
    cfg = TrainConfig(hidden_dim=HIDDEN, seed=SEED)
    g = generate_synthetic(SynthSpec(n, N_CLASSES, n_features=N_FEATURES, seed=SEED))
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    objective = full_objective(g, g_f, cfg, make_split(g, cfg, SEED).train)
    params = init_params(N_FEATURES, N_CLASSES, HIDDEN, np.random.default_rng(SEED))
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = objective(params)
        live = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(out.loss.tape, out.loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return live, peak


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, nargs="+", default=[600, 2000, 3327])
    args = ap.parse_args()

    print(f"{'N':>6s} {'forward MiB':>12s} {'units':>7s} {'backward MiB':>13s} {'units':>7s}")
    for n in args.nodes:
        live, peak = step_memory(n)
        unit = unit_bytes(n)
        print(f"{n:>6d} {live / MIB:>12.1f} {live / unit:>7.1f} "
              f"{peak / MIB:>13.1f} {peak / unit:>7.1f}")


if __name__ == "__main__":
    main()
