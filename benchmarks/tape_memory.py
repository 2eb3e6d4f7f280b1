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
The tape's vector-Jacobian products (VJPs) run one at a time, each with its
own `tracemalloc` peak, so the report also names the operator whose VJP sets
the peak (from the VJP's `__qualname__`) and how far that peak rises above
the memory allocated when the VJP started. Set-up (graphs, adjacencies,
parameters) happens before tracing starts. If tracing is already on
(``-X tracemalloc``, ``PYTHONTRACEMALLOC`` or a caller that measures), it is
left running, with its peak reset for the backward figures, and the figures
are taken over it.

Run from the repository root:

    PYTHONPATH=src python -m benchmarks.tape_memory [--nodes 600 2000 3327]
"""

import argparse
import gc
import tracemalloc
from typing import NamedTuple

import numpy as np

from fusegcn.autodiff import backward
from fusegcn.graphs import knn_feature_graph
from fusegcn.heterophily import SynthSpec, generate_synthetic
from fusegcn.model import init_params
from fusegcn.training import TrainConfig, full_objective, make_split

MIB = 2 ** 20
N_FEATURES, N_CLASSES, HIDDEN, SEED = 16, 5, 64, 0


class StepMemory(NamedTuple):
    """One training step's memory, in bytes over the traced memory before it."""

    live: int        # allocated once the forward pass has returned the loss
    peak: int        # highest allocation during backward
    peak_op: str     # the operator whose VJP reached `peak`
    peak_rise: int   # `peak` minus what was allocated when that VJP started


def unit_bytes(n: int) -> int:
    """One float64 n x HIDDEN matrix, the unit the figures are given in."""
    return n * HIDDEN * 8


def _stepped(vjp, log):
    """`vjp` wrapped to append (operator, start, peak) of its own run to `log`."""
    op = vjp.__qualname__.split(".")[0]

    def run(g):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = vjp(g)
        log.append((op, start, tracemalloc.get_traced_memory()[1]))
        return grads

    return run


def step_memory(n: int) -> StepMemory:
    """Forward live set and backward peak of one full-model step on N = `n`."""
    cfg = TrainConfig(hidden_dim=HIDDEN, seed=SEED)
    g = generate_synthetic(SynthSpec(n, N_CLASSES, n_features=N_FEATURES, seed=SEED))
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    objective = full_objective(g, g_f, cfg, make_split(g, cfg).train)
    params = init_params(N_FEATURES, N_CLASSES, HIDDEN, np.random.default_rng(SEED))
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = objective(params)
        live = tracemalloc.get_traced_memory()[0] - base
        tape, log = out.loss.tape, []
        # each wrapper holds the only reference to its VJP, so `backward`
        # frees a VJP's arrays right after its entry runs, as it does unwrapped
        tape._entries[:] = [(_stepped(vjp, log), slots, out_slot)
                            for vjp, slots, out_slot in tape._entries]
        backward(tape, out.loss)
    finally:
        if started:
            tracemalloc.stop()
    op, start, peak = max(log, key=lambda entry: entry[2])
    return StepMemory(live, peak - base, op, peak - start)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, nargs="+", default=[600, 2000, 3327])
    args = ap.parse_args()

    print(f"{'N':>6s} {'forward MiB':>12s} {'units':>7s} {'backward MiB':>13s} {'units':>7s}"
          f"  peak in (units above its start)")
    for n in args.nodes:
        m = step_memory(n)
        unit = unit_bytes(n)
        print(f"{n:>6d} {m.live / MIB:>12.1f} {m.live / unit:>7.1f} "
              f"{m.peak / MIB:>13.1f} {m.peak / unit:>7.1f}  "
              f"{m.peak_op} (+{m.peak_rise / unit:.1f})")


if __name__ == "__main__":
    main()
