"""Per-layer metrics from the spans of one traced run.

Epoch-level metrics are summed within each full-model training epoch (the
interval between two `Tape()` constructions inside `training.train`, the
final evaluation pass excluded) and reported as the median over the run's
epochs. Set-up and per-call metrics are medians over calls. Model stages
report self time: their duration minus the `autodiff.spmm` spans inside them,
which `autodiff.spmm_s` reports. `model.forward_s` is the whole forward pass.

Counts marked computed below are derived from shapes, not measured:
- `autodiff.spmm_flops`: 2 * nnz * h per forward call;
- `autodiff.spmm_bytes`: CSR arrays (16 B per stored entry + 8 B per row
  pointer) plus one read of the dense input and one write of the output;
- `autodiff.grad_bytes`: bytes of the grad buffers the tape allocates;
- `losses.closeness_flops`: 8 * N^2 * h, both Gram products forward and
  backward.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

# name -> (unit, better)
LAYER_METRICS = {
    "dataio.load_s": ("s", "lower"),
    "graphs.knn_s": ("s", "lower"),
    "graphs.norm_adj_s": ("s", "lower"),
    "graphs.topo_nnz": ("count", "lower"),
    "graphs.feat_nnz": ("count", "lower"),
    "autodiff.spmm_s": ("s", "lower"),
    "autodiff.spmm_fwd_bwd_s": ("s", "lower"),
    "autodiff.spmm_calls": ("count", "lower"),
    "autodiff.spmm_flops": ("flop", "lower"),
    "autodiff.spmm_bytes": ("B", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.tape_nodes": ("count", "lower"),
    "autodiff.grad_bytes": ("B", "lower"),
    "autodiff.rss_growth_mb_per_epoch": ("MB", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.input_mlp_s": ("s", "lower"),
    "model.encoder_topo_s": ("s", "lower"),
    "model.encoder_feat_s": ("s", "lower"),
    "model.common_encoder_s": ("s", "lower"),
    "model.attention_s": ("s", "lower"),
    "model.head_s": ("s", "lower"),
    "losses.closeness_s": ("s", "lower"),
    "losses.closeness_fwd_bwd_s": ("s", "lower"),
    "losses.closeness_flops": ("flop", "lower"),
    "losses.disparity_s": ("s", "lower"),
    "losses.classification_s": ("s", "lower"),
    "training.adam_s": ("s", "lower"),
    "training.evaluate_s": ("s", "lower"),
    "training.epochs_run": ("count", "higher"),
    "heterophily.inject_s": ("s", "lower"),
    "heterophily.inject_edges_added": ("count", "lower"),
    "trace.epochs_sampled": ("count", "higher"),
    "trace.overhead": ("ratio", "higher"),
}

# epoch-level metric -> span it sums, and whether spmm time inside is subtracted
EPOCH_SPANS = {
    "autodiff.spmm_s": ("autodiff.spmm", False),
    "autodiff.backward_s": ("autodiff.backward", False),
    "model.forward_s": ("model.forward", False),
    "model.input_mlp_s": ("model.input_mlp", True),
    "model.common_encoder_s": ("model.common_encoder", True),
    "model.attention_s": ("model.attention", True),
    "model.head_s": ("model.head", True),
    "losses.closeness_s": ("losses.closeness", False),
    "losses.disparity_s": ("losses.disparity", False),
    "losses.classification_s": ("losses.classification", False),
    "training.adam_s": ("training.adam", False),
    "training.evaluate_s": ("training.evaluate", False),
}

REPLAY_REPEATS = 3


def _median(values):
    return float(statistics.median(values)) if values else None


def _timed_median(fn, repeats=REPLAY_REPEATS):
    """Median wall time of `fn()`, which returns the tape it built.

    The tape's attributes are cleared after each call: the tape and its nodes
    form a reference cycle, and dropping the cycle here keeps the replays
    from adding garbage to the memory the run measures.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        tape = fn()
        times.append(time.perf_counter() - t0)
        vars(tape).clear()
    return statistics.median(times)


def layer_metrics(tracer, feature_graph, ad_module, losses_module):
    """(metrics {name: value or None}, samples {name: n}) for one traced run.

    None marks a metric whose span is absent or was never entered. Call after
    `tracer.uninstall()`: the replays use the program's unwrapped functions.
    """
    spans = tracer.spans
    duration = [s.end - s.start for s in spans]
    spmm_inside = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.name == "autodiff.spmm":
            p = s.parent
            while p >= 0:
                spmm_inside[p] += duration[i]
                p = spans[p].parent

    # full-model epochs: every tape of a train span except its last (final evaluation)
    tapes_by_train = defaultdict(list)
    for t_idx, ev in enumerate(tracer.tapes):
        if ev.train_span >= 0 and spans[ev.train_span].name == "training.train":
            tapes_by_train[ev.train_span].append(t_idx)
    epochs = {t for tapes in tapes_by_train.values() for t in tapes[:-1]}

    per_epoch = defaultdict(lambda: defaultdict(float))
    spmm_groups = defaultdict(int)      # (id(p), width) -> calls over sampled epochs
    spmm_args = {}
    encoder_seen = defaultdict(int)
    for i, s in enumerate(spans):
        if s.tape not in epochs:
            continue
        acc = per_epoch[s.tape]
        for metric, (name, minus_spmm) in EPOCH_SPANS.items():
            if s.name == name:
                acc[metric] += duration[i] - (spmm_inside[i] if minus_spmm else 0.0)
        if s.name == "model.encoder" and s.parent >= 0 and spans[s.parent].name == "model.forward":
            which = ("model.encoder_topo_s" if encoder_seen[s.parent] == 0
                     else "model.encoder_feat_s")
            encoder_seen[s.parent] += 1
            acc[which] += duration[i] - spmm_inside[i]
        if s.name == "autodiff.spmm":
            acc["autodiff.spmm_calls"] += 1
            if s.info is not None:
                p, shape = s.info
                nnz, (rows, width) = int(p.nnz), shape
                acc["autodiff.spmm_flops"] += 2 * nnz * width
                acc["autodiff.spmm_bytes"] += 16 * nnz + 8 * (rows + 1) + 16 * rows * width
                spmm_groups[(id(p), width)] += 1
                spmm_args[(id(p), width)] = (p, shape)
    for t in epochs:
        ev = tracer.tapes[t]
        per_epoch[t]["autodiff.tape_nodes"] += ev.nodes
        per_epoch[t]["autodiff.grad_bytes"] += ev.grad_bytes
        nxt = tracer.tapes[t + 1]
        if ev.rss_kb is not None and nxt.rss_kb is not None:
            per_epoch[t]["autodiff.rss_growth_mb_per_epoch"] += (nxt.rss_kb - ev.rss_kb) / 1024

    out, samples = {}, {}
    epoch_names = (list(EPOCH_SPANS) + ["model.encoder_topo_s", "model.encoder_feat_s",
                                        "autodiff.spmm_calls", "autodiff.spmm_flops",
                                        "autodiff.spmm_bytes", "autodiff.tape_nodes",
                                        "autodiff.grad_bytes",
                                        "autodiff.rss_growth_mb_per_epoch"])
    for name in epoch_names:
        vals = [per_epoch[t][name] for t in sorted(epochs) if name in per_epoch[t]]
        out[name], samples[name] = _median(vals), len(vals)

    def calls(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    for metric, name in (("dataio.load_s", "dataio.load"), ("graphs.knn_s", "graphs.knn")):
        vals = [duration[i] for i in calls(name)]
        out[metric], samples[metric] = _median(vals), len(vals)

    # per full-model train call: adjacency builds and their sizes
    trains = calls("training.train")
    norm_time, topo_nnz, feat_nnz = [], [], []
    for tr in trains:
        inner = [i for i in calls("graphs.norm_adj") if spans[i].parent == tr]
        if inner:
            norm_time.append(sum(duration[i] for i in inner))
        for i in inner:
            if spans[i].info is not None:
                graph, nnz = spans[i].info
                (feat_nnz if graph is feature_graph else topo_nnz).append(nnz)
    out["graphs.norm_adj_s"], samples["graphs.norm_adj_s"] = _median(norm_time), len(norm_time)
    out["graphs.topo_nnz"], samples["graphs.topo_nnz"] = _median(topo_nnz), len(topo_nnz)
    out["graphs.feat_nnz"], samples["graphs.feat_nnz"] = _median(feat_nnz), len(feat_nnz)
    epochs_run = [len(tapes_by_train[tr]) - 1 for tr in trains if tapes_by_train[tr]]
    out["training.epochs_run"] = _median(epochs_run)
    samples["training.epochs_run"] = len(epochs_run)
    out["trace.epochs_sampled"], samples["trace.epochs_sampled"] = len(epochs), len(epochs)

    # injection: total over the pass's sweep, since each level injects once
    inject = calls("heterophily.inject")
    if inject:
        out["heterophily.inject_s"] = sum(duration[i] for i in inject)
        added = [spans[i].info for i in inject if spans[i].info is not None]
        out["heterophily.inject_edges_added"] = sum(added) if added else None
        samples["heterophily.inject_s"] = samples["heterophily.inject_edges_added"] = len(inject)

    # isolated forward + backward replays on the run's real operands
    out["autodiff.spmm_fwd_bwd_s"] = None
    if spmm_groups and epochs:
        total = 0.0
        rng = np.random.default_rng(0)
        for key, n_calls in spmm_groups.items():
            p, shape = spmm_args[key]
            h = rng.standard_normal(shape)

            def replay():
                tape = ad_module.Tape()
                node = tape.tensor(h)
                out_node = ad_module.spmm(p, node)
                ones_r = tape.tensor(np.ones((1, shape[0])))
                ones_c = tape.tensor(np.ones((shape[1], 1)))
                total_node = ad_module.matmul(ad_module.matmul(ones_r, out_node), ones_c)
                ad_module.backward(tape, total_node)
                return tape

            try:
                total += _timed_median(replay) * n_calls / len(epochs)
            except Exception:       # an operator whose interface changed: report as absent
                total = None
                break
        out["autodiff.spmm_fwd_bwd_s"] = total
    samples["autodiff.spmm_fwd_bwd_s"] = REPLAY_REPEATS

    closeness = [spans[i].info for i in calls("losses.closeness")
                 if spans[i].tape in epochs and spans[i].info is not None]
    out["losses.closeness_fwd_bwd_s"] = out["losses.closeness_flops"] = None
    if closeness:
        z_ct, z_cf, rest, kwargs = closeness[-1]

        def replay():
            tape = ad_module.Tape()
            loss = losses_module.closeness_loss(tape.tensor(z_ct), tape.tensor(z_cf),
                                                *rest, **kwargs)
            ad_module.backward(tape, loss)
            return tape

        try:
            out["losses.closeness_fwd_bwd_s"] = _timed_median(replay)
        except Exception:           # an operator whose interface changed: report as absent
            pass
        n, h = z_ct.shape
        out["losses.closeness_flops"] = 8 * n * n * h
    samples["losses.closeness_fwd_bwd_s"] = REPLAY_REPEATS
    samples["losses.closeness_flops"] = len(closeness)
    return out, samples
