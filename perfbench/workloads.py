"""Seeded input generators, training settings and run plans of the workloads.

Every generator is a pure function of its seed and writes a dataset
directory in the repository's TSV format (`meta.tsv`, `nodes.tsv`,
`edges.tsv`, then `features.tsv` or `features.sparse.tsv`). The program under
test only ever sees that directory. The generators deliberately do not call
`fusegcn.generate_synthetic`, so a rewrite of the program's own generator
cannot silently change the benchmark's inputs.

This module imports no part of the program at import time, so the launcher
can plan a run without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("hom400", "cite3k", "sweep400")

# The inputs of benchmark seed s are those of instance s mod INSTANCES.
# `reference_traces.json` holds the per-epoch losses of every instance, so
# every run's outputs are checked against a recorded trace.
INSTANCES = 32


@dataclass(frozen=True)
class Scale:
    # hom400 / sweep400: 2-block SBM with Gaussian features (acceptance criterion 5)
    sbm_block: int
    p_in: float
    p_out: float
    sbm_dim: int
    # cite3k: Citeseer-shaped citation graph with binary bag-of-words features
    cite_class_sizes: tuple
    cite_edges: int
    cite_vocab: int
    cite_words: int
    cite_topic_words: int
    # training
    hidden: int
    knn_k: int
    per_class: int            # train and validation nodes per class
    epochs: dict              # fixed epoch count per workload (patience = epochs)
    sweep_levels: int
    sweep_max_level: float    # heterophily of the last level
    # run plan
    setup_reps: dict          # set-ups timed per pass
    min_timed: dict           # timed passes (cite3k: workers) a run makes at least


FULL = Scale(
    sbm_block=200, p_in=0.05, p_out=0.005, sbm_dim=4,
    cite_class_sizes=(264, 590, 668, 701, 596, 508), cite_edges=4552,
    cite_vocab=3703, cite_words=32, cite_topic_words=300,
    hidden=64, knn_k=7, per_class=40,
    # cite3k stays at 2 epochs: at the seed each epoch's tape is freed only by
    # the cyclic GC, so resident memory grows about 0.78 GB per epoch at this
    # size and a 10-epoch run does not fit in 7 GB.
    epochs={"hom400": 20, "cite3k": 2, "sweep400": 1},
    sweep_levels=10, sweep_max_level=0.95,
    setup_reps={"hom400": 5, "cite3k": 1, "sweep400": 5},
    min_timed={"hom400": 3, "cite3k": 3, "sweep400": 3},
)

TINY = Scale(
    sbm_block=40, p_in=0.15, p_out=0.02, sbm_dim=4,
    cite_class_sizes=(30, 34, 36), cite_edges=90,
    cite_vocab=60, cite_words=8, cite_topic_words=12,
    hidden=8, knn_k=3, per_class=5,
    epochs={"hom400": 3, "cite3k": 2, "sweep400": 2},
    sweep_levels=3, sweep_max_level=0.6,
    setup_reps={"hom400": 2, "cite3k": 2, "sweep400": 2},
    min_timed={"hom400": 2, "cite3k": 2, "sweep400": 2},
)

SCALES = {"full": FULL, "tiny": TINY}

HOM_SEP = 1.0
HOM_NOISE = 0.85
CITE_HOMOPHILY = 0.74
CITE_TOPIC_SHARE = 0.5    # share of a node's words drawn from its class's topic words


# program calls per pass; None = one per sweep level
CALLS_PER_PASS = {"hom400": 2, "cite3k": 1, "sweep400": None}

# Workloads whose run is one worker process: an untimed warm-up pass, then
# timed passes for the run's seconds. cite3k instead starts a fresh worker per
# pass: at the seed its epochs' tapes are freed only by the cyclic GC, so
# repeated passes in one process pile up about 0.78 GB per epoch.
IN_PROCESS = ("hom400", "sweep400")


def planned_ops(workload: str, scale: Scale, reference: bool, first: bool,
                passes: int = 1) -> int:
    """Operations one worker of `passes` passes attempts: set-up steps, calls, checks.

    Each call carries finite-loss and epoch-count checks, plus a reference
    trace check when one is recorded. The first worker of a run also checks
    the kNN graph and runs the gradient check (the call and its verdict).
    """
    per_setup = 3 if workload == "sweep400" else 2
    calls = CALLS_PER_PASS[workload] or scale.sweep_levels
    per_pass = scale.setup_reps[workload] * per_setup + calls * (3 + reference)
    return passes * per_pass + 3 * first


def train_config(workload: str, seed: int, scale: Scale = FULL):
    """The TrainConfig of acceptance criterion 5, with a fixed epoch count."""
    from fusegcn.losses import LossWeights
    from fusegcn.training import TrainConfig

    epochs = scale.epochs[workload]
    return TrainConfig(hidden_dim=scale.hidden, knn_k=scale.knn_k, lr=0.01,
                       weight_decay=5e-4, epochs=epochs, patience=epochs, seed=seed,
                       train_per_class=scale.per_class, val_per_class=scale.per_class,
                       loss_weights=LossWeights(1.0, 5e-4, 1e-3))


def _rng(family: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, sum(map(ord, family))])


def sbm_graph(seed: int, scale: Scale = FULL):
    """(labels, edges, features) of the criterion-5 2-block SBM."""
    rng = _rng("sbm", seed)
    n = 2 * scale.sbm_block
    labels = np.repeat(np.arange(2), scale.sbm_block)
    rows, cols = np.triu_indices(n, k=1)
    p = np.where(labels[rows] == labels[cols], scale.p_in, scale.p_out)
    keep = rng.random(rows.shape[0]) < p
    edges = np.stack([rows[keep], cols[keep]], axis=1)
    means = np.zeros((2, scale.sbm_dim))
    means[[0, 1], [0, 1]] = HOM_SEP
    x = means[labels] + HOM_NOISE * rng.standard_normal((n, scale.sbm_dim))
    return labels, edges, x


def citeseer_like(seed: int, scale: Scale = FULL):
    """(labels, edges, word lists) of a Citeseer-shaped citation graph.

    Edges: `cite_edges` distinct undirected pairs, a CITE_HOMOPHILY share of
    them inside one class. Features: binary bag of words; each node draws
    about `cite_words` words, half from its class's topic words and half from
    a Zipf-shaped global vocabulary, so no feature row is empty.
    """
    rng = _rng("cite", seed)
    sizes = np.asarray(scale.cite_class_sizes)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    n_intra = int(round(CITE_HOMOPHILY * scale.cite_edges))
    intra_p = sizes * (sizes - 1.0)
    intra_p /= intra_p.sum()
    chosen = set()
    while len(chosen) < n_intra:
        c = rng.choice(sizes.size, p=intra_p)
        i, j = starts[c] + rng.integers(sizes[c], size=2)
        if i != j:
            chosen.add((int(min(i, j)), int(max(i, j))))
    while len(chosen) < scale.cite_edges:
        i, j = rng.integers(n, size=2)
        if labels[i] != labels[j]:
            chosen.add((int(min(i, j)), int(max(i, j))))
    edges = np.array(sorted(chosen), dtype=np.int64)

    vocab = scale.cite_vocab
    zipf = 1.0 / np.arange(1, vocab + 1) ** 0.9
    zipf = zipf[rng.permutation(vocab)]
    zipf /= zipf.sum()
    topics = [rng.choice(vocab, size=scale.cite_topic_words, replace=False)
              for _ in range(sizes.size)]
    counts = np.maximum(1, rng.poisson(scale.cite_words, size=n))
    words = []
    for v in range(n):
        n_topic = rng.binomial(counts[v], CITE_TOPIC_SHARE)
        w = np.concatenate([rng.choice(topics[labels[v]], size=n_topic),
                            rng.choice(vocab, size=counts[v] - n_topic, p=zipf)])
        words.append(np.unique(w))
    return labels, edges, words


def _write_common(path: Path, labels, edges, n_features: int) -> None:
    n = labels.shape[0]
    path.mkdir(parents=True, exist_ok=True)
    (path / "meta.tsv").write_text(
        f"key\tvalue\nn_nodes\t{n}\nn_classes\t{int(labels.max()) + 1}\n"
        f"n_features\t{n_features}\n")
    (path / "nodes.tsv").write_text(
        "node_id\tlabel\n" + "".join(f"{i}\t{lab}\n" for i, lab in enumerate(labels.tolist())))
    (path / "edges.tsv").write_text(
        "src\tdst\n" + "".join(f"{i}\t{j}\n" for i, j in edges.tolist()))


def write_dataset(workload: str, seed: int, path, scale: Scale = FULL) -> Path:
    """Generate the workload's input for `seed` and write it under `path`."""
    path = Path(path)
    if workload in ("hom400", "sweep400"):
        labels, edges, x = sbm_graph(seed, scale)
        _write_common(path, labels, edges, x.shape[1])
        header = "node_id\t" + "\t".join(f"f{c}" for c in range(x.shape[1])) + "\n"
        (path / "features.tsv").write_text(header + "".join(
            f"{i}\t" + "\t".join(repr(v) for v in row) + "\n"
            for i, row in enumerate(x.tolist())))
    elif workload == "cite3k":
        labels, edges, words = citeseer_like(seed, scale)
        _write_common(path, labels, edges, scale.cite_vocab)
        (path / "features.sparse.tsv").write_text(
            "node_id\tfeature_index\tvalue\n" + "".join(
                f"{i}\t{w}\t1.0\n" for i, ws in enumerate(words) for w in ws.tolist()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return path
