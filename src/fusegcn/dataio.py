"""Dataset directory format, config files, and result serialization.

A dataset is a directory of TSV files with headers:

    meta.tsv              key/value: n_nodes, n_classes, n_features
    nodes.tsv             node_id [label]      (label column only if labeled)
    edges.tsv             src/dst, one undirected edge per line
    features.tsv          node_id f0 .. f{d-1}     (dense), OR
    features.sparse.tsv   node_id feature_index value triples

Feature values must be finite, and a sparse file names each (node_id,
feature_index) pair at most once.

Saving canonicalizes ordering, so a load/save round trip is byte-stable.
Config files are flat `key = value` lines with `#` comments; unknown keys
are an error.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .graphs import Graph, canonical_edges
from .losses import LossWeights
from .model import ModelParams
from .training import RunTrace, TrainConfig


class DatasetError(Exception):
    """Malformed dataset directory or config file."""


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# dataset save / load
# ---------------------------------------------------------------------------

def save_dataset(g: Graph, path) -> None:
    """Write `g` under `path` in canonical order (deterministic bytes)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    n_classes = g.n_classes if g.labels is not None else 0
    with open(path / "meta.tsv", "w") as f:
        f.write("key\tvalue\n")
        f.write(f"n_nodes\t{g.n_nodes}\n")
        f.write(f"n_classes\t{n_classes}\n")
        f.write(f"n_features\t{g.features.shape[1]}\n")
    with open(path / "nodes.tsv", "w") as f:
        if g.labels is not None:
            f.write("node_id\tlabel\n")
            for i in range(g.n_nodes):
                f.write(f"{i}\t{g.labels[i]}\n")
        else:
            f.write("node_id\n")
            for i in range(g.n_nodes):
                f.write(f"{i}\n")
    with open(path / "edges.tsv", "w") as f:
        f.write("src\tdst\n")
        for i, j in g.edges:
            f.write(f"{i}\t{j}\n")
    with open(path / "features.tsv", "w") as f:
        d = g.features.shape[1]
        f.write("node_id\t" + "\t".join(f"f{c}" for c in range(d)) + "\n")
        for i in range(g.n_nodes):
            f.write(str(i) + "\t" + "\t".join(_fmt(v) for v in g.features[i]) + "\n")


def _read_rows(path: Path, expected_header: list[str] | None = None):
    if not path.is_file():
        raise DatasetError(f"missing required file {path}")
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = lines[0].split("\t")
    if expected_header is not None and header != expected_header:
        raise DatasetError(f"{path}:1: expected header {expected_header}, got {header}")
    return header, lines[1:]


def _parse_int(token: str, path: Path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DatasetError(f"{path}:{lineno}: expected an integer, got {token!r}") from None


def _raise_first_duplicate(rows, cols, path: Path):
    first_line = {}
    for ln, key in enumerate(zip(rows, cols), start=2):
        seen = first_line.setdefault(key, ln)
        if seen != ln:
            raise DatasetError(f"{path}:{ln}: duplicate entry for node {key[0]}, "
                               f"feature {key[1]} (first on line {seen})")


def load_dataset(path) -> Graph:
    """Load a dataset directory into a Graph, validating as it goes."""
    path = Path(path)
    if not path.is_dir():
        raise DatasetError(f"dataset directory {path} does not exist")

    _, meta_rows = _read_rows(path / "meta.tsv", ["key", "value"])
    meta = {}
    for ln, row in enumerate(meta_rows, start=2):
        parts = row.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{path / 'meta.tsv'}:{ln}: malformed key/value line")
        meta[parts[0]] = _parse_int(parts[1], path / "meta.tsv", ln)
    for key in ("n_nodes", "n_classes", "n_features"):
        if key not in meta:
            raise DatasetError(f"{path / 'meta.tsv'}: missing key {key}")
    n, n_classes, d = meta["n_nodes"], meta["n_classes"], meta["n_features"]

    nodes_path = path / "nodes.tsv"
    header, node_rows = _read_rows(nodes_path)
    if header not in (["node_id", "label"], ["node_id"]):
        raise DatasetError(f"{nodes_path}:1: unrecognized header {header}")
    labeled = header == ["node_id", "label"]
    if len(node_rows) != n:
        raise DatasetError(f"{nodes_path}: {len(node_rows)} rows, meta says {n} nodes")
    labels = np.zeros(n, dtype=np.int64) if labeled else None
    for ln, row in enumerate(node_rows, start=2):
        parts = row.split("\t")
        if len(parts) != len(header):
            raise DatasetError(f"{nodes_path}:{ln}: malformed line")
        node_id = _parse_int(parts[0], nodes_path, ln)
        if node_id != ln - 2:
            raise DatasetError(f"{nodes_path}:{ln}: node ids must be contiguous from 0 "
                               f"(expected {ln - 2}, got {node_id})")
        if labeled:
            lab = _parse_int(parts[1], nodes_path, ln)
            if not 0 <= lab < n_classes:
                raise DatasetError(f"{nodes_path}:{ln}: label {lab} outside [0, {n_classes})")
            labels[node_id] = lab

    edges_path = path / "edges.tsv"
    _, edge_rows = _read_rows(edges_path, ["src", "dst"])
    raw = np.zeros((len(edge_rows), 2), dtype=np.int64)
    for ln, row in enumerate(edge_rows, start=2):
        parts = row.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{edges_path}:{ln}: malformed line")
        a = _parse_int(parts[0], edges_path, ln)
        b = _parse_int(parts[1], edges_path, ln)
        if not (0 <= a < n and 0 <= b < n):
            raise DatasetError(f"{edges_path}:{ln}: edge ({a}, {b}) out of range")
        if a == b:
            raise DatasetError(f"{edges_path}:{ln}: self-loop at node {a}")
        raw[ln - 2] = (a, b)
    edges = canonical_edges(raw, n) if raw.shape[0] else raw
    if edges.shape[0] < raw.shape[0]:
        warnings.warn(f"{edges_path}: {raw.shape[0] - edges.shape[0]} duplicate edges dropped")

    dense_path = path / "features.tsv"
    sparse_path = path / "features.sparse.tsv"
    if dense_path.is_file() and sparse_path.is_file():
        raise DatasetError(f"{path}: both features.tsv and features.sparse.tsv present")
    x = np.zeros((n, d))
    if dense_path.is_file():
        _, feat_rows = _read_rows(dense_path)
        if len(feat_rows) != n:
            raise DatasetError(f"{dense_path}: {len(feat_rows)} rows, meta says {n}")
        for ln, row in enumerate(feat_rows, start=2):
            parts = row.split("\t")
            if len(parts) != d + 1:
                raise DatasetError(f"{dense_path}:{ln}: expected {d + 1} columns, "
                                   f"got {len(parts)}")
            node_id = _parse_int(parts[0], dense_path, ln)
            if node_id != ln - 2:
                raise DatasetError(f"{dense_path}:{ln}: rows must follow node order")
            try:
                x[node_id] = [float(t) for t in parts[1:]]
            except ValueError:
                raise DatasetError(f"{dense_path}:{ln}: malformed float") from None
        bad_rows = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad_rows.size:   # row i is on line i + 2
            raise DatasetError(f"{dense_path}:{bad_rows[0] + 2}: non-finite feature value")
    elif sparse_path.is_file():
        _, feat_rows = _read_rows(sparse_path, ["node_id", "feature_index", "value"])
        rows, cols, values = [], [], []
        for ln, row in enumerate(feat_rows, start=2):
            parts = row.split("\t")
            if len(parts) != 3:
                raise DatasetError(f"{sparse_path}:{ln}: malformed line")
            node_id = _parse_int(parts[0], sparse_path, ln)
            fidx = _parse_int(parts[1], sparse_path, ln)
            if not (0 <= node_id < n and 0 <= fidx < d):
                raise DatasetError(f"{sparse_path}:{ln}: index out of range")
            try:
                values.append(float(parts[2]))
            except ValueError:
                raise DatasetError(f"{sparse_path}:{ln}: malformed float") from None
            rows.append(node_id)
            cols.append(fidx)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:    # entry i is on line i + 2
            raise DatasetError(f"{sparse_path}:{bad[0] + 2}: non-finite feature value")
        keys = np.sort(np.array(rows, dtype=np.int64) * d + np.array(cols, dtype=np.int64))
        if np.any(keys[1:] == keys[:-1]):
            _raise_first_duplicate(rows, cols, sparse_path)
        x[rows, cols] = values
    else:
        raise DatasetError(f"{path}: missing features.tsv (or features.sparse.tsv)")

    return Graph(n, edges, x, labels)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

CONFIG_KEYS = {
    "dataset": str,
    "out_dir": str,
    "prop_weight": float,
    "common_mix": float,
    "knn_k": int,
    "hidden_dim": int,
    "classification_weight": float,
    "closeness_weight": float,
    "disparity_weight": float,
    "lr": float,
    "weight_decay": float,
    "epochs": int,
    "patience": int,
    "seed": int,
    "train_per_class": int,
    "val_per_class": int,
    "attention_variant": str,
    "ce_reduction": str,
    "residual_form": str,
}


def parse_config(path) -> dict:
    """Parse `key = value` lines; unknown keys are an error, not a warning."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"config file {path} does not exist")
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DatasetError(f"{path}:{ln}: expected `key = value`")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise DatasetError(f"{path}:{ln}: unknown config key {key!r}")
            typ = CONFIG_KEYS[key]
            try:
                out[key] = typ(value)
            except ValueError:
                raise DatasetError(
                    f"{path}:{ln}: cannot parse {value!r} as {typ.__name__}") from None
    return out


def config_to_train_config(cfg_dict: dict, seed_override: int | None = None) -> TrainConfig:
    """Build a TrainConfig from parsed keys; missing keys keep their defaults."""
    weights = LossWeights(
        classification=cfg_dict.get("classification_weight", 1.0),
        closeness=cfg_dict.get("closeness_weight", 5e-4),
        disparity=cfg_dict.get("disparity_weight", 1e-3),
    )
    fields = {k: v for k, v in cfg_dict.items()
              if k not in ("dataset", "out_dir", "classification_weight",
                           "closeness_weight", "disparity_weight")}
    if seed_override is not None:
        fields["seed"] = seed_override
    try:
        return TrainConfig(loss_weights=weights, **fields)
    except (TypeError, ValueError) as e:
        raise DatasetError(f"bad config: {e}") from None


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

TRACE_HEADER = ("epoch,loss_total,loss_cl,loss_c,loss_d,"
                "train_acc,val_acc,test_acc,attn_T,attn_F,attn_C")


def emit_trace(trace: RunTrace, path) -> None:
    """Per-epoch CSV with 6-decimal fixed formatting."""
    with open(path, "w") as f:
        f.write(TRACE_HEADER + "\n")
        for r in trace.records:
            vals = (r.loss_total, r.loss_cl, r.loss_c, r.loss_d,
                    r.train_acc, r.val_acc, r.test_acc, r.attn_t, r.attn_f, r.attn_c)
            f.write(f"{r.epoch}," + ",".join(f"{v:.6f}" for v in vals) + "\n")


def emit_metrics(trace: RunTrace, path) -> None:
    metrics = {
        "accuracy": trace.final_accuracy,
        "macro_f1": trace.final_macro_f1,
        "best_epoch": trace.best_epoch,
        "epochs_run": len(trace.records),
    }
    with open(path, "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")


def save_params(params: ModelParams, path) -> None:
    np.savez(path, **params.arrays)


def load_params(path) -> ModelParams:
    """Load the three-channel model's arrays saved by `save_params`.

    Raises DatasetError when the names differ from the model's, such as for
    the parameters of a GCN baseline.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"params file {path} does not exist")
    with np.load(path, allow_pickle=False) as data:
        params = ModelParams({k: data[k] for k in data.files})
    # the names do not depend on the sizes, so a 1-wide model lists them
    expected = ModelParams.init(1, 1, 1, np.random.default_rng(0)).names()
    missing = [k for k in expected if k not in params.arrays]
    unexpected = [k for k in params.names() if k not in expected]
    if missing or unexpected:
        raise DatasetError(
            f"{path} does not hold the three-channel model's parameters: "
            f"missing {', '.join(missing) or 'none'}; "
            f"unexpected {', '.join(unexpected) or 'none'}")
    return params
