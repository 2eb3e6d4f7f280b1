"""Dataset directory format, config files, and result serialization.

A dataset is a directory of TSV files with headers:

    meta.tsv              key/value: n_nodes, n_classes, n_features
    nodes.tsv             node_id [label]      (label column only if labeled)
    edges.tsv             src/dst, one undirected edge per line
    features.tsv          node_id f0 .. f{d-1}     (dense), OR
    features.sparse.tsv   node_id feature_index value triples

Feature values must be finite, and a sparse file names each (node_id,
feature_index) pair at most once; a meta key appears at most once; n_nodes is
at least 1 and n_features at least 0; n_classes is the highest label + 1, or 0
without a label column.

One reader (`_read_table`) and one writer (`_write_table`) serve every table.
A table is checked in order: the header (its field count, then its names; the
dense header follows n_features), then each line in turn (its field count,
`expected W columns, got K`, then its tokens), then row checks that each test
a whole column and name its first offending line. With several faults the
first in check order is reported, which need not be the lowest line.

Every table but meta.tsv is all numeric. A well-formed one is parsed by one C
pass (`np.loadtxt`) per column group, straight into its arrays, once a tab
count of the whole file shows W fields per line in all. The pass runs only on
ASCII text without \x1f, where its tokens are those of `int` and `float`
under numpy 2.4.6 (the floor in pyproject.toml): numpy 1.23-1.26 still read an
integer through a float, with only a DeprecationWarning. Where the pass fails
or cannot be trusted, the lines are read one at a time, which names the first
malformed line.

Saving writes canonical order, so for every directory that loads, a further
load/save round trip is byte-stable.
Tables, config files and run outputs are UTF-8 text; a file that is not
UTF-8 is a DatasetError naming it and the line of its first bad byte.
Config files are flat `key = value` lines with `#` comments; unknown keys
are an error. The keys are the fields of `TrainConfig` and one
`<name>_weight` per field of `LossWeights`.
"""

from __future__ import annotations

import io
import json
import typing
import warnings
import zipfile
import zlib
from itertools import chain
from pathlib import Path

import numpy as np

from .graphs import Graph, canonical_edges
from .losses import LossWeights
from .model import init_params
from .training import RunTrace, TrainConfig


class DatasetError(Exception):
    """Malformed dataset directory or config file."""


# ---------------------------------------------------------------------------
# dataset save / load
# ---------------------------------------------------------------------------

def _write_table(path: Path, header: list[str], rows) -> None:
    """Write the TSV `header`, then one line per row, each value as `str` (`repr` for a float)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("\t".join(header) + "\n")
        for row in rows:
            f.write("\t".join(map(str, row)) + "\n")


def save_dataset(g: Graph, path) -> None:
    """Write `g` under `path` in canonical order (deterministic bytes)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    n, d = g.features.shape
    labeled = g.labels is not None
    _write_table(path / "meta.tsv", ["key", "value"], [
        ("n_nodes", n), ("n_classes", g.n_classes if labeled else 0), ("n_features", d)])
    _write_table(path / "nodes.tsv", ["node_id", "label"] if labeled else ["node_id"],
                 zip(range(n), g.labels) if labeled else zip(range(n)))
    _write_table(path / "edges.tsv", ["src", "dst"], g.edges)
    # one row at a time: the whole matrix as Python floats takes 4x its array's memory
    _write_table(path / "features.tsv", ["node_id", *(f"f{c}" for c in range(d))],
                 ([i, *row.tolist()] for i, row in enumerate(g.features)))


def _decode(path: Path, data: bytes) -> str:
    """`data`, read from the start of the file at `path`, as UTF-8 text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise DatasetError(f"{path}:{line}: not UTF-8 text "
                           f"({e.reason}, byte {data[e.start]:#04x})") from None


def _first_line(path: Path) -> list[str]:
    """The header fields of the TSV table at `path`."""
    if not path.is_file():
        raise DatasetError(f"missing required file {path}")
    with open(path, "rb") as f:
        first = _decode(path, f.readline()).splitlines()
    if not first:
        raise DatasetError(f"{path}: empty file")
    return first[0].split("\t")


def _read_table(path: Path, header: typing.Iterable[str], dtypes) -> list[np.ndarray]:
    """The TSV table at `path`, whose header must be the names `header` (read
    only once the first line has the table's width), parsed into one (rows, k)
    array per `(dtype, k)` in `dtypes`, each for k adjacent columns."""
    got, width = _first_line(path), sum(k for _, k in dtypes)
    if len(got) != width:
        raise DatasetError(f"{path}:1: expected {width} columns, got {len(got)}")
    header = list(header)
    if got != header:
        raise DatasetError(f"{path}:1: expected header {header}, got {got}")
    text = _decode(path, path.read_bytes())
    # numpy's C reader takes some non-ASCII letters as digits and strips \x1f
    # as whitespace, where int() and float() reject both
    plain = text.isascii() and "\x1f" not in text
    n_tabs = text.count("\t")
    body = text.splitlines()[1:]
    del text
    bounds = np.cumsum([0, *(k for _, k in dtypes)])
    # `usecols` ignores extra fields, but with the whole file's tab count right
    # a line with one too many forces a line with one too few, which raises
    if (body and plain and n_tabs == (width - 1) * (len(body) + 1)
            and all(np.issubdtype(dtype, np.number) for dtype, _ in dtypes)):
        tables = _c_parse(body, dtypes, bounds)
        if tables is not None:
            return tables
    tables = [np.empty((len(body), k), dtype) for dtype, k in dtypes]
    for i, line in enumerate(body):
        cells = line.split("\t")
        if len(cells) != width:
            raise DatasetError(f"{path}:{i + 2}: expected {width} columns, got {len(cells)}")
        for table, lo, hi in zip(tables, bounds, bounds[1:]):
            try:
                table[i] = cells[lo:hi]
            except (ValueError, OverflowError):
                raise DatasetError(
                    f"{path}:{i + 2}: {_token_fault(cells[lo:hi], table.dtype)}") from None
    return tables


def _c_parse(body: list[str], dtypes, bounds) -> list[np.ndarray] | None:
    """Each column group of the lines `body` read by `np.loadtxt`, or None where
    it raises or skips a line (a blank one): the line loop then names the fault."""
    try:
        with warnings.catch_warnings():
            # a body of blank lines only warns; its row count falls back below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            tables = [np.loadtxt(body, dtype=dtype, delimiter="\t", usecols=range(lo, hi),
                                 ndmin=2, comments=None, quotechar=None)
                      for (dtype, _), lo, hi in zip(dtypes, bounds, bounds[1:])]
    except (ValueError, OverflowError):
        return None
    return tables if all(t.shape[0] == len(body) for t in tables) else None


def _check(bad: np.ndarray, path: Path, message) -> None:
    """Raise DatasetError with `message(i)` for the first row i (line i + 2) in `bad`."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise DatasetError(f"{path}:{rows[0] + 2}: {message(rows[0])}")


def _token_fault(tokens: list[str], dtype) -> str:
    """What is wrong with the first of `tokens` that `dtype` cannot hold."""
    for token in tokens:
        try:
            np.array(token, dtype=dtype)
        except (ValueError, OverflowError):
            return (f"expected an integer, got {token!r}"
                    if np.issubdtype(dtype, np.integer) else "malformed float")


def _first_repeat(keys):
    """(line, first line) of the first key equal to an earlier one."""
    first_line = {}
    for ln, key in enumerate(keys, start=2):
        seen = first_line.setdefault(key, ln)
        if seen != ln:
            return ln, seen


def load_dataset(path) -> Graph:
    """Load a dataset directory into a Graph, validating every line."""
    path = Path(path)
    if not path.is_dir():
        raise DatasetError(f"dataset directory {path} does not exist")

    meta_path = path / "meta.tsv"
    keys, values = _read_table(meta_path, ["key", "value"], [(object, 1), (np.int64, 1)])
    keys = keys[:, 0].tolist()
    meta = dict(zip(keys, values[:, 0].tolist()))
    if len(meta) < len(keys):
        ln, first = _first_repeat(keys)
        raise DatasetError(f"{meta_path}:{ln}: duplicate key {keys[ln - 2]!r} "
                           f"(first on line {first})")
    for key in ("n_nodes", "n_classes", "n_features"):
        if key not in meta:
            raise DatasetError(f"{meta_path}: missing key {key}")
    for key, least in (("n_nodes", 1), ("n_features", 0)):
        if meta[key] < least:
            raise DatasetError(f"{meta_path}: {key} must be >= {least}, got {meta[key]}")
    n, n_classes, d = meta["n_nodes"], meta["n_classes"], meta["n_features"]

    nodes_path = path / "nodes.tsv"
    header = _first_line(nodes_path)
    if header not in (["node_id", "label"], ["node_id"]):
        raise DatasetError(f"{nodes_path}:1: unrecognized header {header}")
    nodes, = _read_table(nodes_path, header, [(np.int64, len(header))])
    ids, labels = nodes[:, 0], (nodes[:, 1] if len(header) == 2 else None)
    if len(ids) != n:
        raise DatasetError(f"{nodes_path}: {len(ids)} rows, meta says {n} nodes")
    _check(ids != np.arange(n), nodes_path,
           lambda i: f"node ids must be contiguous from 0 (expected {i}, got {ids[i]})")
    if labels is not None:
        _check((labels < 0) | (labels >= n_classes), nodes_path,
               lambda i: f"label {labels[i]} outside [0, {n_classes})")
    top = int(labels.max()) + 1 if labels is not None and n else 0   # as save_dataset writes
    if n_classes != top:
        raise DatasetError(f"{meta_path}: n_classes is {n_classes}, but must be {top}, "
                           "the highest label + 1 (0 without a label column)")

    edges_path = path / "edges.tsv"
    raw, = _read_table(edges_path, ["src", "dst"], [(np.int64, 2)])
    a, b = raw.T
    _check((a < 0) | (a >= n) | (b < 0) | (b >= n), edges_path,
           lambda i: f"edge ({a[i]}, {b[i]}) out of range")
    _check(a == b, edges_path, lambda i: f"self-loop at node {a[i]}")
    edges = canonical_edges(raw, n)
    if edges.shape[0] < raw.shape[0]:
        warnings.warn(f"{edges_path}: {raw.shape[0] - edges.shape[0]} duplicate edges dropped")

    dense_path = path / "features.tsv"
    sparse_path = path / "features.sparse.tsv"
    if dense_path.is_file() and sparse_path.is_file():
        raise DatasetError(f"{path}: both features.tsv and features.sparse.tsv present")
    if dense_path.is_file():
        ids, x = _read_table(dense_path, chain(["node_id"], (f"f{c}" for c in range(d))),
                             [(np.int64, 1), (np.float64, d)])
        if len(ids) != n:
            raise DatasetError(f"{dense_path}: {len(ids)} rows, meta says {n}")
        _check(ids[:, 0] != np.arange(n), dense_path, lambda i: "rows must follow node order")
        _check(~np.isfinite(x).all(axis=1), dense_path, lambda i: "non-finite feature value")
    elif sparse_path.is_file():
        index, values = _read_table(sparse_path, ["node_id", "feature_index", "value"],
                                    [(np.int64, 2), (np.float64, 1)])
        (rows, cols), (values,) = index.T, values.T
        _check((rows < 0) | (rows >= n) | (cols < 0) | (cols >= d), sparse_path,
               lambda i: "index out of range")
        _check(~np.isfinite(values), sparse_path, lambda i: "non-finite feature value")
        try:
            x = np.zeros((n, d))
        except (MemoryError, ValueError):   # ValueError: n * d * 8 bytes overflows
            raise DatasetError(f"{meta_path}: n_nodes {n} x n_features {d} is too large "
                               "for a dense feature matrix") from None
        keys = np.sort(rows * d + cols)     # below n * d, which fits in int64 once x does
        if np.any(keys[1:] == keys[:-1]):
            ln, first = _first_repeat(zip(rows.tolist(), cols.tolist()))
            raise DatasetError(f"{sparse_path}:{ln}: duplicate entry for node {rows[ln - 2]}, "
                               f"feature {cols[ln - 2]} (first on line {first})")
        x[rows, cols] = values
    else:
        raise DatasetError(f"{path}: missing features.tsv (or features.sparse.tsv)")

    return Graph(n, edges, x, labels)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_TRAIN_FIELDS = typing.get_type_hints(TrainConfig)
_WEIGHT_FIELDS = typing.get_type_hints(LossWeights)

CONFIG_KEYS = {
    **{name: typ for name, typ in _TRAIN_FIELDS.items() if name != "loss_weights"},
    **{f"{name}_weight": typ for name, typ in _WEIGHT_FIELDS.items()},
}


def parse_config(path) -> dict:
    """Parse `key = value` lines; unknown keys are an error, not a warning."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"config file {path} does not exist")
    out = {}
    # newline=None splits lines as a file opened in text mode does
    with io.StringIO(_decode(path, path.read_bytes()), newline=None) as f:
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
    weights = {name: cfg_dict[f"{name}_weight"] for name in _WEIGHT_FIELDS
               if f"{name}_weight" in cfg_dict}
    given = {k: v for k, v in cfg_dict.items() if k in _TRAIN_FIELDS}
    if seed_override is not None:
        given["seed"] = seed_override
    try:
        return TrainConfig(loss_weights=LossWeights(**weights), **given)
    except (TypeError, ValueError) as e:
        raise DatasetError(f"bad config: {e}") from None


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

TRACE_HEADER = ("epoch,loss_total,loss_cl,loss_c,loss_d,"
                "train_acc,val_acc,test_acc,attn_T,attn_F,attn_C")


def emit_trace(trace: RunTrace, path) -> None:
    """Per-epoch CSV with 6-decimal fixed formatting."""
    with open(path, "w", encoding="utf-8") as f:
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")


def save_params(params: dict[str, np.ndarray], path) -> None:
    """Save either model's parameter arrays under their names."""
    np.savez(path, **params)


def load_params(path, n_features: int, n_classes: int) -> dict[str, np.ndarray]:
    """Load the three-channel model's arrays saved by `save_params`.

    Raises DatasetError when the file is not a readable `.npz` archive, when
    the names differ from the model's, such as for the parameters of a GCN
    baseline, or when a shape differs from that of the model for `n_features`
    and `n_classes` at the file's hidden width.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"params file {path} does not exist")
    try:
        # np.load leaves a file it opened unclosed when the archive is corrupt
        with open(path, "rb") as f:
            data = np.load(f, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with data:
                params = {k: data[k] for k in data.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as e:
        raise DatasetError(f"params file {path} is not a readable .npz archive ({e})") from None
    w1, out_w = params.get("input_w1"), params.get("out_w")
    # a width that is not a valid size shows below as a mismatch of input_w1
    hidden = w1.shape[1] if w1 is not None and w1.ndim == 2 and w1.shape[1] > 0 else 1
    expected = init_params(n_features, n_classes, hidden, np.random.default_rng(0))
    missing = [k for k in expected if k not in params]
    unexpected = [k for k in params if k not in expected]
    if missing or unexpected:
        raise DatasetError(
            f"{path} does not hold the three-channel model's parameters: "
            f"missing {', '.join(missing) or 'none'}; "
            f"unexpected {', '.join(unexpected) or 'none'}")
    wrong = [f"{k} {params[k].shape} (expected {v.shape})"
             for k, v in expected.items() if params[k].shape != v.shape]
    if wrong:
        file_d = w1.shape[0] if w1.ndim == 2 else "?"
        file_c = out_w.shape[1] if out_w.ndim == 2 else "?"
        raise DatasetError(
            f"params file {path} is for {file_d} features and {file_c} classes, but the "
            f"dataset has {n_features} features and {n_classes} classes; "
            f"wrong shapes: {', '.join(wrong)}")
    return params
