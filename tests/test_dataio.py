import re
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from fusegcn import dataio
from fusegcn.dataio import (
    CONFIG_KEYS,
    DatasetError,
    config_to_train_config,
    emit_trace,
    load_dataset,
    load_params,
    parse_config,
    save_dataset,
    save_params,
)
from fusegcn.heterophily import SynthSpec, generate_synthetic
from fusegcn.graphs import Graph, canonical_edges, knn_feature_graph
from fusegcn.model import init_params
from fusegcn.training import EpochRecord, RunTrace


def random_graph(seed=0, n=25):
    return generate_synthetic(SynthSpec(n, 3, p_intra=0.3, p_inter=0.05,
                                        n_features=4, seed=seed))


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        g = random_graph(1)
        save_dataset(g, tmp_path / "ds")
        g2 = load_dataset(tmp_path / "ds")
        assert g2.n_nodes == g.n_nodes
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.labels, g.labels)
        npt.assert_array_equal(g2.features, g.features)

    def test_unlabeled_round_trip(self, tmp_path):
        g = knn_feature_graph(random_graph(2).features, 3)
        save_dataset(g, tmp_path / "knn")
        g2 = load_dataset(tmp_path / "knn")
        assert g2.labels is None
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.features, g.features)

    def test_byte_stable_double_save(self, tmp_path):
        g = random_graph(3)
        save_dataset(g, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        for name in ("meta.tsv", "nodes.tsv", "edges.tsv", "features.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_edge_graph_header_only(self, tmp_path):
        from fusegcn.graphs import Graph
        g = Graph.from_edges(3, [], np.eye(3), [0, 1, 0])
        save_dataset(g, tmp_path / "e")
        assert (tmp_path / "e" / "edges.tsv").read_text() == "src\tdst\n"
        g2 = load_dataset(tmp_path / "e")
        assert g2.n_edges == 0


class TestLoadValidation:
    def make_valid(self, tmp_path):
        save_dataset(random_graph(4, n=6), tmp_path / "ds")
        return tmp_path / "ds"

    def test_missing_features_file(self, tmp_path):
        ds = self.make_valid(tmp_path)
        (ds / "features.tsv").unlink()
        with pytest.raises(DatasetError, match="features"):
            load_dataset(ds)

    def test_malformed_line_reports_lineno(self, tmp_path):
        ds = self.make_valid(tmp_path)
        edges = (ds / "edges.tsv").read_text().splitlines()
        edges[1] = "0\tnope"
        (ds / "edges.tsv").write_text("\n".join(edges) + "\n")
        with pytest.raises(DatasetError, match="edges.tsv:2"):
            load_dataset(ds)

    def test_node_id_gap(self, tmp_path):
        ds = self.make_valid(tmp_path)
        lines = (ds / "nodes.tsv").read_text().splitlines()
        lines[2] = "5\t0"
        (ds / "nodes.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="contiguous"):
            load_dataset(ds)

    def test_duplicate_edges_warn_and_dedup(self, tmp_path):
        ds = self.make_valid(tmp_path)
        with open(ds / "edges.tsv") as f:
            lines = f.read().splitlines()
        first_edge = lines[1]
        (ds / "edges.tsv").write_text("\n".join(lines + [first_edge]) + "\n")
        with pytest.warns(UserWarning, match="duplicate"):
            g = load_dataset(ds)
        assert g.n_edges == len(lines) - 1

    def test_self_loop_rejected(self, tmp_path):
        ds = self.make_valid(tmp_path)
        with open(ds / "edges.tsv", "a") as f:
            f.write("2\t2\n")
        with pytest.raises(DatasetError, match="self-loop"):
            load_dataset(ds)

    def test_edge_out_of_range(self, tmp_path):
        ds = self.make_valid(tmp_path)
        with open(ds / "edges.tsv", "a") as f:
            f.write("0\t99\n")
        with pytest.raises(DatasetError, match="out of range"):
            load_dataset(ds)

    def test_sparse_features(self, tmp_path):
        ds = self.make_valid(tmp_path)
        g = load_dataset(ds)
        (ds / "features.tsv").unlink()
        with open(ds / "features.sparse.tsv", "w") as f:
            f.write("node_id\tfeature_index\tvalue\n")
            for i in range(g.n_nodes):
                for j in range(g.features.shape[1]):
                    if g.features[i, j] != 0.0:
                        f.write(f"{i}\t{j}\t{float(g.features[i, j])!r}\n")
        g2 = load_dataset(ds)
        npt.assert_array_equal(g2.features, g.features)

    def make_sparse(self, tmp_path):
        """The valid dataset with its features as sparse triples; returns the
        directory and the sparse file's lines."""
        ds = self.make_valid(tmp_path)
        x = load_dataset(ds).features
        (ds / "features.tsv").unlink()
        lines = ["node_id\tfeature_index\tvalue"]
        lines += [f"{i}\t{j}\t{float(x[i, j])!r}" for i, j in zip(*np.nonzero(x))]
        return ds, lines

    def test_dense_nan_feature_rejected(self, tmp_path):
        ds = self.make_valid(tmp_path)
        lines = (ds / "features.tsv").read_text().splitlines()
        parts = lines[3].split("\t")
        parts[2] = "nan"
        lines[3] = "\t".join(parts)
        (ds / "features.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"features\.tsv:4: non-finite"):
            load_dataset(ds)

    def test_sparse_inf_feature_rejected(self, tmp_path):
        ds, lines = self.make_sparse(tmp_path)
        lines.insert(3, "4\t1\t-inf")
        (ds / "features.sparse.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"features\.sparse\.tsv:4: non-finite"):
            load_dataset(ds)

    def test_sparse_duplicate_entry_rejected(self, tmp_path):
        ds, lines = self.make_sparse(tmp_path)
        node, feat, _ = lines[2].split("\t")
        lines.append(f"{node}\t{feat}\t7.5")
        (ds / "features.sparse.tsv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError,
                           match=rf"features\.sparse\.tsv:{len(lines)}: duplicate entry "
                                 rf"for node {node}, feature {feat} \(first on line 3\)"):
            load_dataset(ds)

    def test_both_feature_files_error(self, tmp_path):
        ds = self.make_valid(tmp_path)
        (ds / "features.sparse.tsv").write_text("node_id\tfeature_index\tvalue\n")
        with pytest.raises(DatasetError, match="both"):
            load_dataset(ds)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="does not exist"):
            load_dataset(tmp_path / "nope")

    def test_duplicate_meta_key_names_both_lines(self, tmp_path):
        ds = self.make_valid(tmp_path)
        with open(ds / "meta.tsv", "a") as f:
            f.write("n_nodes\t7\n")
        with pytest.raises(DatasetError,
                           match=r"meta\.tsv:5: duplicate key 'n_nodes' \(first on line 2\)"):
            load_dataset(ds)

    @pytest.mark.parametrize("n_features, header, message", [
        (4, "garbage", "expected 5 columns, got 1"),
        (4, "node_id\tf0\tf1\tf2\tf4", "expected header ['node_id', 'f0', 'f1', 'f2', 'f3'], "
                                       "got ['node_id', 'f0', 'f1', 'f2', 'f4']"),
        (5, None, "expected 6 columns, got 5"),    # meta names one feature more than the file has
    ])
    def test_dense_header_mismatch(self, tmp_path, n_features, header, message):
        ds = self.make_valid(tmp_path)
        meta = (ds / "meta.tsv").read_text()
        (ds / "meta.tsv").write_text(meta.replace("n_features\t4", f"n_features\t{n_features}"))
        if header is not None:
            lines = (ds / "features.tsv").read_text().splitlines()
            (ds / "features.tsv").write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(DatasetError, match=re.escape(f"features.tsv:1: {message}")):
            load_dataset(ds)


def _ref_read_rows(path: Path, expected_header: list[str] | None = None):
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


def _ref_parse_int(token: str, path: Path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DatasetError(f"{path}:{lineno}: expected an integer, got {token!r}") from None


def _ref_raise_first_duplicate(rows, cols, path: Path):
    first_line = {}
    for ln, key in enumerate(zip(rows, cols), start=2):
        seen = first_line.setdefault(key, ln)
        if seen != ln:
            raise DatasetError(f"{path}:{ln}: duplicate entry for node {key[0]}, "
                               f"feature {key[1]} (first on line {seen})")


def _reference_load(path) -> Graph:
    """The per-line loader that `load_dataset` replaced (reference)."""
    path = Path(path)
    if not path.is_dir():
        raise DatasetError(f"dataset directory {path} does not exist")

    _, meta_rows = _ref_read_rows(path / "meta.tsv", ["key", "value"])
    meta = {}
    for ln, row in enumerate(meta_rows, start=2):
        parts = row.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{path / 'meta.tsv'}:{ln}: malformed key/value line")
        meta[parts[0]] = _ref_parse_int(parts[1], path / "meta.tsv", ln)
    for key in ("n_nodes", "n_classes", "n_features"):
        if key not in meta:
            raise DatasetError(f"{path / 'meta.tsv'}: missing key {key}")
    n, n_classes, d = meta["n_nodes"], meta["n_classes"], meta["n_features"]

    nodes_path = path / "nodes.tsv"
    header, node_rows = _ref_read_rows(nodes_path)
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
        node_id = _ref_parse_int(parts[0], nodes_path, ln)
        if node_id != ln - 2:
            raise DatasetError(f"{nodes_path}:{ln}: node ids must be contiguous from 0 "
                               f"(expected {ln - 2}, got {node_id})")
        if labeled:
            lab = _ref_parse_int(parts[1], nodes_path, ln)
            if not 0 <= lab < n_classes:
                raise DatasetError(f"{nodes_path}:{ln}: label {lab} outside [0, {n_classes})")
            labels[node_id] = lab

    edges_path = path / "edges.tsv"
    _, edge_rows = _ref_read_rows(edges_path, ["src", "dst"])
    raw = np.zeros((len(edge_rows), 2), dtype=np.int64)
    for ln, row in enumerate(edge_rows, start=2):
        parts = row.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{edges_path}:{ln}: malformed line")
        a = _ref_parse_int(parts[0], edges_path, ln)
        b = _ref_parse_int(parts[1], edges_path, ln)
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
        _, feat_rows = _ref_read_rows(dense_path)
        if len(feat_rows) != n:
            raise DatasetError(f"{dense_path}: {len(feat_rows)} rows, meta says {n}")
        for ln, row in enumerate(feat_rows, start=2):
            parts = row.split("\t")
            if len(parts) != d + 1:
                raise DatasetError(f"{dense_path}:{ln}: expected {d + 1} columns, "
                                   f"got {len(parts)}")
            node_id = _ref_parse_int(parts[0], dense_path, ln)
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
        _, feat_rows = _ref_read_rows(sparse_path, ["node_id", "feature_index", "value"])
        rows, cols, values = [], [], []
        for ln, row in enumerate(feat_rows, start=2):
            parts = row.split("\t")
            if len(parts) != 3:
                raise DatasetError(f"{sparse_path}:{ln}: malformed line")
            node_id = _ref_parse_int(parts[0], sparse_path, ln)
            fidx = _ref_parse_int(parts[1], sparse_path, ln)
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
            _ref_raise_first_duplicate(rows, cols, sparse_path)
        x[rows, cols] = values
    else:
        raise DatasetError(f"{path}: missing features.tsv (or features.sparse.tsv)")

    return Graph(n, edges, x, labels)



def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def _dataset(tmp_path, fmt):
    """A valid 6-node, 3-class dataset with dense or sparse features."""
    ds = tmp_path / fmt
    save_dataset(random_graph(4, n=6), ds)
    if fmt == "sparse":
        x = load_dataset(ds).features
        (ds / "features.tsv").unlink()
        _write_lines(ds / "features.sparse.tsv", ["node_id\tfeature_index\tvalue"] + [
            f"{i}\t{j}\t{float(x[i, j])!r}" for i, j in zip(*np.nonzero(x))])
    return ds


def _line(i, text):
    return lambda lines: lines[:i] + [text] + lines[i + 1:]


def _field(i, j, token):
    def edit(lines):
        parts = lines[i].split("\t")
        parts[j] = token
        return _line(i, "\t".join(parts))(lines)
    return edit


def _append(text):
    return lambda lines: lines + [text]


def _drop(i):
    return lambda lines: [line for k, line in enumerate(lines) if k != i % len(lines)]


def _repeat_entry(lines):
    node, feat, _ = lines[2].split("\t")
    return lines + [f"{node}\t{feat}\t7.5"]


SPARSE = "features.sparse.tsv"

# (fault, feature format, file, edit of its lines or None to delete it)
SINGLE_FAULTS = [
    ("bad int", "dense", "edges.tsv", _field(1, 1, "nope")),
    ("bad int in meta", "dense", "meta.tsv", _field(1, 1, "six")),
    ("bad sparse int", "sparse", SPARSE, _field(2, 1, "1.0")),
    ("bad float", "dense", "features.tsv", _field(2, 2, "abc")),
    ("bad sparse float", "sparse", SPARSE, _field(2, 2, "1,5")),
    ("non-contiguous id", "dense", "nodes.tsv", _field(2, 0, "5")),
    ("label out of range", "dense", "nodes.tsv", _field(3, 1, "7")),
    ("negative label", "dense", "nodes.tsv", _field(3, 1, "-1")),
    ("edge out of range", "dense", "edges.tsv", _append("0\t99")),
    ("self-loop", "dense", "edges.tsv", _append("2\t2")),
    ("dense row order", "dense", "features.tsv", _field(3, 0, "0")),
    ("sparse index out of range", "sparse", SPARSE, _append("3\t99\t1.0")),
    ("sparse node out of range", "sparse", SPARSE, _append("-1\t0\t1.0")),
    ("dense non-finite", "dense", "features.tsv", _field(3, 2, "nan")),
    ("sparse non-finite", "sparse", SPARSE, _field(3, 2, "-inf")),
    ("duplicate sparse entry", "sparse", SPARSE, _repeat_entry),
    ("node row count", "dense", "nodes.tsv", _drop(-1)),
    ("feature row count", "dense", "features.tsv", _drop(-1)),
    ("missing meta key", "dense", "meta.tsv", _drop(3)),
    ("header mismatch", "dense", "edges.tsv", _line(0, "src\tdest")),
    ("meta header mismatch", "dense", "meta.tsv", _line(0, "key\tval")),
    ("sparse header mismatch", "sparse", SPARSE, _line(0, "node\tfeature_index\tvalue")),
    ("unrecognized nodes header", "dense", "nodes.tsv", _line(0, "id\tlabel")),
    ("empty file", "dense", "edges.tsv", lambda lines: []),
    ("missing file", "dense", "nodes.tsv", None),
]

# the loader names these `expected W columns, got K`; only `path:line` is compared
COLUMN_FAULTS = [
    ("long edge line", "dense", "edges.tsv", _append("0\t1\t2")),
    ("blank edge line", "dense", "edges.tsv", _append("")),
    ("short node line", "dense", "nodes.tsv", _line(2, "1")),
    ("long then short node line", "dense", "nodes.tsv",
     lambda lines: _line(2, "1")(_line(1, "0\t0\t0")(lines))),
    ("long meta line", "dense", "meta.tsv", _line(1, "n_nodes\t6\t0")),
    ("short dense line", "dense", "features.tsv", _line(2, "1\t0.5")),
    ("short sparse line", "sparse", SPARSE, _line(2, "0\t1")),
    ("short edge header", "dense", "edges.tsv", _line(0, "src")),
    ("long meta header", "dense", "meta.tsv", _line(0, "key\tvalue\tnote")),
]


def _messages(tmp_path, fmt, name, edit):
    ds = _dataset(tmp_path, fmt)
    if edit is None:
        (ds / name).unlink()
    else:
        _write_lines(ds / name, edit((ds / name).read_text().splitlines()))
    messages = []
    for load in (load_dataset, _reference_load):
        with pytest.raises(DatasetError) as err:
            load(ds)
        messages.append(str(err.value))
    return messages


class TestLoaderMatchesReference:
    """`load_dataset` against the per-line loader it replaced."""

    @pytest.fixture(autouse=True, params=["one block", "one row per block"])
    def block(self, request, monkeypatch):
        if request.param == "one row per block":
            monkeypatch.setattr(dataio, "_BLOCK_CELLS", 1)

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_valid_datasets_load_identically(self, tmp_path, fmt):
        ds = _dataset(tmp_path, fmt)
        with open(ds / "edges.tsv", "a") as f:     # one duplicate edge, dropped with a warning
            f.write((ds / "edges.tsv").read_text().splitlines()[1] + "\n")
        with pytest.warns(UserWarning, match="duplicate"):
            g = load_dataset(ds)
        with pytest.warns(UserWarning, match="duplicate"):
            ref = _reference_load(ds)
        assert g.n_nodes == ref.n_nodes
        for got, want in ((g.edges, ref.edges), (g.features, ref.features),
                          (g.labels, ref.labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fault, fmt, name, edit", SINGLE_FAULTS,
                             ids=[f[0] for f in SINGLE_FAULTS])
    def test_single_fault_same_message(self, tmp_path, fault, fmt, name, edit):
        got, want = _messages(tmp_path, fmt, name, edit)
        assert got == want

    @pytest.mark.parametrize("fault, fmt, name, edit", COLUMN_FAULTS,
                             ids=[f[0] for f in COLUMN_FAULTS])
    def test_column_fault_same_line(self, tmp_path, fault, fmt, name, edit):
        got, want = _messages(tmp_path, fmt, name, edit)
        assert got.split(": ", 1)[0] == want.split(": ", 1)[0]
        assert re.search(r": expected \d+ columns, got \d+$", got)


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# a comment\n"
            "dataset = data/acm\n"
            "lr = 0.005\n"
            "knn_k = 9   # inline comment\n"
            "closeness_weight = 0.01\n"
        )
        parsed = parse_config(cfg_file)
        assert parsed == {"dataset": "data/acm", "lr": 0.005, "knn_k": 9,
                          "closeness_weight": 0.01}
        cfg = config_to_train_config(parsed)
        assert cfg.lr == 0.005 and cfg.knn_k == 9
        assert cfg.loss_weights.closeness == 0.01
        assert cfg.prop_weight == 0.8 and cfg.common_mix == 0.85  # defaults kept

    # the last three are the removed model switches: an old config naming
    # one must fail, not silently train the one remaining model
    @pytest.mark.parametrize("line", ["learning_rate = 0.01", "attention_variant = softmax",
                                      "ce_reduction = mean", "residual_form = literal"])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(DatasetError, match=f"unknown config key '{key}'"):
            parse_config(cfg_file)

    def test_bad_value_type(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("epochs = soon\n")
        with pytest.raises(DatasetError, match="cannot parse"):
            parse_config(cfg_file)

    def test_keys_follow_train_config(self):
        assert CONFIG_KEYS == {
            "dataset": str, "out_dir": str, "prop_weight": float, "common_mix": float,
            "knn_k": int, "hidden_dim": int, "classification_weight": float,
            "closeness_weight": float, "disparity_weight": float, "lr": float,
            "weight_decay": float, "epochs": int, "patience": int, "seed": int,
            "train_per_class": int, "val_per_class": int,
        }

    def test_readme_lists_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1]
        keys = next(p for p in section.split("\n\n") if p.startswith("Keys:"))
        assert sorted(re.findall(r"`(\w+)`", keys)) == sorted(CONFIG_KEYS)

    def test_seed_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 3\n")
        cfg = config_to_train_config(parse_config(cfg_file), seed_override=11)
        assert cfg.seed == 11


def toy_trace(n_epochs):
    records = [EpochRecord(e, 1.5 / e, 1.0 / e, 0.25, 0.25, 0.5, 0.6, 0.7,
                           1.1, 1.2, 1.3) for e in range(1, n_epochs + 1)]
    return RunTrace(records, best_epoch=max(1, n_epochs), final_accuracy=0.7,
                    final_macro_f1=0.65)


class TestEmitTrace:
    def test_three_epochs_four_lines(self, tmp_path):
        emit_trace(toy_trace(3), tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == ("epoch,loss_total,loss_cl,loss_c,loss_d,"
                            "train_acc,val_acc,test_acc,attn_T,attn_F,attn_C")

    def test_parse_back_within_precision(self, tmp_path):
        trace = toy_trace(5)
        emit_trace(trace, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
        for rec, line in zip(trace.records, lines):
            cells = line.split(",")
            assert int(cells[0]) == rec.epoch
            assert float(cells[1]) == pytest.approx(rec.loss_total, abs=5e-7)
            assert float(cells[8]) == pytest.approx(rec.attn_t, abs=5e-7)

    def test_empty_trace_header_only(self, tmp_path):
        emit_trace(RunTrace([], 0, 0.0, 0.0), tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().count("\n") == 1


class TestParamsRoundTrip:
    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(0)
        params = init_params(5, 3, 4, rng)
        save_params(params, tmp_path / "p.npz")
        loaded = load_params(tmp_path / "p.npz", 5, 3)
        assert set(loaded) == set(params)
        for k in params:
            npt.assert_array_equal(loaded[k], params[k])

    @pytest.mark.parametrize("d, c", [(6, 3), (5, 2)])
    def test_shape_mismatch_names_file_and_counts(self, tmp_path, d, c):
        save_params(init_params(5, 3, 4, np.random.default_rng(0)), tmp_path / "p.npz")
        with pytest.raises(DatasetError, match=rf"p\.npz is for 5 features and 3 classes, "
                           rf"but the dataset has {d} features and {c} classes"):
            load_params(tmp_path / "p.npz", d, c)

    @pytest.mark.parametrize("name, shape, listed", [
        ("topo_w0", (4, 3), r"topo_w0 \(4, 3\) \(expected \(4, 4\)\)"),
        ("input_w1", (5, 0), r"input_w1 \(5, 0\) \(expected \(5, 1\)\)"),
        ("input_w1", (5,), r"input_w1 \(5,\) \(expected \(5, 1\)\)"),
    ])
    def test_malformed_shape_listed(self, tmp_path, name, shape, listed):
        params = init_params(5, 3, 4, np.random.default_rng(0))
        params[name] = np.zeros(shape)
        save_params(params, tmp_path / "p.npz")
        with pytest.raises(DatasetError, match="wrong shapes: " + listed):
            load_params(tmp_path / "p.npz", 5, 3)
