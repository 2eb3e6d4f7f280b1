import numpy as np
import numpy.testing as npt
import pytest

from fusegcn.dataio import (
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
from fusegcn.graphs import knn_feature_graph
from fusegcn.model import ModelParams
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

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("learning_rate = 0.01\n")
        with pytest.raises(DatasetError, match="unknown config key"):
            parse_config(cfg_file)

    def test_bad_value_type(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("epochs = soon\n")
        with pytest.raises(DatasetError, match="cannot parse"):
            parse_config(cfg_file)

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
        params = ModelParams.init(5, 3, 4, rng)
        save_params(params, tmp_path / "p.npz")
        loaded = load_params(tmp_path / "p.npz")
        assert set(loaded.arrays) == set(params.arrays)
        for k in params.arrays:
            npt.assert_array_equal(loaded.arrays[k], params.arrays[k])
