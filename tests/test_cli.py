import json
import re
import sys
import warnings

import numpy as np
import pytest

from fusegcn import cli, heterophily
from fusegcn.cli import cli_dispatch
from fusegcn.dataio import load_dataset, save_dataset, save_params
from fusegcn.graphs import homophily_ratio
from fusegcn.heterophily import InjectionBudgetError, SynthSpec, generate_synthetic
from fusegcn.model import init_params
from fusegcn.training import model_gradient_check
from tests.test_autodiff import tapes_left_by
from tests.test_graphs import make_graph


@pytest.fixture
def four_node_ds(tmp_path):
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 0, 1, 1], d=3, seed=0)
    save_dataset(g, tmp_path / "fixture")
    return tmp_path / "fixture"


@pytest.fixture
def synth_ds(tmp_path):
    g = generate_synthetic(SynthSpec(60, 2, p_intra=0.25, p_inter=0.02,
                                     n_features=8, seed=42))
    save_dataset(g, tmp_path / "synth")
    return tmp_path / "synth"


def tiny_config(tmp_path, **extra):
    lines = {"epochs": 6, "patience": 6, "hidden_dim": 8, "knn_k": 3,
             "train_per_class": 5, "val_per_class": 3, "seed": 0}
    lines.update(extra)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return cfg


class TestDispatch:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli_dispatch(["homophily"]) == 1

    def test_data_error_exits_2(self, tmp_path, capsys):
        assert cli_dispatch(["homophily", "--data", str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().err

    # 5 x 300e9 doubles fail to allocate; 5 x 2**62 doubles overflow the size,
    # and so does the sparse key 4 * 2**62 + 0, which then equals node 0's
    @pytest.mark.parametrize("n_features", [300_000_000_000, 2**62])
    def test_unallocatable_dense_features_exit_2(self, tmp_path, capsys, n_features):
        for name, text in (
                ("meta.tsv", f"key\tvalue\nn_nodes\t5\nn_classes\t2\nn_features\t{n_features}\n"),
                ("nodes.tsv", "node_id\tlabel\n0\t0\n1\t1\n2\t0\n3\t1\n4\t0\n"),
                ("edges.tsv", "src\tdst\n0\t1\n"),
                ("features.sparse.tsv", "node_id\tfeature_index\tvalue\n0\t0\t1.0\n4\t0\t1.0\n")):
            (tmp_path / name).write_text(text)
        assert cli_dispatch(["homophily", "--data", str(tmp_path)]) == 2
        assert (f"meta.tsv: n_nodes 5 x n_features {n_features} is too large"
                in capsys.readouterr().err)

    # the two mixing weights are model constants: a config that sets one fails
    # in every command that reads a config
    @pytest.mark.parametrize("key", ["prop_weight", "common_mix"])
    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_mixing_weight_key_exits_2(self, synth_ds, tmp_path, capsys, command, key):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text(f"{key} = 0.5\n")
        args = [command, "--config", str(cfg), "--data", str(synth_ds)]
        args += (["--params", str(tmp_path / "params.npz")] if command == "eval"
                 else ["--out", str(tmp_path / "run")])
        assert cli_dispatch(args) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestHomophilyCommand:
    def test_fixture_values(self, four_node_ds, capsys):
        assert cli_dispatch(["homophily", "--data", str(four_node_ds)]) == 0
        out = capsys.readouterr().out
        assert "homophily\t0.666667" in out
        assert "heterophily\t0.333333" in out


class TestTrainCommand:
    def test_writes_outputs(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "run"
        rc = cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                           "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").is_file()
        assert (out / "params.npz").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["epochs_run"] == 6

    # the paths come from --data and --out only
    @pytest.mark.parametrize("flag", ["--data", "--out"])
    def test_missing_path_flag_exits_1(self, synth_ds, tmp_path, capsys, flag):
        paths = {"--data": str(synth_ds), "--out": str(tmp_path / "run")}
        del paths[flag]
        assert cli_dispatch(["train", *(x for kv in paths.items() for x in kv)]) == 1
        assert f"the following arguments are required: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["dataset", "out_dir"])
    def test_path_config_key_exits_2(self, synth_ds, tmp_path, capsys, key):
        cfg = tmp_path / "paths.cfg"
        cfg.write_text(f"{key} = {tmp_path / 'elsewhere'}\n")
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_zero_lr_flat_trace(self, synth_ds, tmp_path):
        cfg = tiny_config(tmp_path, lr=0.0, weight_decay=0.0, epochs=4)
        out = tmp_path / "flat"
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        losses = {r.split(",")[1] for r in rows}
        assert len(losses) == 1

    def test_non_finite_loss_exits_2(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path, lr=1e30)
        with np.errstate(all="ignore"):
            assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                                 "--out", str(tmp_path / "diverged")]) == 2
        assert "error: non-finite loss at epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["knn-graph", "--k", "3"]])
    def test_non_finite_feature_exits_2(self, synth_ds, tmp_path, capsys, command):
        feats = synth_ds / "features.tsv"
        lines = feats.read_text().splitlines()
        lines[5] = lines[5].rsplit("\t", 1)[0] + "\tnan"
        feats.write_text("\n".join(lines) + "\n")
        assert cli_dispatch(command + ["--data", str(synth_ds),
                                       "--out", str(tmp_path / "out")]) == 2
        assert "features.tsv:6: non-finite feature value" in capsys.readouterr().err

    def test_determinism_byte_identical_traces(self, synth_ds, tmp_path):
        cfg = tiny_config(tmp_path)
        rc1 = cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                            "--out", str(tmp_path / "r1")])
        rc2 = cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                            "--out", str(tmp_path / "r2")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "r1" / "trace.csv").read_bytes() == \
               (tmp_path / "r2" / "trace.csv").read_bytes()

    def test_baseline_models(self, synth_ds, tmp_path):
        cfg = tiny_config(tmp_path)
        for model in ("gcn", "knn-gcn"):
            rc = cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                               "--out", str(tmp_path / model), "--model", model])
            assert rc == 0

    def test_eval_roundtrip(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "trained"
        cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                      "--out", str(out)])
        train_metrics = json.loads((out / "metrics.json").read_text())
        capsys.readouterr()
        rc = cli_dispatch(["eval", "--data", str(synth_ds),
                           "--params", str(out / "params.npz"), "--config", str(cfg)])
        assert rc == 0
        eval_metrics = json.loads(capsys.readouterr().out)
        assert eval_metrics["test_accuracy"] == pytest.approx(train_metrics["accuracy"])

    def test_eval_leaves_no_tape(self, synth_ds, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "trained"
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(out)]) == 0
        monkeypatch.setattr(sys, "argv", ["fusegcn", "eval", "--data", str(synth_ds),
                                          "--params", str(out / "params.npz"),
                                          "--config", str(cfg)])

        def run_eval():
            with pytest.raises(SystemExit) as exit_info:
                cli.main()
            assert exit_info.value.code == 0

        assert tapes_left_by(run_eval) == []

    @pytest.mark.parametrize("model, message", [
        ("gcn", "missing input_w1, input_b1, .*; unexpected w0, w1"),
        ("full", "missing none; unexpected comb_w1"),
    ])
    def test_eval_rejects_other_parameters(self, synth_ds, tmp_path, capsys, model, message):
        cfg = tiny_config(tmp_path)
        out = tmp_path / model
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(out), "--model", model]) == 0
        params = out / "params.npz"
        if model == "full":     # a file of the removed two-layer combiner
            with np.load(params) as data:
                arrays = dict(data)
            np.savez(params, comb_w1=np.zeros((8, 8)), **arrays)
        capsys.readouterr()
        assert cli_dispatch(["eval", "--data", str(synth_ds), "--params", str(params),
                             "--config", str(cfg)]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_zero_validation_nodes_exits_2(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path, val_per_class=0)
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 2
        assert "val_per_class" in capsys.readouterr().err

    def test_removed_model_switch_exits_2(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path, attention_variant="softmax")
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 2
        assert "unknown config key 'attention_variant'" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["truncated", "empty", "npy", "garbage"])
    def test_eval_unreadable_params_exits_2(self, synth_ds, tmp_path, capsys, fault):
        real = tmp_path / "real.npz"
        save_params(init_params(8, 2, 8, np.random.default_rng(0)), real)
        params = tmp_path / "params.npz"
        if fault == "npy":
            with open(params, "wb") as f:
                np.save(f, np.zeros((8, 8)))
        else:
            params.write_bytes({"truncated": real.read_bytes()[:300], "empty": b"",
                                "garbage": b"garbage"}[fault])
        assert cli_dispatch(["eval", "--data", str(synth_ds), "--params", str(params),
                             "--config", str(tiny_config(tmp_path))]) == 2
        assert f"params file {params} is not a readable .npz archive" in capsys.readouterr().err

    def test_eval_params_of_other_feature_count_exits_2(self, tmp_path, capsys):
        data = {}
        for dim in ("4", "6"):
            data[dim] = tmp_path / f"d{dim}"
            assert cli_dispatch(["synth", "--nodes", "120", "--classes", "2", "--dim", dim,
                                 "--seed", "0", "--out", str(data[dim])]) == 0
        cfg = tiny_config(tmp_path)
        assert cli_dispatch(["train", "--data", str(data["4"]), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 0
        params = tmp_path / "run" / "params.npz"
        capsys.readouterr()
        assert cli_dispatch(["eval", "--data", str(data["6"]), "--params", str(params),
                             "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"params file {params} is for 4 features and 2 classes" in err
        assert "the dataset has 6 features and 2 classes" in err

    def test_negative_seed_flag_exits_2(self, synth_ds, tmp_path, capsys):
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config",
                             str(tiny_config(tmp_path)), "--seed", "-1",
                             "--out", str(tmp_path / "run")]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_config_seed_exits_2(self, synth_ds, tmp_path, capsys):
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config",
                             str(tiny_config(tmp_path, seed=-1)),
                             "--out", str(tmp_path / "run")]) == 2
        assert "bad config: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_lr_exits_2(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path, lr=-0.05)
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 2
        assert "bad config: lr must be finite and >= 0, got -0.05" in capsys.readouterr().err

    def test_zero_knn_k_exits_2_naming_the_key(self, synth_ds, tmp_path, capsys):
        cfg = tiny_config(tmp_path, knn_k=0)
        assert cli_dispatch(["train", "--data", str(synth_ds), "--config", str(cfg),
                             "--out", str(tmp_path / "run")]) == 2
        assert "bad config: knn_k must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestGraphCommands:
    def test_knn_graph_output_unlabeled(self, synth_ds, tmp_path, capsys):
        out = tmp_path / "knn"
        assert cli_dispatch(["knn-graph", "--data", str(synth_ds), "--k", "3",
                             "--out", str(out)]) == 0
        g = load_dataset(out)
        assert g.labels is None
        assert g.n_edges >= 60 * 3 / 2

    def test_inject_decreases_homophily(self, synth_ds, tmp_path, capsys):
        out = tmp_path / "injected"
        rc = cli_dispatch(["inject", "--data", str(synth_ds), "--target-het", "0.6",
                           "--seed", "7", "--out", str(out)])
        assert rc == 0
        before = homophily_ratio(load_dataset(synth_ds))
        after = homophily_ratio(load_dataset(out))
        assert after <= before
        assert (1.0 - after) == pytest.approx(0.6, abs=0.01)

    def test_injection_budget_overrun_exits_2(self, synth_ds, tmp_path, monkeypatch, capsys):
        def out_of_draws(g, k, seed):
            raise InjectionBudgetError("edge injection exceeded its sampling budget")

        monkeypatch.setattr(cli, "inject_heterophilous_edges", out_of_draws)
        monkeypatch.setattr(heterophily, "inject_heterophilous_edges", out_of_draws)
        assert cli_dispatch(["inject", "--data", str(synth_ds), "--target-het", "0.6",
                             "--out", str(tmp_path / "injected")]) == 2
        assert "error: edge injection exceeded" in capsys.readouterr().err
        assert cli_dispatch(["sweep", "--data", str(synth_ds), "--config",
                             str(tiny_config(tmp_path)), "--out", str(tmp_path / "sw"),
                             "--levels", "2"]) == 2
        assert "error: edge injection exceeded" in capsys.readouterr().err

    def test_inject_seed_reproducible(self, synth_ds, tmp_path):
        for name in ("a", "b"):
            cli_dispatch(["inject", "--data", str(synth_ds), "--target-het", "0.5",
                          "--seed", "9", "--out", str(tmp_path / name)])
        assert (tmp_path / "a" / "edges.tsv").read_bytes() == \
               (tmp_path / "b" / "edges.tsv").read_bytes()

    def test_synth_command(self, tmp_path, capsys):
        rc = cli_dispatch(["synth", "--nodes", "40", "--classes", "2", "--p-in", "0.3",
                           "--p-out", "0.02", "--dim", "6", "--seed", "5",
                           "--out", str(tmp_path / "s")])
        assert rc == 0
        g = load_dataset(tmp_path / "s")
        assert g.n_nodes == 40 and g.features.shape[1] == 6

    def test_synth_seed_reproducible(self, tmp_path):
        for name in ("sa", "sb"):
            cli_dispatch(["synth", "--nodes", "30", "--classes", "3", "--seed", "4",
                          "--out", str(tmp_path / name)])
        assert (tmp_path / "sa" / "edges.tsv").read_bytes() == \
               (tmp_path / "sb" / "edges.tsv").read_bytes()
        assert (tmp_path / "sa" / "features.tsv").read_bytes() == \
               (tmp_path / "sb" / "features.tsv").read_bytes()

    def test_synth_bad_sizes_data_error(self, tmp_path):
        assert cli_dispatch(["synth", "--nodes", "10", "--classes", "2",
                             "--class-sizes", "3,3", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--dim", "0"], "at least one class and one feature"),
        (["--noise", "nan"], "must be finite"),
        (["--noise=-inf"], "must be finite"),
        (["--sep", "inf"], "must be finite"),
        (["--noise", "1e308"], "features overflow"),
    ])
    def test_synth_rejects_what_the_loader_would(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert cli_dispatch(["synth", "--nodes", "20", "--classes", "2", *flags,
                             "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--nodes", "-3", "--classes", "1"], "n_nodes must be >= 1, got -3"),
        (["--nodes", "10", "--classes", "2", "--class-sizes", "12,-2"],
         "class_sizes must be >= 0, got (12, -2)"),
        (["--nodes", "10", "--classes", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_synth_negative_size_or_seed_named(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert cli_dispatch(["synth", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_class_sizes_not_integers_exits_1(self, tmp_path, capsys):
        assert cli_dispatch(["synth", "--nodes", "6", "--classes", "2", "--class-sizes", "3,x",
                             "--out", str(tmp_path / "x")]) == 1
        assert "argument --class-sizes: must be comma-separated integers" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--p-in", "0", "--p-out", "0"],
        ["--dim", "1", "--classes", "3"],
        ["--sep", "0", "--noise", "0"],
        ["--sep", "1e300", "--noise", "1e300"],
        ["--class-sizes", "20,0"],
    ])
    def test_every_synth_dataset_loads(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert cli_dispatch(["synth", "--nodes", "20", "--classes", "2", *flags,
                             "--out", str(out)]) == 0
        g = load_dataset(out)
        assert g.n_nodes == 20
        summary = capsys.readouterr().out
        assert ("homophily" in summary) == (g.n_edges > 0)

    def test_inject_negative_seed_exits_2(self, synth_ds, tmp_path, capsys):
        out = tmp_path / "injected"
        assert cli_dispatch(["inject", "--data", str(synth_ds), "--target-het", "0.6",
                             "--seed", "-3", "--out", str(out)]) == 2
        assert "error: --seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_inject_non_finite_target_exits_2(self, synth_ds, tmp_path, capsys, target):
        assert cli_dispatch(["inject", "--data", str(synth_ds), f"--target-het={target}",
                             "--out", str(tmp_path / "injected")]) == 2
        assert "target heterophily must be finite" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        g = generate_synthetic(SynthSpec(60, 2, p_intra=0.04, p_inter=0.004,
                                         n_features=8, seed=21))
        save_dataset(g, tmp_path / "ds")
        cfg = tiny_config(tmp_path, epochs=4, patience=4)
        rc = cli_dispatch(["sweep", "--data", str(tmp_path / "ds"), "--config", str(cfg),
                           "--out", str(tmp_path / "sw"), "--levels", "3"])
        assert rc == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "heterophily,accuracy,macro_f1"
        assert len(lines) == 4
        levels = [float(l.split(",")[0]) for l in lines[1:]]
        assert levels == sorted(levels)

    @pytest.mark.parametrize("flag, value, message", [
        ("--levels", "0", "a sweep needs at least one level"),
        ("--levels", "-2", "a sweep needs at least one level, got n_levels=-2"),
        ("--max-het", "nan", "levels must be finite"),
    ])
    def test_bad_plan_exits_2(self, synth_ds, tmp_path, capsys, flag, value, message):
        assert cli_dispatch(["sweep", "--data", str(synth_ds), "--config",
                             str(tiny_config(tmp_path)), "--out", str(tmp_path / "sw"),
                             flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["1", "2", "10"])
    @pytest.mark.parametrize("max_het", ["0.99", "inf"])
    def test_max_het_bound_whatever_the_level_count(self, synth_ds, tmp_path, capsys,
                                                     levels, max_het):
        # warnings are errors: no numpy RuntimeWarning may precede the message
        assert cli_dispatch(["sweep", "--data", str(synth_ds), "--config",
                             str(tiny_config(tmp_path)), "--out", str(tmp_path / "sw"),
                             "--levels", levels, "--max-het", max_het]) == 2
        assert capsys.readouterr().err == (
            f"error: levels must be finite and at most 0.95, got max_level={float(max_het)}\n")
        assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("command, message", [
    ("train", "training requires a labeled dataset"),
    ("eval", "evaluation requires a labeled dataset"),
    ("sweep", "the sweep requires a labeled dataset"),
])
def test_unlabeled_dataset_exits_2(synth_ds, tmp_path, capsys, command, message):
    unlabeled = tmp_path / "knn"
    assert cli_dispatch(["knn-graph", "--data", str(synth_ds), "--k", "3",
                         "--out", str(unlabeled)]) == 0
    capsys.readouterr()
    args = [command, "--data", str(unlabeled)]
    args += (["--params", str(tmp_path / "params.npz")] if command == "eval"
             else ["--out", str(tmp_path / "run")])
    assert cli_dispatch(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


class TestGradcheckCommand:
    def test_small_gradcheck_passes(self, capsys):
        rc = cli_dispatch(["gradcheck", "--nodes", "8", "--dim", "4", "--classes", "2",
                           "--hidden", "5", "--seed", "3"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_library_default_is_the_command_default(self, capsys):
        # one default seed: criterion 1 and the README quote `fusegcn gradcheck`
        assert cli_dispatch(["gradcheck"]) == 0
        assert capsys.readouterr().out == f"{model_gradient_check()}\n"

    def test_negative_seed_exits_2(self, capsys):
        assert cli_dispatch(["gradcheck", "--nodes", "8", "--dim", "4", "--classes", "2",
                             "--hidden", "5", "--seed", "-1"]) == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "0"])
    def test_bad_eps_exits_2(self, eps, capsys):
        assert cli_dispatch(["gradcheck", "--nodes", "8", "--dim", "4", "--classes", "2",
                             "--hidden", "5", "--eps", eps]) == 2
        assert "eps must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tolerance", "-1", "tolerance must be finite and >= 0, got -1.0"),
        ("--tolerance", "nan", "tolerance must be finite and >= 0, got nan"),
        ("--nodes", "0", "n must be >= 1, got 0"),
        ("--nodes", "1", "class 0 has 1 nodes, needs 3 for the split"),
        ("--hidden", "0", "hidden_dim must be >= 1, got 0"),
        ("--dim", "0", "d must be >= 1, got 0"),
        ("--classes", "0", "c must be >= 1, got 0"),
    ])
    def test_bad_argument_exits_2_naming_it(self, flag, value, message, capsys):
        # with warnings as errors: no RuntimeWarning may precede the message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_dispatch(["gradcheck", flag, value]) == 2
        out = capsys.readouterr()
        assert message in out.err and out.out == ""

    def test_config_flag_exits_1(self, tmp_path, capsys):
        # the check has one configuration: all three loss weights are 1
        cfg = tmp_path / "weights.cfg"
        cfg.write_text("closeness_weight = 0.5\n")
        assert cli_dispatch(["gradcheck", "--config", str(cfg)]) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err
