from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fusegcn.graphs import knn_feature_graph, normalized_adjacency
from fusegcn.heterophily import SynthSpec, generate_synthetic
from fusegcn.losses import LossWeights
from fusegcn import autodiff as ad
from fusegcn import model as M
from fusegcn.autodiff import Tape, backward
from fusegcn import training
from fusegcn.training import (
    TrainConfig,
    adam_step,
    attention_norm_trace,
    evaluate,
    full_objective,
    init_adam_state,
    make_split,
    model_gradient_check,
    train,
    train_baseline,
)
from tests.test_autodiff import tapes_left_by


def small_dataset(seed=0, n=60, p_intra=0.25, p_inter=0.02):
    g = generate_synthetic(SynthSpec(n, 2, p_intra=p_intra, p_inter=p_inter,
                                     n_features=8, seed=seed))
    return g, knn_feature_graph(g.features, 3)


def small_cfg(**kw):
    defaults = dict(hidden_dim=8, knn_k=3, epochs=15, patience=15, seed=0,
                    train_per_class=5, val_per_class=3,
                    loss_weights=LossWeights(1.0, 1e-4, 1e-3))
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture
def backward_calls(monkeypatch):
    calls = []

    def counting_backward(tape, loss):
        calls.append(tape)
        backward(tape, loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    return calls


class TestTrainConfig:
    def test_validation(self):
        # each of these breaks training or early stopping; the message names
        # the field and its value
        for bad, message in ((dict(epochs=0), "epochs must be >= 1, got 0"),
                             (dict(val_per_class=0), "val_per_class must be >= 1, got 0"),
                             (dict(train_per_class=-3), "train_per_class must be >= 1, got -3"),
                             (dict(patience=0), "patience must be >= 1, got 0"),
                             (dict(hidden_dim=0), "hidden_dim must be >= 1, got 0"),
                             (dict(knn_k=0), "knn_k must be >= 1, got 0"),
                             (dict(lr=-0.05), "lr must be finite and >= 0, got -0.05"),
                             (dict(lr=np.nan), "lr must be finite and >= 0, got nan"),
                             (dict(lr=np.inf), "lr must be finite and >= 0, got inf"),
                             (dict(weight_decay=-5.0),
                              "weight_decay must be finite and >= 0, got -5.0"),
                             (dict(weight_decay=np.nan),
                              "weight_decay must be finite and >= 0, got nan")):
            with pytest.raises(ValueError, match=message):
                TrainConfig(**bad)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestMakeSplit:
    def test_counts_two_classes(self):
        g = generate_synthetic(SynthSpec(200, 2, seed=1))
        cfg = TrainConfig(train_per_class=40, val_per_class=20, seed=5)
        s = make_split(g, cfg)
        assert len(s.train) == 80 and len(s.val) == 40 and len(s.test) == 80
        for c in (0, 1):
            assert np.count_nonzero(g.labels[s.train] == c) == 40
            assert np.count_nonzero(g.labels[s.val] == c) == 20

    def test_disjoint_and_total(self):
        g = generate_synthetic(SynthSpec(150, 3, seed=2))
        s = make_split(g, TrainConfig(train_per_class=10, val_per_class=5, seed=9))
        all_ids = np.concatenate([s.train, s.val, s.test])
        assert len(np.unique(all_ids)) == 150

    def test_deterministic(self):
        g = generate_synthetic(SynthSpec(150, 3, seed=3))
        cfg = TrainConfig(train_per_class=10, val_per_class=5, seed=4)
        a, b = make_split(g, cfg), make_split(g, cfg)
        npt.assert_array_equal(a.train, b.train)
        npt.assert_array_equal(a.val, b.val)
        # the draw follows the config's seed
        assert not np.array_equal(make_split(g, replace(cfg, seed=5)).train, a.train)

    def test_class_too_small_errors(self):
        g = generate_synthetic(SynthSpec(30, 2, seed=4))
        with pytest.raises(ValueError, match="class"):
            make_split(g, TrainConfig(train_per_class=14, val_per_class=5))
        # every class exactly fills train + validation: no test node is left
        g = generate_synthetic(SynthSpec(400, 5, seed=4))
        with pytest.raises(ValueError, match="no test nodes"):
            make_split(g, TrainConfig(train_per_class=40, val_per_class=40))

    def test_unlabeled_graph_rejected(self):
        g = knn_feature_graph(generate_synthetic(SynthSpec(30, 2, seed=4)).features, 3)
        with pytest.raises(ValueError, match="cannot split an unlabeled graph"):
            make_split(g, TrainConfig())


class TestAdamStep:
    def test_zero_grad_zero_state_only_decays(self):
        params = {"w": np.full((2, 2), 2.0), "b": np.full((1, 2), 2.0)}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = init_adam_state(params)
        adam_step(params, grads, state, lr=0.1, weight_decay=0.5, t=1, bias_names={"b"})
        npt.assert_allclose(params["w"], np.full((2, 2), 2.0 * (1 - 0.1 * 0.5)))
        npt.assert_allclose(params["b"], np.full((1, 2), 2.0))

    def test_first_step_is_signed_lr(self):
        params = {"w": np.zeros((2, 2))}
        grads = {"w": np.array([[3.0, -0.5], [10.0, -2.0]])}
        state = init_adam_state(params)
        adam_step(params, grads, state, lr=0.01, weight_decay=0.0, t=1)
        npt.assert_allclose(params["w"], -0.01 * np.sign(grads["w"]), rtol=1e-6)

    def test_zero_decay_zero_grad_is_identity(self):
        params = {"w": np.full((2, 2), 1.5)}
        state = init_adam_state(params)
        adam_step(params, {"w": np.zeros((2, 2))}, state, lr=0.1, weight_decay=0.0, t=1)
        npt.assert_array_equal(params["w"], np.full((2, 2), 1.5))

    def test_two_steps_reproducible(self):
        def run():
            params = {"w": np.ones((2, 2))}
            state = init_adam_state(params)
            for t in (1, 2):
                adam_step(params, {"w": np.full((2, 2), 0.3)}, state, 0.05, 1e-4, t)
            return params["w"]

        npt.assert_array_equal(run(), run())


def per_class_loop_scores(logits, labels, node_set):
    """(accuracy, macro-F1) from one pass per class over the classes that are
    true or predicted in `node_set`: the loop `evaluate` replaces."""
    pred = np.argmax(logits[node_set], axis=1)
    true = labels[node_set]
    f1s = []
    for c in np.union1d(np.unique(true), np.unique(pred)):
        tp = np.count_nonzero((pred == c) & (true == c))
        fp = np.count_nonzero((pred == c) & (true != c))
        fn = np.count_nonzero((pred != c) & (true == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(pred == true)), float(np.mean(f1s))


def random_scoring_case(rng):
    """Logits, labels and a node set in which some classes are never predicted
    (their columns sit far below the rest), some are never true (they are
    missing from the label pool), and labels can lie beyond the logits' width."""
    width, n = int(rng.integers(1, 7)), int(rng.integers(1, 40))
    logits = rng.standard_normal((n, width))
    logits[:, rng.random(width) < 0.3] -= 100.0
    pool = rng.choice(width + 2, size=int(rng.integers(1, width + 3)), replace=False)
    labels = rng.choice(pool, size=n)
    return logits, labels, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)


class TestEvaluate:
    def test_matches_the_per_class_loop(self):
        seen = set()
        for seed in range(400):
            logits, labels, nodes = random_scoring_case(np.random.default_rng(seed))
            assert evaluate(logits, labels, nodes) == per_class_loop_scores(logits, labels, nodes)
            true = set(labels[nodes].tolist())
            pred = set(np.argmax(logits[nodes], axis=1).tolist())
            classes = set(range(max(logits.shape[1], labels.max() + 1)))
            seen.update(name for name, found in (
                ("no true member", pred - true),
                ("no predicted member", true - pred),
                ("neither", classes - true - pred),
                ("label beyond the width", {c for c in true if c >= logits.shape[1]})) if found)
        assert seen == {"no true member", "no predicted member", "neither",
                        "label beyond the width"}

    def test_all_correct(self):
        labels = np.array([0, 1, 2, 1])
        y_hat = np.eye(3)[labels]
        assert evaluate(y_hat, labels, np.arange(4)) == (1.0, 1.0)

    def test_single_class_predictions(self):
        labels = np.array([0, 0, 1, 1])
        y_hat = np.tile([0.9, 0.1], (4, 1))
        acc, f1 = evaluate(y_hat, labels, np.arange(4))
        assert acc == 0.5
        assert f1 == pytest.approx((2 / 3 + 0.0) / 2)

    def test_absent_class_skipped(self):
        # class 2 exists globally but has no members or predictions in the set
        labels = np.array([0, 0, 1, 1, 2])
        y_hat = np.eye(3)[[0, 0, 1, 0, 2]]
        acc, f1 = evaluate(y_hat, labels, np.arange(4))
        assert acc == 0.75
        # class 0: tp=2 fp=1 fn=0 -> 4/5; class 1: tp=1 fp=0 fn=1 -> 2/3
        assert f1 == pytest.approx((4 / 5 + 2 / 3) / 2)

    def test_predicted_ghost_class_counts_zero(self):
        labels = np.array([0, 0, 1, 1])
        y_hat = np.eye(3)[[0, 2, 1, 1]]  # class 2 predicted, never true
        _, f1 = evaluate(y_hat, labels, np.arange(4))
        # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 -> 1; class 2: fp only -> 0
        assert f1 == pytest.approx((2 / 3 + 1.0 + 0.0) / 3)


class TestAttentionNormTrace:
    def test_fixtures(self):
        ones = np.ones((5, 9))
        zeros = np.zeros((5, 9))
        onehot = np.eye(5, 9)
        t, f, c = attention_norm_trace(ones, zeros, onehot)
        assert t == pytest.approx(3.0)
        assert f == 0.0
        assert c == pytest.approx(1.0)


class TestTrain:
    def test_feature_graph_over_other_nodes_rejected(self):
        g, _ = small_dataset(seed=5)
        _, g_f = small_dataset(seed=5, n=50)
        with pytest.raises(ValueError, match="feature graph must cover the same nodes"):
            train(g, g_f, small_cfg())

    def test_zero_lr_flat(self):
        g, g_f = small_dataset(seed=5)
        cfg = small_cfg(lr=0.0, weight_decay=0.0, epochs=4)
        _, trace = train(g, g_f, cfg)
        losses = [r.loss_total for r in trace.records]
        assert losses == [losses[0]] * len(losses)

    def test_deterministic_runs(self):
        g, g_f = small_dataset(seed=6)
        cfg = small_cfg(epochs=6)
        _, tr_a = train(g, g_f, cfg)
        _, tr_b = train(g, g_f, cfg)
        assert tr_a == tr_b

    def test_loss_decreases_on_easy_benchmark(self):
        g, g_f = small_dataset(seed=7)
        cfg = small_cfg(epochs=25)
        _, trace = train(g, g_f, cfg)
        best = trace.records[trace.best_epoch - 1]
        assert best.loss_total < trace.records[0].loss_total

    def test_returned_params_achieve_best_val(self):
        g, g_f = small_dataset(seed=8)
        cfg = small_cfg(epochs=12)
        params, trace = train(g, g_f, cfg)
        best_val = max(r.val_acc for r in trace.records)
        assert trace.records[trace.best_epoch - 1].val_acc == best_val
        # re-run the forward with the returned params: matches the recorded epoch
        split = make_split(g, cfg)
        tape = Tape()
        fs = M.forward_full(tape, params, normalized_adjacency(g), normalized_adjacency(g_f),
                            g.features)
        val_acc, _ = evaluate(fs.logits.value, g.labels, split.val)
        assert val_acc == best_val

    def test_early_stopping_respects_patience(self):
        g, g_f = small_dataset(seed=9)
        cfg = small_cfg(epochs=40, patience=3, lr=0.0, weight_decay=0.0)
        _, trace = train(g, g_f, cfg)
        # lr=0: no epoch improves on the first, so the loop stops after patience
        assert len(trace.records) == 1 + 3

    @pytest.mark.parametrize("baseline", [False, True])
    def test_no_backward_on_the_capped_last_epoch(self, backward_calls, baseline):
        # the last epoch's update could never be returned, so it is not computed
        g, g_f = small_dataset(seed=9)
        cfg = small_cfg(epochs=7)
        _, trace = train_baseline(g, cfg) if baseline else train(g, g_f, cfg)
        assert len(trace.records) == 7
        assert len(backward_calls) == 7 - 1

    def test_no_backward_on_the_early_stopping_epoch(self, backward_calls):
        g, g_f = small_dataset(seed=9)
        cfg = small_cfg(epochs=40, patience=3, lr=0.0, weight_decay=0.0)
        _, trace = train(g, g_f, cfg)
        assert len(trace.records) == 1 + 3
        assert len(backward_calls) == 1 + 3 - 1

    @pytest.mark.parametrize("baseline", [False, True])
    def test_no_tape_outlives_training(self, baseline):
        g, g_f = small_dataset(seed=4)
        cfg = small_cfg(epochs=6, patience=2)
        run = (lambda: train_baseline(g, cfg)) if baseline else (lambda: train(g, g_f, cfg))
        assert tapes_left_by(run) == []

    def test_no_tape_outlives_the_gradient_check(self):
        # every perturbed evaluation is a forward-only pass
        assert tapes_left_by(lambda: model_gradient_check(8, 3, 2, 4, 1)) == []

    def test_trace_epochs_monotone(self):
        g, g_f = small_dataset(seed=10)
        _, trace = train(g, g_f, small_cfg(epochs=5))
        assert [r.epoch for r in trace.records] == [1, 2, 3, 4, 5]


class TestNonFiniteLoss:
    def test_diverging_run_raises_at_first_non_finite_epoch(self):
        # lr=1e30 blows the parameters up in the first updates, so a later
        # forward pass produces NaN losses
        g, g_f = small_dataset(seed=0, n=120)
        cfg = small_cfg(lr=1e30)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite loss at epoch 2: total=nan, "
                               "classification=nan, closeness=nan, disparity=nan"):
                train(g, g_f, cfg)
            with pytest.raises(ValueError, match="non-finite loss at epoch 6: total=nan, "
                               "classification=nan"):
                train_baseline(g, cfg)

    def test_non_finite_last_epoch_still_raises(self):
        # the epoch that ends the loop runs no backward, but its loss is checked
        g, g_f = small_dataset(seed=0, n=120)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite loss at epoch 2: total=nan"):
                train(g, g_f, small_cfg(lr=1e30, epochs=2))
            with pytest.raises(ValueError, match="non-finite loss at epoch 6: total=nan"):
                train_baseline(g, small_cfg(lr=1e30, epochs=6))


class TestTrainBaseline:
    def test_baseline_runs_and_is_deterministic(self):
        g, g_f = small_dataset(seed=11)
        cfg = small_cfg(epochs=6)
        _, a = train_baseline(g, cfg)
        _, b = train_baseline(g, cfg)
        assert a == b
        _, c = train_baseline(g, cfg, graph_for_propagation=g_f)
        assert c.records[0].attn_t == 0.0

    def test_baseline_learns_easy_data(self):
        g, g_f = small_dataset(seed=12)
        cfg = small_cfg(epochs=40)
        _, trace = train_baseline(g, cfg)
        assert trace.final_accuracy > 0.7


class TestFeatureOperand:
    @pytest.mark.parametrize("build", ["full_objective", "baseline_objective"])
    def test_no_dense_to_sparse_scan(self, monkeypatch, build):
        # the feature CSR comes from `graphs.sparse_features`, not scipy's scan
        g, g_f = small_dataset(seed=5)
        dense = []
        csr_array = sp.csr_array

        def counting_csr_array(arg, *args, **kwargs):
            if isinstance(arg, np.ndarray):
                dense.append(arg.shape)
            return csr_array(arg, *args, **kwargs)

        monkeypatch.setattr(sp, "csr_array", counting_csr_array)
        getattr(training, build)(g, g_f, small_cfg(), np.arange(10))
        assert dense == []


class TestFinalPass:
    # the final scores are the best epoch's, scored in the loop: the test set
    # is scored once per epoch and no pass runs after the loop
    @pytest.mark.parametrize("baseline", [False, True])
    def test_final_scores_equal_best_epoch(self, monkeypatch, baseline):
        g, g_f = small_dataset(seed=21)
        cfg = small_cfg(epochs=12)
        split = make_split(g, cfg)
        test_preds = []

        def recording_evaluate(y_hat, labels, node_set):
            if np.array_equal(node_set, split.test):
                test_preds.append(y_hat.copy())
            return evaluate(y_hat, labels, node_set)

        monkeypatch.setattr(training, "evaluate", recording_evaluate)
        _, trace = train_baseline(g, cfg) if baseline else train(g, g_f, cfg)
        assert len(test_preds) == len(trace.records)
        assert trace.best_epoch < len(trace.records)    # the last epoch makes no update
        best = trace.records[trace.best_epoch - 1]
        assert trace.final_accuracy == best.test_acc
        assert (trace.final_accuracy, trace.final_macro_f1) == \
            evaluate(test_preds[trace.best_epoch - 1], g.labels, split.test)


def relu_scaled_backward(a):
    """ReLU whose backward is 1.01 times the true one."""
    y = np.maximum(a.value, 0.0)
    return ad._op(y, lambda g: (1.01 * g * (y > 0.0),), a)


def cosine_missing_term(a, b):
    """Mean row cosine whose gradient for `a` lacks its -cos a / |a|^2 term."""
    av, bv = a.value, b.value
    ra = np.linalg.norm(av, axis=1, keepdims=True)
    rb = np.linalg.norm(bv, axis=1, keepdims=True)
    n = av.shape[0]
    cos = (av * bv).sum(axis=1, keepdims=True) / (ra * rb)

    def vjp(g):
        g = g[0, 0] / n
        return g * bv / (ra * rb), g * (av / (ra * rb) - cos * bv / (rb * rb))

    return ad._op([[cos.sum() / n]], vjp, a, b)


class TestReluKink:
    """`fusegcn gradcheck --seed 119` (default sizes and config): a feature-encoder
    ReLU's pre-activation lies within eps of 0 at feat_w0 (1, 3) and (5, 3), so
    the central difference there averages the two sides of the kink."""

    SEED = 119

    def test_kink_is_listed_not_failed(self):
        report = model_gradient_check(seed=self.SEED)
        assert report.passed, str(report)
        kinks = [(e.name, *k) for e in report.entries for k in e.kinks]
        assert [(name, idx) for name, idx, *_ in kinks] == [("feat_w0", (1, 3)),
                                                             ("feat_w0", (5, 3))]
        # the gradient takes the backward side at (1, 3), the forward side at (5, 3)
        (_, _, fwd, bwd, grad), (_, _, fwd5, bwd5, grad5) = kinks
        assert grad == pytest.approx(bwd, rel=1e-4) and fwd != pytest.approx(bwd, rel=1e-3)
        assert grad5 == pytest.approx(fwd5, rel=1e-4) and fwd5 != pytest.approx(bwd5, rel=1e-3)
        assert "kink at (1, 3) forward fd=" in str(report)
        assert str(report).endswith("-> PASS (2 kinks excluded)")

    @pytest.mark.parametrize("op, mutant", [("relu", relu_scaled_backward),
                                            ("mean_row_cosine", cosine_missing_term)])
    def test_wrong_backward_still_fails(self, monkeypatch, op, mutant):
        monkeypatch.setattr(ad, op, mutant)
        report = model_gradient_check(seed=self.SEED)
        assert not report.passed


class TestModelGradientCheck:
    @pytest.mark.parametrize("seed", [8, 14])
    def test_passes_where_zero_biases_kill_a_row(self, seed):
        # with all-zero biases these seeds give a node an all-zero input-MLP row,
        # which puts every ReLU it feeds on its kink; at seed 14 that node is
        # also isolated, so the closeness loss meets a zero row
        report = model_gradient_check(seed=seed)
        assert report.passed, str(report)

    def test_one_backward_pass(self, backward_calls):
        # every perturbed evaluation is forward-only
        report = model_gradient_check(8, 3, 2, 4, 1)
        assert report.passed, str(report)
        assert len(backward_calls) == 1

    def test_loss_weights_come_from_the_config(self, monkeypatch):
        # the check has one configuration: every loss term at full weight
        seen = []

        def recording_objective(g, g_f, cfg, train_nodes):
            seen.append(cfg.loss_weights)
            return full_objective(g, g_f, cfg, train_nodes)

        monkeypatch.setattr(training, "full_objective", recording_objective)
        model_gradient_check(8, 2, 2, 2, 0)
        assert seen == [LossWeights(1.0, 1.0, 1.0)]

    def test_round_off_is_not_an_error(self):
        # at seed 35 the worst coordinate, att_t_w1 (5, 2), has a gradient
        # near 1.2e-6, where the central quotient's rounding alone reached a
        # relative error of 1.3e-4 before the rounding bound was subtracted
        report = model_gradient_check(seed=35)
        assert report.passed, str(report)
