import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fusegcn import autodiff as ad
from fusegcn import model as M
from fusegcn.autodiff import Tape, backward
from fusegcn.graphs import knn_feature_graph, normalized_adjacency
from fusegcn.losses import LossWeights, classification_loss, closeness_loss
from fusegcn.training import model_gradient_check, one_hot, random_check_instance
from tests.test_graphs import make_graph


def identity_sparse(n):
    return sp.csr_array(np.eye(n))


class TestInputMlp:
    def test_zero_weights_zero_output(self):
        t = Tape()
        x = sp.csr_array(np.random.default_rng(0).standard_normal((4, 3)))
        zeros = lambda *s: t.tensor(np.zeros(s))
        out = M.input_mlp(x, zeros(3, 2), zeros(1, 2), zeros(2, 2), zeros(1, 2))
        npt.assert_array_equal(out.value, np.zeros((4, 2)))

    def test_identity_weights_reproduce_nonnegative_input(self):
        t = Tape()
        x_val = np.abs(np.random.default_rng(1).standard_normal((5, 3)))
        x = sp.csr_array(x_val)
        eye = lambda: t.tensor(np.eye(3))
        zb = lambda: t.tensor(np.zeros((1, 3)))
        out = M.input_mlp(x, eye(), zb(), eye(), zb())
        npt.assert_array_equal(out.value, x_val)


def binary_csr(rng, n, d, zero_col):
    """Random 0/1 n x d CSR matrix, every row nonzero, column `zero_col` empty."""
    x = (rng.random((n, d)) < 0.3).astype(float)
    x[np.arange(n), (zero_col + 1 + rng.integers(d - 1, size=n)) % d] = 1.0
    x[:, zero_col] = 0.0
    return sp.csr_array(x)


def assert_rel_close(actual, expected, tol=1e-12):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= tol * scale


class TestSparseFeatureInput:
    """The CSR feature constant against the dense tape node it replaced."""

    @staticmethod
    def dense_node_input_mlp(x, w1, b1, w2, b2):
        return M.mlp_two_layer(w1.tape.tensor(x.toarray()), w1, b1, w2, b2)

    def test_full_model_matches_dense_node(self, monkeypatch):
        g = random_check_instance(n=10, d=7, c=2, seed=41)
        x = binary_csr(np.random.default_rng(42), 10, 7, zero_col=2)
        p_t = normalized_adjacency(g)
        p_f = normalized_adjacency(knn_feature_graph(g.features, 3))
        params = M.init_params(7, 2, 6, np.random.default_rng(43))
        y = one_hot(g.labels, 2)

        def run():
            t = Tape()
            fs = M.forward_full(t, params, p_t, p_f, x, 0.8, 0.85)
            backward(t, classification_loss(fs.y_hat, y, np.arange(10)))
            return fs.y_hat.value, fs.leaves["input_w1"].grad

        y_hat, grad = run()
        monkeypatch.setattr(M, "input_mlp", self.dense_node_input_mlp)
        y_ref, grad_ref = run()
        assert_rel_close(y_hat, y_ref)
        assert_rel_close(grad, grad_ref)
        npt.assert_array_equal(grad[2], 0.0)

    def test_baseline_matches_dense_node(self):
        g = random_check_instance(n=9, d=6, c=3, seed=44)
        x = binary_csr(np.random.default_rng(45), 9, 6, zero_col=0)
        p = normalized_adjacency(g)
        params = M.baseline_init(6, 3, 5, np.random.default_rng(46))
        y = one_hot(g.labels, 3)

        t = Tape()
        y_hat, leaves = M.gcn_baseline_forward(t, p, p @ x, params)
        backward(t, classification_loss(y_hat, y, np.arange(9)))

        t_ref = Tape()
        ref = {k: t_ref.tensor(v) for k, v in params.items()}
        h1 = ad.relu(ad.matmul(ad.spmm(p, t_ref.tensor(x.toarray())), ref["w0"]))
        y_ref = ad.softmax_rows(ad.matmul(ad.spmm(p, h1), ref["w1"]))
        backward(t_ref, classification_loss(y_ref, y, np.arange(9)))

        assert_rel_close(y_hat.value, y_ref.value)
        assert_rel_close(leaves["w0"].grad, ref["w0"].grad)
        npt.assert_array_equal(leaves["w0"].grad[0], 0.0)


class TestResidualLayer:
    def test_weight_zero_returns_anchor(self):
        t = Tape()
        p = identity_sparse(3)
        h_l = t.tensor(np.random.default_rng(2).standard_normal((3, 2)))
        h_0 = t.tensor(np.random.default_rng(3).standard_normal((3, 2)))
        w = t.tensor(np.random.default_rng(4).standard_normal((2, 2)))
        out = M.residual_gcn_layer(p, h_l, h_0, w, 0.0)
        npt.assert_array_equal(out.value, h_0.value)

    def test_weight_one_is_plain_gcn_layer(self):
        t = Tape()
        g = make_graph(3, [(0, 1), (1, 2)])
        p = normalized_adjacency(g)
        rng = np.random.default_rng(5)
        h_l = t.tensor(rng.standard_normal((3, 2)))
        h_0 = t.tensor(rng.standard_normal((3, 2)))
        w = t.tensor(rng.standard_normal((2, 2)))
        out = M.residual_gcn_layer(p, h_l, h_0, w, 1.0)
        expect = np.maximum(p.toarray() @ h_l.value @ w.value, 0.0)
        npt.assert_allclose(out.value, expect, rtol=1e-14)

    def test_scalar_hand_case(self):
        t = Tape()
        p = identity_sparse(1)
        out = M.residual_gcn_layer(p, t.tensor([[2.0]]), t.tensor([[5.0]]),
                                   t.tensor([[1.0]]), 0.8)
        assert out.item() == pytest.approx(2.6)

    def test_prop_weight_range_checked(self):
        t = Tape()
        p = identity_sparse(1)
        with pytest.raises(ValueError):
            M.residual_gcn_layer(p, t.tensor([[1.0]]), t.tensor([[1.0]]),
                                 t.tensor([[1.0]]), 1.5)


class TestEncoder:
    def test_prop_weight_zero_passes_input_through(self):
        t = Tape()
        g = make_graph(4, [(0, 1), (2, 3)])
        p = normalized_adjacency(g)
        rng = np.random.default_rng(6)
        h0 = t.tensor(rng.standard_normal((4, 3)))
        w0, w1 = t.tensor(rng.standard_normal((3, 3))), t.tensor(rng.standard_normal((3, 3)))
        out = M.encoder_forward(p, h0, w0, w1, 0.0)
        npt.assert_array_equal(out.value, h0.value)

    def test_identity_graph_identity_weights_nonnegative(self):
        t = Tape()
        p = identity_sparse(3)
        h0 = t.tensor(np.abs(np.random.default_rng(7).standard_normal((3, 3))))
        eye = lambda: t.tensor(np.eye(3))
        out = M.encoder_forward(p, h0, eye(), eye(), 0.8)
        npt.assert_allclose(out.value, h0.value, rtol=1e-15)


class TestCommonPath:
    def test_common_input_extremes(self):
        t = Tape()
        h = t.tensor([[1.0]])
        z = t.tensor([[3.0]])
        assert M.common_input(h, z, 1.0).item() == 1.0
        assert M.common_input(h, z, 0.0).item() == 3.0
        assert M.common_input(h, z, 0.85).item() == pytest.approx(1.3)

    def test_shared_encoder_symmetry_and_zero_closeness(self):
        # same graph and same view embedding on both sides + one shared
        # weight set => the two common outputs coincide bitwise
        g = random_check_instance(n=8, d=4, c=2, seed=11)
        p = normalized_adjacency(g)
        rng = np.random.default_rng(12)
        t = Tape()
        h_anchor = t.tensor(rng.standard_normal((8, 6)))
        z = t.tensor(rng.standard_normal((8, 6)))
        w0 = t.tensor(rng.standard_normal((6, 6)))
        w1 = t.tensor(rng.standard_normal((6, 6)))
        leaves = {"comb_w0": t.tensor(rng.standard_normal((12, 6))),
                  "comb_b0": t.tensor(np.zeros((1, 6)))}
        z_ct, z_cf, _ = M.common_encoder(p, p, h_anchor, z, z, w0, w1, leaves, 0.85, 0.8)
        npt.assert_array_equal(z_ct.value, z_cf.value)
        assert closeness_loss(z_ct, z_cf).item() == 0.0


class TestAttentionFuse:
    def _leaves(self, t, h, w2_bias):
        leaves = {}
        for ch in ("t", "f", "c"):
            leaves[f"att_{ch}_w1"] = t.tensor(np.zeros((h, h)))
            leaves[f"att_{ch}_b1"] = t.tensor(np.zeros((1, h)))
            leaves[f"att_{ch}_w2"] = t.tensor(np.zeros((h, h)))
            leaves[f"att_{ch}_b2"] = t.tensor(np.full((1, h), w2_bias))
        return leaves

    def test_forced_ones_adds_channels(self):
        t = Tape()
        rng = np.random.default_rng(13)
        z_t, z_f, z_c = (t.tensor(rng.standard_normal((4, 3))) for _ in range(3))
        leaves = self._leaves(t, 3, 40.0)  # sigmoid(40) == 1.0 in float64
        zt_til, zf_til, *_ = M.attention_fuse(z_t, z_f, z_c, leaves)
        npt.assert_array_equal(zt_til.value, z_t.value + z_c.value)
        npt.assert_array_equal(zf_til.value, z_f.value + z_c.value)

    def test_forced_zeros_kills_output(self):
        t = Tape()
        rng = np.random.default_rng(14)
        z_t, z_f, z_c = (t.tensor(rng.standard_normal((4, 3))) for _ in range(3))
        leaves = self._leaves(t, 3, -40.0)
        zt_til, zf_til, *_ = M.attention_fuse(z_t, z_f, z_c, leaves)
        npt.assert_allclose(zt_til.value, np.zeros((4, 3)), atol=1e-12)
        npt.assert_allclose(zf_til.value, np.zeros((4, 3)), atol=1e-12)


class TestPredict:
    def test_zero_head_uniform(self):
        t = Tape()
        rng = np.random.default_rng(16)
        zt, zf = t.tensor(rng.standard_normal((5, 3))), t.tensor(rng.standard_normal((5, 3)))
        y = M.predict(zt, zf, t.tensor(np.zeros((6, 4))), t.tensor(np.zeros((1, 4))))
        npt.assert_allclose(y.value, np.full((5, 4), 0.25), atol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant_argmax(self):
        t = Tape()
        rng = np.random.default_rng(17)
        zt, zf = t.tensor(rng.standard_normal((5, 3))), t.tensor(rng.standard_normal((5, 3)))
        w = t.tensor(rng.standard_normal((6, 4)))
        b = t.tensor(rng.standard_normal((1, 4)))
        b_shift = t.tensor(b.value + 7.5)
        y1 = M.predict(zt, zf, w, b)
        y2 = M.predict(zt, zf, w, b_shift)
        npt.assert_allclose(y1.value.sum(axis=1), np.ones(5), atol=1e-12)
        npt.assert_array_equal(np.argmax(y1.value, axis=1), np.argmax(y2.value, axis=1))


class TestBaselines:
    def test_zero_weights_uniform(self):
        g = random_check_instance(n=6, d=4, c=3, seed=18)
        p = normalized_adjacency(g)
        t = Tape()
        params = {"w0": np.zeros((4, 5)), "w1": np.zeros((5, 3))}
        y, _ = M.gcn_baseline_forward(t, p, p @ g.features, params)
        npt.assert_allclose(y.value, np.full((6, 3), 1 / 3), atol=1e-15)

    def test_baseline_gradient_matches_fd(self):
        g = random_check_instance(n=7, d=3, c=2, seed=19)
        p = normalized_adjacency(g)
        y_true = one_hot(g.labels, 2)
        mask = np.array([0, 1, 2])
        rng = np.random.default_rng(20)
        params = M.baseline_init(3, 2, 4, rng)
        names = list(params)

        def f(arrays):
            prm = dict(zip(names, arrays))
            t = Tape()
            y, leaves = M.gcn_baseline_forward(t, p, p @ g.features, prm)
            loss = classification_loss(y, y_true, mask)
            backward(t, loss)
            return loss.item(), [leaves[n].grad for n in names]

        report = ad.finite_diff_check(f, [params[n] for n in names], param_names=names)
        assert report.passed, str(report)


class TestFullModel:
    def test_every_parameter_gets_gradient(self):
        g = random_check_instance(n=10, d=4, c=2, seed=21)
        g_f = knn_feature_graph(g.features, 3)
        p_t, p_f = normalized_adjacency(g), normalized_adjacency(g_f)
        rng = np.random.default_rng(22)
        params = M.init_params(4, 2, 6, rng)
        t = Tape()
        fs = M.forward_full(t, params, p_t, p_f, g.features, 0.8, 0.85)
        from fusegcn.losses import disparity_loss, total_loss
        l_cl = classification_loss(fs.y_hat, one_hot(g.labels, 2), np.array([0, 1, 2, 3]))
        l_c = closeness_loss(fs.z_ct, fs.z_cf)
        l_d = disparity_loss(fs.z_t, fs.z_ct, fs.z_f, fs.z_cf)
        backward(t, total_loss(l_cl, l_c, l_d, LossWeights(1.0, 1.0, 1.0)))
        for name in params:
            assert np.any(fs.leaves[name].grad != 0.0), f"dead parameter {name}"

    def test_end_to_end_gradient_check_small(self):
        report = model_gradient_check(n=8, d=4, c=2, hidden=5, seed=3)
        assert report.passed, str(report)

    def test_mixing_knob_regression_guard(self):
        # prop_weight=1 and common_mix=0: residual anchors and the anchor MLP
        # must drop out of the forward values entirely.
        g = random_check_instance(n=8, d=4, c=2, seed=23)
        g_f = knn_feature_graph(g.features, 3)
        p_t, p_f = normalized_adjacency(g), normalized_adjacency(g_f)
        rng = np.random.default_rng(24)
        params = M.init_params(4, 2, 6, rng)
        x = sp.csr_array(g.features)
        t = Tape()
        fs = M.forward_full(t, params, p_t, p_f, x, 1.0, 0.0)
        # rebuild z_t by hand with plain (non-residual) layers
        leaves = {k: t.tensor(v) for k, v in params.items()}
        h0 = M.input_mlp(x, leaves["input_w1"], leaves["input_b1"],
                         leaves["input_w2"], leaves["input_b2"])
        l1 = ad.relu(ad.matmul(ad.spmm(p_t, h0), leaves["topo_w0"]))
        l2 = ad.relu(ad.matmul(ad.spmm(p_t, l1), leaves["topo_w1"]))
        npt.assert_array_equal(fs.z_t.value, l2.value)
        # common input with mix=0 is the view embedding itself
        zin = ad.relu(ad.matmul(ad.spmm(p_t, fs.z_t), leaves["common_w0"]))
        zct = ad.relu(ad.matmul(ad.spmm(p_t, zin), leaves["common_w1"]))
        npt.assert_array_equal(fs.z_ct.value, zct.value)
