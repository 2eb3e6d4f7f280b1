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
            fs = M.forward_full(t, params, p_t, p_f, x)
            backward(t, classification_loss(fs.logits, y, np.arange(10)))
            return fs.logits.value, fs.leaves["input_w1"].grad

        logits, grad = run()
        monkeypatch.setattr(M, "input_mlp", self.dense_node_input_mlp)
        logits_ref, grad_ref = run()
        assert_rel_close(logits, logits_ref)
        assert_rel_close(grad, grad_ref)
        npt.assert_array_equal(grad[2], 0.0)

    def test_baseline_matches_dense_node(self):
        g = random_check_instance(n=9, d=6, c=3, seed=44)
        x = binary_csr(np.random.default_rng(45), 9, 6, zero_col=0)
        p = normalized_adjacency(g)
        params = M.baseline_init(6, 3, 5, np.random.default_rng(46))
        y = one_hot(g.labels, 3)

        t = Tape()
        logits, leaves = M.gcn_baseline_forward(t, p, p @ x, params)
        backward(t, classification_loss(logits, y, np.arange(9)))

        t_ref = Tape()
        ref = {k: t_ref.tensor(v) for k, v in params.items()}
        h1 = ad.relu(ad.matmul(ad.spmm(p, t_ref.tensor(x.toarray())), ref["w0"]))
        logits_ref = ad.matmul(ad.spmm(p, h1), ref["w1"])
        backward(t_ref, classification_loss(logits_ref, y, np.arange(9)))

        assert_rel_close(logits.value, logits_ref.value)
        assert_rel_close(leaves["w0"].grad, ref["w0"].grad)
        npt.assert_array_equal(leaves["w0"].grad[0], 0.0)


class TestResidualLayer:
    def test_matches_dense_formula(self):
        t = Tape()
        g = make_graph(3, [(0, 1), (1, 2)])
        p = normalized_adjacency(g)
        rng = np.random.default_rng(5)
        h_l = t.tensor(rng.standard_normal((3, 2)))
        h_0 = t.tensor(rng.standard_normal((3, 2)))
        w = t.tensor(rng.standard_normal((2, 2)))
        out = M.residual_gcn_layer(p, h_l, h_0, w)
        propagated = np.maximum(p.toarray() @ h_l.value @ w.value, 0.0)
        expect = M.PROP_WEIGHT * propagated + (1.0 - M.PROP_WEIGHT) * h_0.value
        npt.assert_allclose(out.value, expect, rtol=1e-14)

    def test_scalar_hand_case(self):
        t = Tape()
        p = identity_sparse(1)
        out = M.residual_gcn_layer(p, t.tensor([[2.0]]), t.tensor([[5.0]]),
                                   t.tensor([[1.0]]))
        assert out.item() == pytest.approx(0.8 * 2.0 + 0.2 * 5.0)


class TestEncoder:
    def test_scalar_hand_case(self):
        t = Tape()
        p = identity_sparse(1)
        h0 = t.tensor([[1.0]])
        # layer 1: 0.8 * relu(1 * 2) + 0.2 * 1 = 1.8; layer 2 clips 1.8 * -1 to 0
        out = M.encoder_forward(p, h0, t.tensor([[2.0]]), t.tensor([[-1.0]]))
        assert out.item() == pytest.approx(0.2)
        out = M.encoder_forward(p, h0, t.tensor([[2.0]]), t.tensor([[3.0]]))
        assert out.item() == pytest.approx(0.8 * 1.8 * 3.0 + 0.2)

    def test_identity_graph_identity_weights_nonnegative(self):
        t = Tape()
        p = identity_sparse(3)
        h0 = t.tensor(np.abs(np.random.default_rng(7).standard_normal((3, 3))))
        eye = lambda: t.tensor(np.eye(3))
        out = M.encoder_forward(p, h0, eye(), eye())
        npt.assert_allclose(out.value, h0.value, rtol=1e-15)


class TestCommonPath:
    def test_common_input_hand_case(self):
        t = Tape()
        h = t.tensor([[1.0]])
        z = t.tensor([[3.0]])
        assert M.common_input(h, z).item() == pytest.approx(0.85 * 1.0 + 0.15 * 3.0)

    def test_shared_encoder_symmetry_and_zero_closeness(self):
        # same graph and same view embedding on both sides + one shared
        # weight set => the two common outputs coincide bitwise
        g = random_check_instance(n=8, d=4, c=2, seed=11)
        p = normalized_adjacency(g)
        rng = np.random.default_rng(12)
        t = Tape()
        h_anchor = t.tensor(rng.standard_normal((8, 6)))
        z = t.tensor(rng.standard_normal((8, 6)))
        leaves = {"common_w0": t.tensor(rng.standard_normal((6, 6))),
                  "common_w1": t.tensor(rng.standard_normal((6, 6))),
                  "comb_w0": t.tensor(rng.standard_normal((12, 6))),
                  "comb_b0": t.tensor(np.zeros((1, 6)))}
        z_ct, z_cf, _ = M.common_encoder(p, p, h_anchor, z, z, leaves)
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
        # zero logits: every class gets softmax 1/4, so each row's loss is log 4
        t = Tape()
        rng = np.random.default_rng(16)
        zt, zf = t.tensor(rng.standard_normal((5, 3))), t.tensor(rng.standard_normal((5, 3)))
        logits = M.predict(zt, zf, t.tensor(np.zeros((6, 4))), t.tensor(np.zeros((1, 4))))
        npt.assert_array_equal(logits.value, np.zeros((5, 4)))
        loss = classification_loss(logits, np.eye(4)[[0, 1, 2, 3, 0]], np.arange(5))
        assert loss.item() == pytest.approx(5 * np.log(4))

    def test_shift_invariant_loss_and_argmax(self):
        t = Tape()
        rng = np.random.default_rng(17)
        zt, zf = t.tensor(rng.standard_normal((5, 3))), t.tensor(rng.standard_normal((5, 3)))
        w = t.tensor(rng.standard_normal((6, 4)))
        b = t.tensor(rng.standard_normal((1, 4)))
        b_shift = t.tensor(b.value + 7.5)
        y1 = M.predict(zt, zf, w, b)
        y2 = M.predict(zt, zf, w, b_shift)
        y = np.eye(4)[[3, 1, 0, 2, 1]]
        assert classification_loss(y1, y, np.arange(5)).item() == \
            pytest.approx(classification_loss(y2, y, np.arange(5)).item(), rel=1e-12)
        npt.assert_array_equal(np.argmax(y1.value, axis=1), np.argmax(y2.value, axis=1))


class TestBaselines:
    def test_zero_weights_uniform(self):
        g = random_check_instance(n=6, d=4, c=3, seed=18)
        p = normalized_adjacency(g)
        t = Tape()
        params = {"w0": np.zeros((4, 5)), "w1": np.zeros((5, 3))}
        logits, _ = M.gcn_baseline_forward(t, p, p @ g.features, params)
        npt.assert_array_equal(logits.value, np.zeros((6, 3)))
        loss = classification_loss(logits, one_hot(g.labels, 3), np.arange(6))
        assert loss.item() == pytest.approx(6 * np.log(3))

    def test_baseline_gradient_matches_fd(self):
        g = random_check_instance(n=7, d=3, c=2, seed=19)
        p = normalized_adjacency(g)
        y_true = one_hot(g.labels, 2)
        mask = np.array([0, 1, 2])
        rng = np.random.default_rng(20)
        params = M.baseline_init(3, 2, 4, rng)
        names = list(params)

        def loss_of(t, prm):
            y, leaves = M.gcn_baseline_forward(t, p, p @ g.features, prm)
            return classification_loss(y, y_true, mask), leaves

        def loss_fn(arrays):
            t = Tape()
            loss, _ = loss_of(t, dict(zip(names, arrays)))
            return loss.item()

        t = Tape()
        loss, leaves = loss_of(t, params)
        backward(t, loss)
        report = ad.finite_diff_check(loss_fn, [params[n] for n in names],
                                      [leaves[n].grad for n in names], param_names=names)
        assert report.passed, str(report)


class TestFullModel:
    def test_every_parameter_gets_gradient(self):
        g = random_check_instance(n=10, d=4, c=2, seed=21)
        g_f = knn_feature_graph(g.features, 3)
        p_t, p_f = normalized_adjacency(g), normalized_adjacency(g_f)
        rng = np.random.default_rng(22)
        params = M.init_params(4, 2, 6, rng)
        t = Tape()
        fs = M.forward_full(t, params, p_t, p_f, g.features)
        from fusegcn.losses import disparity_loss, total_loss
        l_cl = classification_loss(fs.logits, one_hot(g.labels, 2), np.array([0, 1, 2, 3]))
        l_c = closeness_loss(fs.z_ct, fs.z_cf)
        l_d = disparity_loss(fs.z_t, fs.z_ct, fs.z_f, fs.z_cf)
        backward(t, total_loss(l_cl, l_c, l_d, LossWeights(1.0, 1.0, 1.0)))
        for name in params:
            assert np.any(fs.leaves[name].grad != 0.0), f"dead parameter {name}"

    def test_end_to_end_gradient_check_small(self):
        report = model_gradient_check(n=8, d=4, c=2, hidden=5, seed=3)
        assert report.passed, str(report)
