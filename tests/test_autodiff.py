import gc
import inspect
import re
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from scipy.special import logsumexp

from benchmarks.tape_memory import step_memory, unit_bytes
from fusegcn import autodiff as ad
from fusegcn.autodiff import Tape, TapeError, backward, finite_diff_check
from fusegcn.graphs import knn_feature_graph, normalized_adjacency
from fusegcn.model import init_params
from fusegcn.training import TrainConfig, full_objective, make_split, random_check_instance
from tests.test_graphs import make_graph, random_labeled_graph


def fd_gradient(build_loss, values, eps=1e-5):
    """Independent central-difference gradient of a tape-built scalar loss.

    `build_loss(tape, nodes)` returns the scalar node; `values` are the leaf
    arrays. Returns FD gradients for each leaf.
    """
    def loss_at(vals):
        tape = Tape()
        nodes = [tape.tensor(v) for v in vals]
        return build_loss(tape, nodes).item()

    grads = []
    for i, v in enumerate(values):
        g = np.zeros_like(v)
        for idx in np.ndindex(v.shape):
            bumped = [x.copy() for x in values]
            bumped[i][idx] += eps
            lp = loss_at(bumped)
            bumped[i][idx] -= 2 * eps
            lm = loss_at(bumped)
            g[idx] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


def tape_gradient(build_loss, values):
    tape = Tape()
    nodes = [tape.tensor(v) for v in values]
    loss = build_loss(tape, nodes)
    backward(tape, loss)
    return [n.grad for n in nodes]


def check_op_gradient(build_loss, values, rel_tol=1e-4):
    analytic = tape_gradient(build_loss, values)
    numeric = fd_gradient(build_loss, values)
    for a, f in zip(analytic, numeric):
        # coordinates where both magnitudes sit below 1e-6 are FD-noise-dominated
        denom = np.maximum(np.abs(a), np.abs(f))
        live = denom >= 1e-6
        assert np.all(np.abs(a - f)[live] / denom[live] < rel_tol)


def tapes_left_by(run):
    """Call `run()` with the cycle collector off; return the Tapes alive after it.

    Reference counting alone must free every tape a pass builds, whether or
    not the pass ends in `backward`.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return [o for o in gc.get_objects() if isinstance(o, Tape)]
    finally:
        if was_enabled:
            gc.enable()


def row_gram(a):
    """a @ a.T as a tape op: the N x N Gram form that `gram_distance_sq` replaces."""
    av = a.value
    return ad._op(av @ av.T, lambda g: ((g + g.T) @ av,), a)


def frobenius_sq_diff(a, b):
    """sum((a - b)^2) as a scalar tape op; with `row_gram`, the reference
    that `gram_distance_sq` is compared against."""
    if a.shape != b.shape:
        raise ValueError(f"frobenius_sq_diff shape mismatch: {a.shape} vs {b.shape}")
    diff = a.value - b.value
    return ad._op([[np.sum(diff * diff)]],
                  lambda g: (2.0 * g[0, 0] * diff, -2.0 * g[0, 0] * diff), a, b)


def sum_sq(node):
    zero = node.tape.tensor(np.zeros(node.shape))
    return frobenius_sq_diff(node, zero)


PROB_FLOOR = 1e-12


def softmax_rows(a):
    """Row softmax as a tape op; with `masked_cross_entropy`, the two-op form
    that `softmax_cross_entropy` replaces."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return ad._op(s, lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),), a)


def masked_cross_entropy(pred, labels, mask):
    """-sum_{v in mask} sum_c Y_vc ln pred_vc, with Y the one-hot rows of the
    class ids `labels`, on probabilities clamped to [PROB_FLOOR, 1]: a row
    whose true-class probability falls below the floor gets a capped loss and
    a zero gradient."""
    y_onehot = np.eye(pred.shape[1])[labels]
    in_mask = np.zeros((pred.shape[0], 1))
    in_mask[mask] = 1.0
    pv = pred.value
    p = np.clip(pv, PROB_FLOOR, 1.0)
    return ad._op([[-np.sum(in_mask * y_onehot * np.log(p))]],
                  lambda g: (-(g[0, 0] * in_mask * y_onehot * (pv >= PROB_FLOOR) / p),), pred)


def relu_input_mask(a):
    """ReLU whose backward masks with its input, a > 0: the form `ad.relu`'s
    output mask y > 0 replaces."""
    av = a.value
    return ad._op(np.maximum(av, 0.0), lambda g: (g * (av > 0.0),), a)


def weighted_sum(node, w):
    """sum(w * node) as a scalar tape op: sends the fixed gradient w to `node`."""
    return ad._op([[np.sum(w * node.value)]], lambda g: (g[0, 0] * w,), node)


def cross_entropy_of(build, logits, labels, nodes):
    """(loss, logits gradient) of `build(logits_node, labels, nodes)` on a fresh tape."""
    t = Tape()
    x = t.tensor(logits)
    loss = build(x, np.asarray(labels), nodes)
    backward(t, loss)
    return loss.item(), x.grad


def two_op_cross_entropy(x, labels, mask):
    return masked_cross_entropy(softmax_rows(x), labels, mask)


class TestForwardValues:
    def test_matmul_identity(self):
        t = Tape()
        m = t.tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = t.tensor(np.eye(2))
        npt.assert_array_equal(ad.matmul(m, eye).value, m.value)

    def test_matmul_zero(self):
        t = Tape()
        z = t.tensor(np.zeros((2, 3)))
        m = t.tensor(np.ones((3, 2)))
        npt.assert_array_equal(ad.matmul(z, m).value, np.zeros((2, 2)))

    def test_matmul_shape_error(self):
        t = Tape()
        with pytest.raises(ValueError):
            ad.matmul(t.tensor(np.ones((2, 3))), t.tensor(np.ones((2, 3))))

    def test_spmm_identity(self):
        t = Tape()
        p = sp.csr_array(np.eye(3))
        h = t.tensor(np.arange(6.0).reshape(3, 2))
        npt.assert_array_equal(ad.spmm(p, h).value, h.value)

    def test_spmm_single_self_loop(self):
        t = Tape()
        p = normalized_adjacency(make_graph(1, []))
        h = t.tensor([[3.0, -2.0]])
        npt.assert_array_equal(ad.spmm(p, h).value, h.value)

    def test_spmm_matches_dense_on_path(self):
        t = Tape()
        p = normalized_adjacency(make_graph(3, [(0, 1), (1, 2)]))
        h = t.tensor(np.eye(3))
        npt.assert_allclose(ad.spmm(p, h).value, p.toarray() @ np.eye(3), rtol=1e-14)

    def test_spmm_matches_dense_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = normalized_adjacency(random_labeled_graph(rng))
            h = rng.standard_normal((p.shape[1], 5))
            npt.assert_allclose(ad.spmm(p, Tape().tensor(h)).value, p.toarray() @ h,
                                rtol=1e-12)

    def test_spmm_empty_operand(self):
        p = sp.csr_array((3, 7))
        npt.assert_array_equal(ad.spmm(p, Tape().tensor(np.ones((7, 2)))).value,
                               np.zeros((3, 2)))

    def test_spmm_shape_error(self):
        with pytest.raises(ValueError):
            ad.spmm(sp.csr_array((3, 7)), Tape().tensor(np.ones((3, 2))))

    def test_relu(self):
        t = Tape()
        npt.assert_array_equal(ad.relu(t.tensor([[-1.0, 2.0]])).value, [[0.0, 2.0]])
        npt.assert_array_equal(ad.relu(t.tensor([[-5.0, -0.5]])).value, [[0.0, 0.0]])

    def test_sigmoid_extremes(self):
        # exp(-a) overflows below a = -709.78; the value is its limit, with no warning
        x = np.array([[-1000.0, -710.0, 0.0, 710.0, 1000.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tape()
            a = t.tensor(x)
            out = ad.sigmoid(a)
            backward(t, weighted_sum(out, np.ones_like(x)))
        npt.assert_array_equal(out.value, [[0.0, 0.0, 0.5, 1.0, 1.0]])
        assert np.all(np.isfinite(a.grad))
        npt.assert_array_equal(a.grad[0, 2], 0.25)

    def test_add_scaled(self):
        t = Tape()
        a, b = t.tensor([[2.0]]), t.tensor([[7.0]])
        assert ad.add_scaled(a, b, 1.0, 0.0).item() == 2.0
        assert ad.add_scaled(a, a, 0.5, 0.5).item() == 2.0
        assert ad.add_scaled(a, b, 0.8, 0.2).item() == pytest.approx(3.0)

    def test_hadamard(self):
        t = Tape()
        npt.assert_array_equal(
            ad.hadamard(t.tensor([[2.0, 3.0]]), t.tensor([[4.0, 5.0]])).value, [[8.0, 15.0]])

    def test_matmul_cat_shape_and_value(self):
        rng = np.random.default_rng(9)
        a, b, w = rng.standard_normal((3, 2)), rng.standard_normal((3, 4)), \
            rng.standard_normal((6, 5))
        t = Tape()
        out = ad.matmul_cat(t.tensor(a), t.tensor(b), t.tensor(w))
        assert out.shape == (3, 5)
        npt.assert_array_equal(out.value, np.hstack([a, b]) @ w)

    def test_matmul_cat_with_zero_width(self):
        t = Tape()
        a = t.tensor(np.arange(6.0).reshape(3, 2))
        out = ad.matmul_cat(a, t.tensor(np.zeros((3, 0))), t.tensor(np.eye(2)))
        npt.assert_array_equal(out.value, a.value)
        backward(t, sum_sq(out))
        npt.assert_allclose(a.grad, 2 * a.value)

    def test_matmul_cat_shape_errors(self):
        t = Tape()
        with pytest.raises(ValueError, match="row mismatch"):
            ad.matmul_cat(t.tensor(np.ones((3, 2))), t.tensor(np.ones((2, 2))),
                          t.tensor(np.ones((4, 1))))
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.matmul_cat(t.tensor(np.ones((3, 2))), t.tensor(np.ones((3, 2))),
                          t.tensor(np.ones((3, 1))))

    def test_softmax_uniform_and_shift(self):
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, np.zeros((1, 4)), [2], [0])
        assert loss == pytest.approx(np.log(4), rel=1e-15)
        npt.assert_allclose(grad, np.full((1, 4), 0.25) - np.eye(4)[[2]], atol=1e-15)
        row = np.array([[0.3, -1.2, 2.0]])
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, row, [1], [0])
        loss_s, grad_s = cross_entropy_of(ad.softmax_cross_entropy, row + 5.0, [1], [0])
        assert loss_s == pytest.approx(loss, rel=1e-14)
        npt.assert_allclose(grad_s, grad, atol=1e-14)

    def test_softmax_log_ratios(self):
        # logits log(1), log(2), log(3): softmax 1/6, 2/6, 3/6
        row = np.log([[1.0, 2.0, 3.0]])
        for k in range(3):
            loss, grad = cross_entropy_of(ad.softmax_cross_entropy, row, [k], [0])
            assert loss == pytest.approx(-np.log((k + 1) / 6), rel=1e-14)
            npt.assert_allclose(grad + np.eye(3)[[k]], [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)

    def test_l2_normalize(self):
        t = Tape()
        npt.assert_allclose(ad.l2_normalize_rows(t.tensor([[3.0, 4.0]])).value,
                            [[0.6, 0.8]], rtol=1e-15)
        with pytest.raises(ValueError, match="zero row"):
            ad.l2_normalize_rows(t.tensor([[0.0, 0.0]]))

    def test_frobenius_sq_diff(self):
        t = Tape()
        a = t.tensor([[3.0]])
        assert frobenius_sq_diff(a, a).item() == 0.0
        assert frobenius_sq_diff(a, t.tensor([[1.0]])).item() == 4.0

    def test_mean_row_cosine_fixtures(self):
        t = Tape()
        a = t.tensor([[1.0, 2.0], [0.0, 1.0]])
        neg = t.tensor(-a.value)
        orth = t.tensor([[-2.0, 1.0], [1.0, 0.0]])
        assert ad.mean_row_cosine(a, a).item() == pytest.approx(1.0)
        assert ad.mean_row_cosine(a, neg).item() == pytest.approx(-1.0)
        assert ad.mean_row_cosine(a, orth).item() == pytest.approx(0.0, abs=1e-15)

    def test_row_gram(self):
        t = Tape()
        a = t.tensor([[1.0, 0.0], [1.0, 1.0]])
        npt.assert_array_equal(row_gram(a).value, [[1.0, 1.0], [1.0, 2.0]])


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        # log(1 + 2 e^-40) per row
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, 40.0 * np.eye(3), [0, 1, 2],
                                      [0, 1, 2])
        assert loss == pytest.approx(0.0, abs=1e-16)
        npt.assert_allclose(grad, 0.0, atol=1e-16)

    def test_uniform_single_node(self):
        c = 5
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, np.zeros((3, c)), [0, 1, 2],
                                      [1])
        assert loss == pytest.approx(np.log(c))
        npt.assert_array_equal(grad[[0, 2]], 0.0)

    def test_two_nodes_uniform_c4(self):
        loss, _ = cross_entropy_of(ad.softmax_cross_entropy, np.zeros((4, 4)), [0, 1, 2, 3],
                                   [0, 2])
        assert loss == pytest.approx(2 * np.log(4))

    def test_preconditions(self):
        t = Tape()
        for n_labels in (3, 5):
            with pytest.raises(ValueError, match=rf"labels shape \({n_labels},\) does not "
                                                 r"match logits \(4, 2\)"):
                ad.softmax_cross_entropy(t.tensor(np.zeros((4, 2))),
                                         np.zeros(n_labels, dtype=int), np.array([0]))
        with pytest.raises(ValueError, match="empty"):
            ad.softmax_cross_entropy(t.tensor(np.zeros((2, 2))), np.array([0, 1]),
                                     np.array([], dtype=int))

    def test_a_repeated_node_counts_once(self):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            logits = 3.0 * rng.standard_normal((6, 3))
            labels = rng.integers(3, size=6)
            loss, grad = cross_entropy_of(ad.softmax_cross_entropy, logits, labels, [4, 1, 3])
            loss_r, grad_r = cross_entropy_of(ad.softmax_cross_entropy, logits, labels,
                                              [1, 4, 1, 3, 4, 4])
            assert loss_r == loss
            npt.assert_array_equal(grad_r, grad)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_two_op_form(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, c = int(rng.integers(1, 30)), int(rng.integers(2, 8))
        logits = 3.0 * rng.standard_normal((n, c))
        y = rng.integers(c, size=n)
        mask = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, logits, y, mask)
        loss_ref, grad_ref = cross_entropy_of(two_op_cross_entropy, logits, y, mask)
        assert loss == pytest.approx(loss_ref, rel=1e-12)
        npt.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-15)

    def test_confidently_wrong_row_keeps_loss_and_gradient(self):
        # row 0 has gap 40: its true-class probability e^-40 / (1 + e^-40) is
        # below the two-op form's 1e-12 floor, which caps that row's loss at
        # -log(1e-12) and zeroes its gradient; row 1 is ordinary. Totals:
        # 40.31 fused, 27.94 for the two-op form.
        logits, y = np.array([[40.0, 0.0], [1.0, 0.0]]), [1, 0]
        row1 = np.log1p(np.exp(-1.0))
        loss, grad = cross_entropy_of(ad.softmax_cross_entropy, logits, y, [0, 1])
        assert loss == pytest.approx(40.0 + row1, rel=1e-15)
        npt.assert_allclose(grad[0], [1.0, -1.0], atol=1e-15)
        loss_ref, grad_ref = cross_entropy_of(two_op_cross_entropy, logits, y, [0, 1])
        assert loss_ref == pytest.approx(-np.log(PROB_FLOOR) + row1, rel=1e-12)
        npt.assert_array_equal(grad_ref[0], 0.0)
        npt.assert_allclose(grad[1], grad_ref[1], rtol=1e-14)


class TestBackwardMechanics:
    def test_grads_zero_before_backward(self):
        t = Tape()
        a = t.tensor(np.ones((2, 2)))
        out = ad.relu(a)
        assert np.all(a.grad == 0.0) and np.all(out.grad == 0.0)

    def test_unused_output_sends_no_gradient(self):
        # the unused product's VJP would send 0 * inf = NaN into a's slot
        def grad_of_a(unused):
            t = Tape()
            a = t.tensor([[1.0, -2.0], [0.5, 3.0]])
            if unused:
                ad.hadamard(a, t.tensor(np.full((2, 2), np.inf)))
            backward(t, sum_sq(ad.relu(a)))
            return a.grad
        want = grad_of_a(False)
        assert np.isfinite(want).all()
        npt.assert_array_equal(grad_of_a(True), want)

    def test_repeated_backward_errors(self):
        t = Tape()
        a = t.tensor(np.ones((2, 2)))
        loss = sum_sq(a)
        backward(t, loss)
        with pytest.raises(TapeError, match="build a new tape"):
            backward(t, loss)

    def test_backward_frees_the_tape(self):
        # with the cycle collector off only reference counting frees memory:
        # after backward no tape -> node -> tape cycle may be left
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tape()
            a = t.tensor(np.ones((3, 2)))
            w = t.tensor(np.full((2, 2), 0.5))
            backward(t, sum_sq(ad.relu(ad.matmul(a, w))))
            grads = [a.grad, w.grad]
            tape_ref = weakref.ref(t)
            del t, a, w
            assert tape_ref() is None
        finally:
            if was_enabled:
                gc.enable()
        npt.assert_allclose(grads[1], np.full((2, 2), 6.0))

    def test_recording_on_a_consumed_tape_errors(self):
        # the entry would never run: no second backward follows
        t = Tape()
        a = t.tensor(np.ones((2, 2)))
        w = t.tensor(np.full((2, 2), 0.5))
        backward(t, sum_sq(ad.matmul(a, w)))
        for record in (lambda: ad.matmul(a, w), lambda: ad.relu(a)):
            with pytest.raises(TapeError, match="build a new tape"):
                record()
        assert t._entries == []

    def test_forward_only_pass_frees_the_tape(self):
        # no backward and no call to end the pass: its entries hold no node,
        # so reference counting alone must free the tape once the caller
        # drops its nodes
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tape()
            a = t.tensor(np.ones((3, 2)))
            w = t.tensor(np.full((2, 2), 0.5))
            loss = sum_sq(ad.relu(ad.matmul(a, w)))
            tape_ref = weakref.ref(t)
            del t, a, w, loss
            assert tape_ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_pass_through_grads_are_not_shared(self):
        # add_row_bias hands its output gradient to `a`, matmul_cat hands
        # column slices of [b | d]'s gradient to `b` and `d`. `a` and `b` also
        # feed earlier ops, whose contributions backward adds later: they must
        # land in the inputs' own buffers, not in the output gradient y.grad
        # or in a buffer that `b` and `d` share
        rng = np.random.default_rng(8)
        a_val, b_val, d_val = (rng.standard_normal((4, 3)) for _ in range(3))
        bias_val, w_val = rng.standard_normal((1, 3)), rng.standard_normal((6, 5))
        t_y, t_c = rng.standard_normal((4, 3)), rng.standard_normal((4, 5))

        def build(tape, a, b, d, bias, w):
            other = ad.add_scaled(sum_sq(ad.relu(a)), sum_sq(ad.sigmoid(b)), 1.0, 1.0)
            y = ad.add_row_bias(a, bias)
            c = ad.matmul_cat(b, d, w)
            fit = ad.add_scaled(frobenius_sq_diff(y, tape.tensor(t_y)),
                                frobenius_sq_diff(c, tape.tensor(t_c)), 1.0, 1.0)
            return ad.add_scaled(fit, other, 1.0, 1.0), y, c

        def loss_fn(arrays):
            tape = Tape()
            loss, _, _ = build(tape, *(tape.tensor(v) for v in arrays))
            return loss.item()

        values = [a_val, b_val, d_val, bias_val, w_val]
        tape = Tape()
        leaves = [tape.tensor(v) for v in values]
        loss, y, c = build(tape, *leaves)
        backward(tape, loss)
        report = finite_diff_check(loss_fn, values, [n.grad for n in leaves])
        assert report.passed, str(report)

        npt.assert_array_equal(y.grad, 2.0 * (y.value - t_y))
        npt.assert_array_equal(c.grad, 2.0 * (c.value - t_c))
        b_grad, d_grad = leaves[1].grad, leaves[2].grad
        assert not np.may_share_memory(b_grad, d_grad)
        assert b_grad.base is None and d_grad.base is None

    def test_scalar_loss_required(self):
        t = Tape()
        a = t.tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            backward(t, a)

    def test_cross_tape_mixing_errors(self):
        a = Tape().tensor(np.ones((2, 2)))
        b = Tape().tensor(np.ones((2, 2)))
        with pytest.raises(TapeError):
            ad.hadamard(a, b)

    # a (4, 3) node `a` and a (4, 1) node `b`: without their guards the first
    # three operators would broadcast b against a without a word
    @pytest.mark.parametrize("call, error, message", [
        (lambda a, b: ad.add_scaled(a, b, 1.0, 1.0), ValueError,
         r"add_scaled shape mismatch: \(4, 3\) vs \(4, 1\)"),
        (ad.add_row_bias, ValueError, r"bias shape \(4, 1\) does not match columns of \(4, 3\)"),
        (ad.hadamard, ValueError, r"hadamard shape mismatch: \(4, 3\) vs \(4, 1\)"),
        (ad.mean_row_cosine, ValueError, r"mean_row_cosine shape mismatch: \(4, 3\) vs \(4, 1\)"),
        (lambda a, b: b.item(), ValueError, r"item\(\) requires a scalar node"),
        (lambda a, b: a.tape.tensor(np.ones(3)), ValueError,
         r"tape values must be 2-D, got shape \(3,\)"),
        (lambda a, b: backward(Tape(), sum_sq(a)), TapeError,
         "loss node does not belong to this tape"),
    ], ids=["add_scaled", "add_row_bias", "hadamard", "mean_row_cosine", "item",
            "tensor", "backward"])
    def test_argument_checks(self, call, error, message):
        t = Tape()
        a, b = t.tensor(np.ones((4, 3))), t.tensor(np.ones((4, 1)))
        with pytest.raises(error, match=message):
            call(a, b)

    def test_gradient_additivity(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 3))

        def f_loss(tape, nodes):
            return sum_sq(ad.relu(nodes[0]))

        def g_loss(tape, nodes):
            return frobenius_sq_diff(nodes[0], tape.tensor(np.ones((3, 3))))

        def combined(tape, nodes):
            return ad.add_scaled(f_loss(tape, nodes), g_loss(tape, nodes), 1.0, 1.0)

        gf = tape_gradient(f_loss, [v.copy()])[0]
        gg = tape_gradient(g_loss, [v.copy()])[0]
        gc = tape_gradient(combined, [v.copy()])[0]
        npt.assert_allclose(gc, gf + gg, rtol=1e-12)


class TestReluOutputMask:
    """`ad.relu` masks its backward with the output, `relu_input_mask` with the input."""

    SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0]

    @staticmethod
    def value_and_grad(op, x, w):
        t = Tape()
        a = t.tensor(x.copy())
        out = op(a)
        backward(t, weighted_sum(out, w))
        return out.value, a.grad

    @pytest.mark.parametrize("case", ["special", "random"])
    def test_bitwise_equal_to_input_mask(self, case):
        rng = np.random.default_rng(3)
        if case == "special":
            x = np.array([self.SPECIAL])
        else:
            x = rng.standard_normal((16, 9))
            x[rng.random(x.shape) < 0.2] = 0.0
        w = rng.standard_normal(x.shape)
        y, g = self.value_and_grad(ad.relu, x, w)
        y_ref, g_ref = self.value_and_grad(relu_input_mask, x, w)
        npt.assert_array_equal(y.view(np.int64), y_ref.view(np.int64))
        npt.assert_array_equal(g.view(np.int64), g_ref.view(np.int64))
        npt.assert_array_equal(g != 0.0, x > 0.0)


class TestRetention:
    """A VJP binds the arrays its formula reads, not whole nodes."""

    def test_relu_frees_its_input(self):
        t = Tape()
        x = t.tensor(np.array([[-1.0, 2.0, 0.5], [3.0, -0.5, 0.0]]))
        pre = ad.scale(x, 2.0)
        y = ad.relu(pre)
        freed = weakref.ref(pre.value)
        del pre
        assert freed() is None and len(t._entries) == 2
        backward(t, weighted_sum(y, np.ones(y.shape)))
        npt.assert_array_equal(x.grad, 2.0 * (x.value > 0.0))

    def test_relu_frees_its_output(self):
        # backward keeps the bool mask y > 0, not the float output
        t = Tape()
        x = t.tensor(np.array([[-1.0, 2.0, 0.5], [3.0, -0.5, 0.0]]))
        y = ad.relu(x)
        z = ad.scale(y, 3.0)
        freed = weakref.ref(y.value)
        del y
        assert freed() is None and len(t._entries) == 2
        backward(t, weighted_sum(z, np.ones(z.shape)))
        npt.assert_array_equal(x.grad, 3.0 * (x.value > 0.0))

    def test_gram_distance_sq_frees_difference_and_sum(self):
        # D = a - b and S = a + b are N x h arrays made from the inputs; every
        # array the op derives from them is logged, and only the h x h
        # products may outlive the forward call
        n, h = 7, 3
        log = []

        class Logged(np.ndarray):
            def __array_finalize__(self, obj):
                log.append((self.shape, weakref.ref(self)))

        rng = np.random.default_rng(11)
        t = Tape()
        a, b = t.tensor(rng.standard_normal((n, h))), t.tensor(rng.standard_normal((n, h)))
        a_val, b_val = a.value, b.value
        a.value, b.value = a_val.view(Logged), b_val.view(Logged)
        log.clear()
        loss = ad.gram_distance_sq(a, b)
        assert any(shape == (n, h) for shape, _ in log)
        assert all(ref() is None for shape, ref in log if shape == (n, h))
        assert len(t._entries) == 1
        backward(t, loss)
        ref = Tape()
        a_ref, b_ref = ref.tensor(a_val), ref.tensor(b_val)
        backward(ref, ad.gram_distance_sq(a_ref, b_ref))
        npt.assert_array_equal(a.grad, a_ref.grad)
        npt.assert_array_equal(b.grad, b_ref.grad)

    def test_add_scaled_frees_its_operands(self):
        t = Tape()
        x = t.tensor(np.arange(6.0).reshape(2, 3))
        a, b = ad.scale(x, 2.0), ad.scale(x, 3.0)
        out = ad.add_scaled(a, b, 0.5, -1.0)
        freed = [weakref.ref(a.value), weakref.ref(b.value)]
        del a, b
        assert all(r() is None for r in freed) and len(t._entries) == 3
        backward(t, weighted_sum(out, np.ones(out.shape)))
        npt.assert_array_equal(x.grad, np.full((2, 3), -2.0))

    def test_full_model_step_memory(self):
        # one unit is a float64 N x h matrix (16 features, 5 classes, h = 64).
        # At N = 600 the tape that kept every node alive measured 78.9 units
        # after the forward pass and 87.8 at the backward peak; closures that
        # kept float relu outputs, the Gram loss's D and S and a concatenation
        # copy measured 38.8 and 45.7
        m = step_memory(600)
        unit = unit_bytes(600)
        assert m.live / unit <= 30.0
        assert m.peak / unit <= 38.0


def random_shape(rng):
    return int(rng.integers(1, 9)), int(rng.integers(1, 9))


OP_CASES = {
    "matmul": lambda t, ns: sum_sq(ad.matmul(ns[0], ns[1])),
    "relu": lambda t, ns: sum_sq(ad.relu(ns[0])),
    "sigmoid": lambda t, ns: sum_sq(ad.sigmoid(ns[0])),
    "add_scaled": lambda t, ns: sum_sq(ad.add_scaled(ns[0], ns[1], 0.7, -1.3)),
    "scale": lambda t, ns: sum_sq(ad.scale(ns[0], -2.5)),
    "add_row_bias": lambda t, ns: sum_sq(ad.add_row_bias(ns[0], ns[1])),
    "hadamard": lambda t, ns: sum_sq(ad.hadamard(ns[0], ns[1])),
    "matmul_cat": lambda t, ns: sum_sq(ad.matmul_cat(ns[0], ns[1], ns[2])),
    "softmax_rows": lambda t, ns: sum_sq(softmax_rows(ns[0])),
    "l2_normalize_rows": lambda t, ns: sum_sq(ad.l2_normalize_rows(ns[0])),
    "row_gram": lambda t, ns: sum_sq(row_gram(ns[0])),
    "frobenius_sq_diff": lambda t, ns: frobenius_sq_diff(ns[0], ns[1]),
    "gram_distance_sq": lambda t, ns: ad.gram_distance_sq(ns[0], ns[1]),
    "mean_row_cosine": lambda t, ns: ad.mean_row_cosine(ns[0], ns[1]),
    "spmm": lambda t, ns: sum_sq(ad.spmm(rectangular_csr(ns[0].shape[0]), ns[0])),
    "masked_cross_entropy": lambda t, ns: two_op_cross_entropy(ns[0], *cyclic_labels(ns[0])),
    "softmax_cross_entropy": lambda t, ns: ad.softmax_cross_entropy(ns[0],
                                                                    *cyclic_labels(ns[0])),
}


def rectangular_csr(n):
    """A fixed sparse (n + 1) x n constant for the spmm case: rectangular, so a
    VJP that drops the transpose fails."""
    return sp.csr_array(np.tril(np.arange(1.0, n + 2)[:, None] * np.ones((1, n)), k=-1))


def cyclic_labels(logits):
    """Class ids v mod C and every other row's node id, for the loss cases."""
    n, c = logits.shape
    return np.arange(n) % c, np.arange(0, n, 2)


TAPE_OPERATORS = {"matmul", "spmm", "relu", "sigmoid", "add_scaled", "scale", "add_row_bias",
                  "hadamard", "matmul_cat", "l2_normalize_rows", "gram_distance_sq",
                  "mean_row_cosine", "softmax_cross_entropy"}


def test_every_tape_operator_has_a_gradient_case():
    recording = {name for name, f in vars(ad).items()
                 if inspect.isfunction(f) and f.__module__ == ad.__name__
                 and not name.startswith("_") and re.search(r"\b_op\(", inspect.getsource(f))}
    assert recording == TAPE_OPERATORS
    assert recording - set(OP_CASES) == set()


def build_values(name, rng):
    r, c = random_shape(rng)
    if name == "matmul":
        k = int(rng.integers(1, 9))
        return [rng.standard_normal((r, k)), rng.standard_normal((k, c))]
    if name in ("relu", "sigmoid"):
        v = rng.standard_normal((r, c))
        v[np.abs(v) < 1e-3] += 0.1  # keep clear of the relu kink for FD
        return [v]
    if name == "add_row_bias":
        return [rng.standard_normal((r, c)), rng.standard_normal((1, c))]
    if name in ("add_scaled", "hadamard", "frobenius_sq_diff", "gram_distance_sq"):
        return [rng.standard_normal((r, c)), rng.standard_normal((r, c))]
    if name == "matmul_cat":
        c2, k = (int(v) for v in rng.integers(1, 9, size=2))
        return [rng.standard_normal((r, c)), rng.standard_normal((r, c2)),
                rng.standard_normal((c + c2, k))]
    if name in ("l2_normalize_rows", "mean_row_cosine"):
        a = rng.standard_normal((r, c)) + np.sign(rng.standard_normal((r, c))) * 0.5
        b = rng.standard_normal((r, c)) + np.sign(rng.standard_normal((r, c))) * 0.5
        return [a, b][: 2 if name == "mean_row_cosine" else 1]
    if name in ("masked_cross_entropy", "softmax_cross_entropy"):
        return [rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(2, 5))))]
    return [rng.standard_normal((r, c))]


@pytest.mark.parametrize("name", list(OP_CASES))
def test_operator_gradients_match_finite_differences(name):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        check_op_gradient(OP_CASES[name], build_values(name, rng))


def recorded_tape(name):
    """(tape, loss) of the OP_CASES case `name`, or of one full-model objective
    (h = 8, on the gradient-check instance) for "full_model", before backward."""
    if name == "full_model":
        cfg = TrainConfig(hidden_dim=8, knn_k=3, train_per_class=2, val_per_class=1)
        g = random_check_instance()
        objective = full_objective(g, knn_feature_graph(g.features, cfg.knn_k), cfg,
                                   make_split(g, cfg).train)
        loss = objective(init_params(g.features.shape[1], g.n_classes, cfg.hidden_dim,
                                     np.random.default_rng(1))).loss
        return loss.tape, loss
    tape = Tape()
    nodes = [tape.tensor(v) for v in build_values(name, np.random.default_rng(0))]
    return tape, OP_CASES[name](tape, nodes)


@pytest.mark.parametrize("name", [*OP_CASES, "full_model"])
def test_vjps_bind_no_node_tape_or_slot(name):
    # a VJP that reads `b.value` in backward binds the node `b`, and with it
    # the whole tape's values through b.tape
    tape, _ = recorded_tape(name)
    assert tape._entries
    for vjp, _, _ in tape._entries:
        held = [cell.cell_contents for cell in vjp.__closure__ or ()]
        assert not [x for x in held if isinstance(x, (ad.TensorNode, Tape, ad._GradSlot))], \
            vjp.__qualname__


@pytest.mark.parametrize("name", [*OP_CASES, "full_model"])
def test_vjp_gradients_are_fresh(name):
    # a slot's first gradient becomes its buffer and later ones are added
    # into it in place, so no returned gradient may share memory with g or
    # with another gradient of the same VJP
    tape, loss = recorded_tape(name)
    ran = []

    def checked(vjp):
        def run(g):
            grads = vjp(g)
            for i, x in enumerate(grads):
                for y in (g, *grads[:i]):
                    assert not np.may_share_memory(x, y), vjp.__qualname__
            ran.append(vjp)
            return grads
        return run

    tape._entries[:] = [(checked(vjp), slots, out) for vjp, slots, out in tape._entries]
    n_entries = len(tape._entries)
    backward(tape, loss)
    assert len(ran) == n_entries > 0


def test_spmm_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 8))
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < 0.4], seed=seed)
        p = normalized_adjacency(g)
        h = rng.standard_normal((n, int(rng.integers(1, 6))))
        check_op_gradient(lambda t, ns: sum_sq(ad.spmm(p, ns[0])), [h])
    # rectangular operands: a backward that drops the transpose fails here
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        rows, cols = rng.integers(1, 8, size=2)
        if rows == cols:
            cols += 1
        p = sp.csr_array(rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.5))
        h = rng.standard_normal((cols, int(rng.integers(1, 6))))
        check_op_gradient(lambda t, ns: sum_sq(ad.spmm(p, ns[0])), [h])


class TestGramDistanceSq:
    """`gram_distance_sq` against the N x N reference form it replaces."""

    @staticmethod
    def fused_and_reference(a, b):
        results = []
        for build in (ad.gram_distance_sq,
                      lambda x, y: frobenius_sq_diff(row_gram(x), row_gram(y))):
            t = Tape()
            x, y = t.tensor(a), t.tensor(b)
            loss = build(x, y)
            backward(t, loss)
            results.append((loss.item(), x.grad, y.grad))
        return results

    @pytest.mark.parametrize("n, h", [(40, 6), (5, 12), (1, 4), (1, 1), (300, 64)])
    @pytest.mark.parametrize("near_equal", [False, True])
    def test_matches_gram_form(self, n, h, near_equal):
        rng = np.random.default_rng(n * 100 + h)
        a = rng.standard_normal((n, h))
        if near_equal:
            # the reference subtracts Gram matrices that agree to about 6
            # digits, so it keeps only about 10 of float64's 16
            b, tol = a + 1e-6 * rng.standard_normal((n, h)), 1e-8
        else:
            b, tol = rng.standard_normal((n, h)), 1e-12
        (v, ga, gb), (v_ref, ga_ref, gb_ref) = self.fused_and_reference(a, b)
        assert v == pytest.approx(v_ref, rel=tol)
        for g, g_ref in ((ga, ga_ref), (gb, gb_ref)):
            npt.assert_allclose(g, g_ref, rtol=tol, atol=tol * np.abs(g_ref).max())

    def test_equal_inputs_exact_zero(self):
        a = np.random.default_rng(7).standard_normal((9, 3))
        v, ga, gb = self.fused_and_reference(a, a.copy())[0]
        assert v == 0.0
        assert not ga.any() and not gb.any()

    def test_rotated_copy_nonnegative(self):
        # a a^T == (a q)(a q)^T for orthogonal q, while a q != a
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.standard_normal((30, 5))
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            v = self.fused_and_reference(a, a @ q)[0][0]
            assert 0.0 <= v < 1e-10

    def test_shape_error(self):
        t = Tape()
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.gram_distance_sq(t.tensor(np.ones((4, 3))), t.tensor(np.ones((4, 2))))


class TestExtremeRows:
    """Rows whose squares underflow or overflow, with warnings as errors.

    Each row has the direction u = (1, 2, 2) / 3 and a magnitude whose sum of
    squares is subnormal (1e-160), underflows to 0 (1e-170) or overflows
    (1e200); a plain sqrt of the sum of squares gets the first wrong in the
    sixth digit and fails on the other two.
    """

    SCALES = [1e-160, 1e-170, 1e200]
    ROW = np.array([[1.0, 2.0, 2.0], [3.0, -4.0, 12.0]])

    @staticmethod
    def normalized(x, w):
        t = Tape()
        a = t.tensor(x)
        out = ad.l2_normalize_rows(a)
        backward(t, weighted_sum(out, w))
        return out.value, a.grad

    @pytest.mark.parametrize("scale", SCALES)
    def test_l2_normalize_rows(self, scale):
        w = np.random.default_rng(12).standard_normal(self.ROW.shape)
        y_ref, g_ref = self.normalized(self.ROW, w)
        x = self.ROW.copy()
        x[0] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, g = self.normalized(x, w)
        npt.assert_allclose(y[0], [1 / 3, 2 / 3, 2 / 3], rtol=1e-15)
        # the ordinary row keeps its bits; a row scaled by s has gradient / s
        npt.assert_array_equal(y[1], y_ref[1])
        npt.assert_array_equal(g[1], g_ref[1])
        npt.assert_allclose(g[0] * scale, g_ref[0], rtol=1e-14)

    @staticmethod
    def cosine(a, b):
        t = Tape()
        na, nb = t.tensor(a), t.tensor(b)
        out = ad.mean_row_cosine(na, nb)
        backward(t, out)
        return out.item(), na.grad, nb.grad

    @pytest.mark.parametrize("scale", SCALES)
    def test_mean_row_cosine_ignores_row_scale(self, scale):
        other = np.array([[2.0, -1.0, 0.5], [1.0, 1.0, 1.0]])
        v_ref, ga_ref, gb_ref = self.cosine(self.ROW, other)
        x = self.ROW.copy()
        x[1] *= scale
        for scaled_first in (True, False):   # the cosine is symmetric
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if scaled_first:
                    v, g_scaled, g_other = self.cosine(x, other)
                else:
                    v, g_other, g_scaled = self.cosine(other, x)
            assert v == pytest.approx(v_ref, rel=1e-15)
            # a row scaled by s has gradient / s; its partner row keeps its
            # value, and the ordinary row keeps its bits
            npt.assert_allclose(g_scaled[1] * scale, ga_ref[1], rtol=1e-14)
            npt.assert_allclose(g_other[1], gb_ref[1], rtol=1e-14)
            npt.assert_array_equal(g_scaled[0], ga_ref[0])
            npt.assert_array_equal(g_other[0], gb_ref[0])

    def test_mean_row_cosine_names_a_zero_row(self):
        x = self.ROW.copy()
        x[1] = 0.0
        t = Tape()
        with pytest.raises(ValueError, match="undefined on zero row 1"):
            ad.mean_row_cosine(t.tensor(x), t.tensor(self.ROW))
        with pytest.raises(ValueError, match="undefined on zero row 1"):
            ad.mean_row_cosine(t.tensor(self.ROW), t.tensor(x))

    def test_mean_row_cosine_non_finite_row_gives_nan(self):
        # left to the training loop's non-finite loss check
        t = Tape()
        x = self.ROW.copy()
        x[0, 1] = np.nan
        assert np.isnan(ad.mean_row_cosine(t.tensor(x), t.tensor(self.ROW)).item())


    @pytest.mark.parametrize("scale", SCALES)
    def test_knn_feature_graph_ignores_row_scale(self, scale):
        # node 0's nearest neighbour is node 1 by a cosine margin of 5e-6, so a
        # row normalized to a norm off by 1e-5 would pick node 2 instead
        x = np.array([[1.0, 0.0], [np.cos(0.01), np.sin(0.01)],
                      [np.cos(0.0105), np.sin(0.0105)], [0.0, 1.0], [-1.0, 0.2]])
        want = [[0, 1], [1, 2], [3, 4]]
        npt.assert_array_equal(knn_feature_graph(x, 1).edges, want)
        x[2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(knn_feature_graph(x, 1).edges, want)

    @staticmethod
    def extreme_inputs(seed, shape):
        """Row 0 near +-1e3, rows 1 and 2 scaled by 1e-160 and 1e-170."""
        x = np.random.default_rng(seed).standard_normal(shape)
        x[0] += np.copysign(1e3, x[0])
        x[1] *= 1e-160
        x[2] *= 1e-170
        return x

    @pytest.mark.parametrize("pair", ["independent", "rotated", "equal"])
    def test_gram_distance_sq(self, pair):
        a = self.extreme_inputs(14, (6, 3))
        q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((3, 3)))
        b = {"independent": self.extreme_inputs(16, (6, 3)), "rotated": a @ q,
             "equal": a.copy()}[pair]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (v, ga, gb), (v_ref, ga_ref, gb_ref) = TestGramDistanceSq.fused_and_reference(a, b)
        assert np.isfinite(v) and v >= 0.0
        assert np.isfinite(ga).all() and np.isfinite(gb).all()
        if pair == "independent":
            assert v == pytest.approx(v_ref, rel=1e-12)
            for g, g_ref in ((ga, ga_ref), (gb, gb_ref)):
                npt.assert_allclose(g, g_ref, rtol=1e-10, atol=1e-10 * np.abs(g_ref).max())
        else:
            # a a^T = b b^T: the value is rounding error, tiny beside ||a||^4
            assert v <= 1e-24 * np.sum(a * a) ** 2
        if pair == "equal":
            assert v == 0.0 and not ga.any() and not gb.any()

    def test_softmax_cross_entropy(self):
        logits = self.extreme_inputs(17, (6, 4))
        labels = [0, 1, 2, 3, 0, 1]
        y = np.eye(4)[labels]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = cross_entropy_of(ad.softmax_cross_entropy, logits, labels,
                                          np.arange(6))
        ref = -np.sum(y * (logits - logsumexp(logits, axis=1, keepdims=True)))
        assert np.isfinite(loss) and loss == pytest.approx(ref, rel=1e-12)
        assert np.isfinite(grad).all()
        npt.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


class TestOutputInvariants:
    def test_softmax_rows_sum_and_range(self):
        # a masked row's gradient is softmax - Y; unmasked rows get none
        rng = np.random.default_rng(2)
        for _ in range(20):
            labels = rng.integers(6, size=5)
            _, grad = cross_entropy_of(ad.softmax_cross_entropy,
                                       rng.standard_normal((5, 6)) * 3, labels, [0, 1, 3])
            out = (grad + np.eye(6)[labels])[[0, 1, 3]]
            npt.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1)
            npt.assert_array_equal(grad[[2, 4]], 0.0)

    def test_l2_normalize_unit_norms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = Tape()
            out = ad.l2_normalize_rows(t.tensor(rng.standard_normal((5, 4)) + 0.1)).value
            npt.assert_allclose(np.linalg.norm(out, axis=1), np.ones(5), atol=1e-12)

    def test_frobenius_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = Tape()
            a = rng.standard_normal((3, 3))
            b = a + rng.standard_normal((3, 3)) * (rng.random() > 0.5)
            val = frobenius_sq_diff(t.tensor(a), t.tensor(b)).item()
            assert val >= 0.0
            assert (val == 0.0) == np.array_equal(a, b)


def sum_of_squares(params):
    return float(np.sum(params[0] ** 2))


class TestFiniteDiffCheck:
    def test_sum_of_squares_near_exact(self):
        theta = np.random.default_rng(5).standard_normal((3, 3))
        report = finite_diff_check(sum_of_squares, [theta], [2.0 * theta])
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_softmax_cross_entropy_case(self):
        labels = np.array([0, 1, 2])

        def loss_of(t, params):
            logits = t.tensor(params[0])
            return ad.softmax_cross_entropy(logits, labels, np.arange(3)), logits

        def loss_fn(params):
            t = Tape()
            loss, _ = loss_of(t, params)
            return loss.item()

        params = [np.random.default_rng(6).standard_normal((3, 3))]
        t = Tape()
        loss, logits = loss_of(t, params)
        backward(t, loss)
        report = finite_diff_check(loss_fn, params, [logits.grad])
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_entry_names_worst_coordinate(self):
        theta = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = 2.0 * theta
        grad[1, 0] = 4.0    # the true gradient there is 1.0
        report = finite_diff_check(sum_of_squares, [theta], [grad], param_names=["theta"])
        entry = report.entries[0]
        assert entry.worst_index == (1, 0)
        assert entry.worst_fd == pytest.approx(1.0, rel=1e-8)
        assert entry.worst_grad == 4.0
        assert entry.max_rel_error == pytest.approx(0.75, rel=1e-8)
        line = str(report).splitlines()[0]
        assert line.startswith("theta ") and "max_rel_error=7.500e-01" in line
        assert line.endswith("at (1, 0) fd=1.000000e+00 grad=4.000000e+00")
        assert str(report).splitlines()[1] == \
            "overall max_rel_error=7.500e-01 tolerance=1.0e-04 -> FAIL"

    def test_nan_gradient_names_its_coordinate(self):
        grad = np.zeros((2, 2))
        grad[0, 1] = np.nan
        report = finite_diff_check(sum_of_squares, [np.zeros((2, 2))], [grad])
        assert report.entries[0].worst_index == (0, 1)
        assert report.max_rel_error == np.inf

    def test_constant_function_passes(self):
        report = finite_diff_check(lambda params: 42.0, [np.ones((2, 2))], [np.zeros((2, 2))],
                                   param_names=["w"])
        assert report.passed and report.max_rel_error == 0.0
        # every coordinate matched, so the entry names none
        assert report.entries[0].worst_index is None
        assert str(report).splitlines()[0] == \
            "w                coords=4      max_rel_error=0.000e+00"

    def test_kink_within_eps(self):
        # max(x, 0) at x = 3e-6 < eps: the central quotient is 0.65, the
        # forward one 1 (the true derivative) and the backward one 0.3
        def hinge(params):
            return float(np.maximum(params[0], 0.0).sum())

        theta = np.array([[3e-6, 2.0]])
        report = finite_diff_check(hinge, [theta], [np.ones((1, 2))], param_names=["theta"])
        assert report.passed and report.max_rel_error < 1e-8
        (idx, fwd, bwd, grad), = report.entries[0].kinks
        assert idx == (0, 0) and grad == 1.0
        assert fwd == pytest.approx(1.0, rel=1e-9) and bwd == pytest.approx(0.3, rel=1e-9)
        assert str(report).splitlines()[1] == (
            " " * 17 + "kink at (0, 0) forward fd=1.000000e+00 backward fd=3.000000e-01 "
            "grad=1.000000e+00")
        # a gradient that matches neither side is still an error
        for wrong in (1.01, 0.5):
            report = finite_diff_check(hinge, [theta], [np.array([[wrong, 1.0]])])
            assert not report.passed and report.entries[0].kinks == []

    def test_round_off_of_a_large_loss_passes(self):
        # L = 1000 + 1e-5 x: the central quotient's numerator 2e-10 carries
        # rounding of about ulp(1000) = 1.1e-13, a relative error near 5e-4
        # against a gradient of 1e-5; it lies within the bound
        # 2^-52 * 1000 / eps = 2.3e-8, while a gradient 1% off does not
        def offset_line(params):
            return float(1000.0 + 1e-5 * params[0].sum())

        theta = np.linspace(0.1, 0.9, 9).reshape(3, 3)
        report = finite_diff_check(offset_line, [theta], [np.full((3, 3), 1e-5)])
        assert report.passed and report.max_rel_error == 0.0, str(report)
        report = finite_diff_check(offset_line, [theta], [np.full((3, 3), 1.01e-5)])
        assert not report.passed and report.max_rel_error > 5e-3

    def test_wrong_gradient_fails(self):
        theta = np.ones((2, 2))
        report = finite_diff_check(sum_of_squares, [theta], [3.0 * theta])  # deliberately wrong
        assert not report.passed

    def test_nan_gradient_fails(self):
        report = finite_diff_check(sum_of_squares, [np.ones((2, 2))], [np.full((2, 2), np.nan)])
        assert not report.passed
        assert report.max_rel_error == np.inf

    def test_nan_loss_fails(self):
        report = finite_diff_check(lambda params: float("nan"), [np.ones((2, 2))],
                                   [np.zeros((2, 2))])
        assert not report.passed
        assert report.max_rel_error == np.inf

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        theta = np.ones((2, 2))
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            finite_diff_check(sum_of_squares, [theta], [2.0 * theta], eps=eps)

    @pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        theta = np.ones((2, 2))
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            finite_diff_check(sum_of_squares, [theta], [2.0 * theta], tolerance=tolerance)
        # zero is allowed: only exactly matching coordinates pass
        assert not finite_diff_check(sum_of_squares, [theta], [2.1 * theta], tolerance=0.0).passed
