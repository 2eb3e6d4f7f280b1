import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fusegcn import autodiff as ad
from fusegcn.autodiff import Tape, TapeError, backward, finite_diff_check
from fusegcn.graphs import normalized_adjacency
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


def sum_sq(node):
    zero = node.tape.tensor(np.zeros(node.shape))
    return ad.frobenius_sq_diff(node, zero)


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

    def test_concat_cols_shape(self):
        t = Tape()
        out = ad.concat_cols(t.tensor(np.ones((3, 2))), t.tensor(np.zeros((3, 4))))
        assert out.shape == (3, 6)

    def test_concat_with_zero_width(self):
        t = Tape()
        a = t.tensor(np.arange(6.0).reshape(3, 2))
        out = ad.concat_cols(a, t.tensor(np.zeros((3, 0))))
        npt.assert_array_equal(out.value, a.value)
        backward(t, sum_sq(out))
        npt.assert_allclose(a.grad, 2 * a.value)

    def test_softmax_uniform_and_shift(self):
        t = Tape()
        npt.assert_allclose(ad.softmax_rows(t.tensor(np.zeros((1, 4)))).value,
                            np.full((1, 4), 0.25), atol=1e-15)
        a = t.tensor([[0.3, -1.2, 2.0]])
        b = t.tensor([[0.3 + 5.0, -1.2 + 5.0, 2.0 + 5.0]])
        npt.assert_allclose(ad.softmax_rows(a).value, ad.softmax_rows(b).value, atol=1e-14)

    def test_softmax_log_ratios(self):
        t = Tape()
        row = np.log([[1.0, 2.0, 3.0]])
        npt.assert_allclose(ad.softmax_rows(t.tensor(row)).value,
                            [[1 / 6, 2 / 6, 3 / 6]], rtol=1e-14)

    def test_l2_normalize(self):
        t = Tape()
        npt.assert_allclose(ad.l2_normalize_rows(t.tensor([[3.0, 4.0]])).value,
                            [[0.6, 0.8]], rtol=1e-15)
        with pytest.raises(ValueError, match="zero row"):
            ad.l2_normalize_rows(t.tensor([[0.0, 0.0]]))

    def test_frobenius_sq_diff(self):
        t = Tape()
        a = t.tensor([[3.0]])
        assert ad.frobenius_sq_diff(a, a).item() == 0.0
        assert ad.frobenius_sq_diff(a, t.tensor([[1.0]])).item() == 4.0

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
        npt.assert_array_equal(ad.row_gram(a).value, [[1.0, 1.0], [1.0, 2.0]])


class TestMaskedCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        t = Tape()
        y = np.eye(3)
        pred = t.tensor(np.clip(y, 1e-9, 1.0) / np.clip(y, 1e-9, 1.0).sum(1, keepdims=True))
        loss = ad.masked_cross_entropy(pred, y, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-7)

    def test_uniform_single_node(self):
        t = Tape()
        c = 5
        pred = t.tensor(np.full((3, c), 1.0 / c))
        y = np.eye(c)[[0, 1, 2]]
        loss = ad.masked_cross_entropy(pred, y, np.array([1]))
        assert loss.item() == pytest.approx(np.log(c))

    def test_two_nodes_uniform_c4(self):
        t = Tape()
        pred = t.tensor(np.full((4, 4), 0.25))
        y = np.eye(4)
        loss = ad.masked_cross_entropy(pred, y, np.array([0, 2]))
        assert loss.item() == pytest.approx(2 * np.log(4))

    def test_preconditions(self):
        t = Tape()
        bad = t.tensor(np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="sum to 1"):
            ad.masked_cross_entropy(bad, np.eye(3)[:2], np.array([0]))
        ok = t.tensor(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="empty"):
            ad.masked_cross_entropy(ok, np.eye(2), np.array([], dtype=int))


class TestBackwardMechanics:
    def test_grads_zero_before_backward(self):
        t = Tape()
        a = t.tensor(np.ones((2, 2)))
        out = ad.relu(a)
        assert np.all(a.grad == 0.0) and np.all(out.grad == 0.0)

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

    def test_pass_through_grads_are_not_shared(self):
        # add_row_bias hands its output gradient to `a`, concat_cols hands
        # views of its own to `b` and `d`. `a` and `b` also feed earlier ops,
        # whose contributions backward adds later: they must land in the
        # inputs' buffers, not in the output gradients y.grad and c.grad
        rng = np.random.default_rng(8)
        a_val, b_val, d_val = (rng.standard_normal((4, 3)) for _ in range(3))
        bias_val = rng.standard_normal((1, 3))
        t_y, t_c = rng.standard_normal((4, 3)), rng.standard_normal((4, 6))

        def build(tape, a, b, d, bias):
            other = ad.add_scaled(sum_sq(ad.relu(a)), sum_sq(ad.sigmoid(b)), 1.0, 1.0)
            y = ad.add_row_bias(a, bias)
            c = ad.concat_cols(b, d)
            fit = ad.add_scaled(ad.frobenius_sq_diff(y, tape.tensor(t_y)),
                                ad.frobenius_sq_diff(c, tape.tensor(t_c)), 1.0, 1.0)
            return ad.add_scaled(fit, other, 1.0, 1.0), y, c

        def f(arrays):
            tape = Tape()
            leaves = [tape.tensor(v) for v in arrays]
            loss, _, _ = build(tape, *leaves)
            backward(tape, loss)
            return loss.item(), [n.grad for n in leaves]

        report = finite_diff_check(f, [a_val, b_val, d_val, bias_val])
        assert report.passed, str(report)

        tape = Tape()
        loss, y, c = build(tape, *(tape.tensor(v) for v in (a_val, b_val, d_val, bias_val)))
        backward(tape, loss)
        npt.assert_array_equal(y.grad, 2.0 * (y.value - t_y))
        npt.assert_array_equal(c.grad, 2.0 * (c.value - t_c))

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

    def test_gradient_additivity(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 3))

        def f_loss(tape, nodes):
            return sum_sq(ad.relu(nodes[0]))

        def g_loss(tape, nodes):
            return ad.frobenius_sq_diff(nodes[0], tape.tensor(np.ones((3, 3))))

        def combined(tape, nodes):
            return ad.add_scaled(f_loss(tape, nodes), g_loss(tape, nodes), 1.0, 1.0)

        gf = tape_gradient(f_loss, [v.copy()])[0]
        gg = tape_gradient(g_loss, [v.copy()])[0]
        gc = tape_gradient(combined, [v.copy()])[0]
        npt.assert_allclose(gc, gf + gg, rtol=1e-12)


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
    "concat_cols": lambda t, ns: sum_sq(ad.concat_cols(ns[0], ns[1])),
    "softmax_rows": lambda t, ns: sum_sq(ad.softmax_rows(ns[0])),
    "l2_normalize_rows": lambda t, ns: sum_sq(ad.l2_normalize_rows(ns[0])),
    "row_gram": lambda t, ns: sum_sq(ad.row_gram(ns[0])),
    "frobenius_sq_diff": lambda t, ns: ad.frobenius_sq_diff(ns[0], ns[1]),
    "gram_distance_sq": lambda t, ns: ad.gram_distance_sq(ns[0], ns[1]),
    "mean_row_cosine": lambda t, ns: ad.mean_row_cosine(ns[0], ns[1]),
    "spmm": None,  # handled separately (needs a sparse operand)
    "masked_cross_entropy": lambda t, ns: ad.masked_cross_entropy(
        ad.softmax_rows(ns[0]), np.eye(ns[0].shape[1])[np.arange(ns[0].shape[0]) % ns[0].shape[1]],
        np.arange(ns[0].shape[0])),
}


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
    if name == "concat_cols":
        return [rng.standard_normal((r, c)), rng.standard_normal((r, int(rng.integers(1, 9))))]
    if name in ("l2_normalize_rows", "mean_row_cosine"):
        a = rng.standard_normal((r, c)) + np.sign(rng.standard_normal((r, c))) * 0.5
        b = rng.standard_normal((r, c)) + np.sign(rng.standard_normal((r, c))) * 0.5
        return [a, b][: 2 if name == "mean_row_cosine" else 1]
    if name == "masked_cross_entropy":
        return [rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(2, 5))))]
    return [rng.standard_normal((r, c))]


@pytest.mark.parametrize("name", [k for k, v in OP_CASES.items() if v is not None])
def test_operator_gradients_match_finite_differences(name):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        check_op_gradient(OP_CASES[name], build_values(name, rng))


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
                      lambda x, y: ad.frobenius_sq_diff(ad.row_gram(x), ad.row_gram(y))):
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


class TestOutputInvariants:
    def test_softmax_rows_sum_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = Tape()
            out = ad.softmax_rows(t.tensor(rng.standard_normal((5, 6)) * 3)).value
            npt.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
            assert np.all(out > 0) and np.all(out < 1)

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
            val = ad.frobenius_sq_diff(t.tensor(a), t.tensor(b)).item()
            assert val >= 0.0
            assert (val == 0.0) == np.array_equal(a, b)


class TestFiniteDiffCheck:
    def test_sum_of_squares_near_exact(self):
        def f(params):
            theta = params[0]
            return float(np.sum(theta * theta)), [2.0 * theta]

        rng = np.random.default_rng(5)
        report = finite_diff_check(f, [rng.standard_normal((3, 3))])
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_softmax_cross_entropy_case(self):
        y = np.eye(3)
        mask = np.array([0, 1, 2])

        def f(params):
            t = Tape()
            logits = t.tensor(params[0])
            loss = ad.masked_cross_entropy(ad.softmax_rows(logits), y, mask)
            backward(t, loss)
            return loss.item(), [logits.grad]

        rng = np.random.default_rng(6)
        report = finite_diff_check(f, [rng.standard_normal((3, 3))])
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_constant_function_passes(self):
        def f(params):
            return 42.0, [np.zeros_like(params[0])]

        report = finite_diff_check(f, [np.ones((2, 2))])
        assert report.passed and report.max_rel_error == 0.0

    def test_wrong_gradient_fails(self):
        def f(params):
            theta = params[0]
            return float(np.sum(theta * theta)), [3.0 * theta]  # deliberately wrong

        report = finite_diff_check(f, [np.ones((2, 2))])
        assert not report.passed

    def test_nan_gradient_fails(self):
        def f(params):
            return float(np.sum(params[0] ** 2)), [np.full_like(params[0], np.nan)]

        report = finite_diff_check(f, [np.ones((2, 2))])
        assert not report.passed
        assert report.max_rel_error == np.inf

    def test_nan_loss_fails(self):
        def f(params):
            return float("nan"), [np.zeros_like(params[0])]

        report = finite_diff_check(f, [np.ones((2, 2))])
        assert not report.passed
        assert report.max_rel_error == np.inf

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        def f(params):
            return float(np.sum(params[0] ** 2)), [2.0 * params[0]]

        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            finite_diff_check(f, [np.ones((2, 2))], eps=eps)
