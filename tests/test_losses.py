import numpy as np
import pytest

from fusegcn.autodiff import Tape, backward
from fusegcn.losses import (
    LossWeights,
    classification_loss,
    closeness_loss,
    disparity_loss,
    total_loss,
)


class TestLossWeights:
    def test_defaults_valid(self):
        w = LossWeights()
        assert w.classification == 1.0 and w.closeness == 5e-4 and w.disparity == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(classification=0.0)
        with pytest.raises(ValueError):
            LossWeights(closeness=-1.0)
        for bad in (dict(closeness=np.nan), dict(classification=np.inf),
                    dict(disparity=np.nan)):
            with pytest.raises(ValueError, match="finite"):
                LossWeights(**bad)


class TestClosenessLoss:
    def test_identical_inputs_zero(self):
        t = Tape()
        z = t.tensor(np.random.default_rng(0).standard_normal((4, 3)) + 0.2)
        z2 = t.tensor(z.value.copy())
        assert closeness_loss(z, z2).item() == 0.0

    def test_row_scale_invariance_exact(self):
        t = Tape()
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 3)) + 0.2
        a = t.tensor(z)
        b = t.tensor(2.0 * z)  # power-of-two scale: normalization is bitwise identical
        assert closeness_loss(a, b).item() == 0.0
        c = t.tensor(z * rng.uniform(0.5, 3.0, size=(5, 1)))
        assert closeness_loss(a, c).item() == pytest.approx(0.0, abs=1e-25)

    def test_hand_case_value_two(self):
        t = Tape()
        z_ct = t.tensor([[1.0, 0.0], [0.0, 1.0]])
        z_cf = t.tensor([[1.0, 0.0], [1.0, 0.0]])
        assert closeness_loss(z_ct, z_cf).item() == 2.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = Tape()
            a = t.tensor(rng.standard_normal((4, 3)) + 0.1)
            b = t.tensor(rng.standard_normal((4, 3)) + 0.1)
            assert closeness_loss(a, b).item() >= 0.0

    def test_zero_row_error(self):
        t = Tape()
        a = t.tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            closeness_loss(a, a)


class TestDisparityLoss:
    def test_aligned_minus_two(self):
        t = Tape()
        rng = np.random.default_rng(4)
        z_t = t.tensor(rng.standard_normal((3, 4)))
        z_f = t.tensor(rng.standard_normal((3, 4)))
        z_ct = t.tensor(3.0 * z_t.value)
        z_cf = t.tensor(0.5 * z_f.value)
        assert disparity_loss(z_t, z_ct, z_f, z_cf).item() == pytest.approx(-2.0)

    def test_antialigned_plus_two(self):
        t = Tape()
        rng = np.random.default_rng(5)
        z_t = t.tensor(rng.standard_normal((3, 4)))
        z_f = t.tensor(rng.standard_normal((3, 4)))
        assert disparity_loss(z_t, t.tensor(-z_t.value), z_f,
                              t.tensor(-z_f.value)).item() == pytest.approx(2.0)

    def test_orthogonal_zero(self):
        t = Tape()
        z_t = t.tensor([[1.0, 0.0], [0.0, 2.0]])
        z_ct = t.tensor([[0.0, 3.0], [4.0, 0.0]])
        assert disparity_loss(z_t, z_ct, z_t, z_ct).item() == pytest.approx(0.0, abs=1e-15)

    def test_bounded_random(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            t = Tape()
            nodes = [t.tensor(rng.standard_normal((4, 3)) + 0.05) for _ in range(4)]
            v = disparity_loss(*nodes).item()
            assert -2.0 <= v <= 2.0


class TestTotalLoss:
    def _scalars(self, t, cl, c, d):
        return t.tensor([[cl]]), t.tensor([[c]]), t.tensor([[d]])

    def test_only_classification(self):
        t = Tape()
        l_cl, l_c, l_d = self._scalars(t, 2.5, 3.0, -1.0)
        w = LossWeights(2.0, 0.0, 0.0)
        assert total_loss(l_cl, l_c, l_d, w).item() == pytest.approx(5.0)

    def test_unit_weights_sum(self):
        t = Tape()
        l_cl, l_c, l_d = self._scalars(t, 2.0, 3.0, -1.0)
        assert total_loss(l_cl, l_c, l_d, LossWeights(1.0, 1.0, 1.0)).item() == 4.0

    def test_linear_in_each_component(self):
        # gradient w.r.t. each component node equals its weight
        for w in (LossWeights(1.0, 0.25, 2.0), LossWeights(3.0, 0.5, 4.0)):
            t = Tape()
            l_cl, l_c, l_d = self._scalars(t, 1.1, 0.7, -0.3)
            out = total_loss(l_cl, l_c, l_d, w)
            backward(t, out)
            assert l_cl.grad[0, 0] == pytest.approx(w.classification)
            assert l_c.grad[0, 0] == pytest.approx(w.closeness)
            assert l_d.grad[0, 0] == pytest.approx(w.disparity)


class TestClassificationLoss:
    def test_delegates_to_softmax_cross_entropy(self):
        t = Tape()
        logits = t.tensor(np.zeros((3, 3)))
        loss = classification_loss(logits, np.array([0, 1, 2]), np.array([0, 1]))
        assert loss.item() == pytest.approx(2 * np.log(3))
