"""The three training objectives and their weighted total.

closeness: squared Frobenius distance between the Gram matrices of the
two row-normalized common-encoder outputs, pulling the shared views
together. It is computed in O(N h^2) by `autodiff.gram_distance_sq`,
without forming either N x N Gram matrix. disparity: negative mean
row-wise cosine between each view embedding and its common counterpart,
pushing them apart. classification: softmax cross-entropy of the class
logits, summed over the training nodes (`autodiff.softmax_cross_entropy`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class LossWeights:
    classification: float = 1.0
    closeness: float = 5e-4
    disparity: float = 1e-3

    def __post_init__(self):
        if not np.isfinite([self.classification, self.closeness, self.disparity]).all():
            raise ValueError("loss weights must be finite")
        if self.classification <= 0:
            raise ValueError("classification weight must be positive")
        if self.closeness < 0 or self.disparity < 0:
            raise ValueError("loss weights must be nonnegative")


def closeness_loss(z_ct, z_cf):
    """||gram(norm(z_ct)) - gram(norm(z_cf))||_F^2.

    Evaluated from h x h products of the difference and the sum of the two
    normalized outputs (see `autodiff.gram_distance_sq`): O(N h^2) time and
    no N x N matrix. That form, unlike the expansion into three h x h Gram
    norms, keeps the value at or near 0 for equal or near-equal inputs
    instead of cancelling to a small negative number.
    """
    return ad.gram_distance_sq(ad.l2_normalize_rows(z_ct), ad.l2_normalize_rows(z_cf))


def disparity_loss(z_t, z_ct, z_f, z_cf):
    """-(mean row cosine of the topology pair + mean row cosine of the feature pair)."""
    m_t = ad.mean_row_cosine(z_t, z_ct)
    m_f = ad.mean_row_cosine(z_f, z_cf)
    return ad.add_scaled(m_t, m_f, -1.0, -1.0)


def classification_loss(logits, y_onehot: np.ndarray, train_mask: np.ndarray):
    return ad.softmax_cross_entropy(logits, y_onehot, train_mask)


def total_loss(l_cl, l_c, l_d, weights: LossWeights):
    head = ad.add_scaled(l_cl, l_c, weights.classification, weights.closeness)
    return ad.add_scaled(head, l_d, 1.0, weights.disparity)
