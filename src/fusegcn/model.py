"""Three-channel encoder model: topology view, feature view, shared common view.

Both views start from the same MLP-lifted representation of the raw features.
A two-layer residual GCN encodes each view on its own graph; a third encoder
with one shared weight set runs on both graphs and its two outputs combine
into a common embedding. Feature-level attention gates the fusion, and a
linear head over the concatenated fused views yields the class logits.

Plain two-layer GCN baselines (topology graph / kNN feature graph) live here
as well. Either model's parameters are a plain dict of named arrays
(`init_params`, `baseline_init`); `is_bias` tells the biases by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tape, TensorNode

PROP_WEIGHT = 0.8     # weight on the propagated signal in residual layers
COMMON_MIX = 0.85     # weight on the anchor MLP inside the common-encoder input


def glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(n_features: int, n_classes: int, hidden: int, rng) -> dict[str, np.ndarray]:
    """The three-channel model's trainable arrays, keyed by name.

    The common encoder owns a single weight set (`common_w0/w1`) that both
    view passes reference; every hidden width equals the embedding width.
    """
    h = hidden
    a = {}
    a["input_w1"] = glorot(rng, n_features, h)
    a["input_b1"] = np.zeros((1, h))
    a["input_w2"] = glorot(rng, h, h)
    a["input_b2"] = np.zeros((1, h))
    for enc in ("topo", "feat", "common"):
        a[f"{enc}_w0"] = glorot(rng, h, h)
        a[f"{enc}_w1"] = glorot(rng, h, h)
    a["anchor_w1"] = glorot(rng, h, h)
    a["anchor_b1"] = np.zeros((1, h))
    a["anchor_w2"] = glorot(rng, h, h)
    a["anchor_b2"] = np.zeros((1, h))
    a["comb_w0"] = glorot(rng, 2 * h, h)
    a["comb_b0"] = np.zeros((1, h))
    for ch in ("t", "f", "c"):
        a[f"att_{ch}_w1"] = glorot(rng, h, h)
        a[f"att_{ch}_b1"] = np.zeros((1, h))
        a[f"att_{ch}_w2"] = glorot(rng, h, h)
        a[f"att_{ch}_b2"] = np.zeros((1, h))
    a["out_w"] = glorot(rng, 2 * h, n_classes)
    a["out_b"] = np.zeros((1, n_classes))
    return a


def is_bias(name: str) -> bool:
    """Whether a parameter is a bias: its last `_` part starts with 'b'."""
    return name.rsplit("_", 1)[-1].startswith("b")


@dataclass
class ForwardState:
    """The nodes of one full forward pass that the losses and the trace read."""

    z_t: TensorNode
    z_f: TensorNode
    z_ct: TensorNode
    z_cf: TensorNode
    att_t: TensorNode
    att_f: TensorNode
    att_c: TensorNode
    logits: TensorNode
    leaves: dict[str, TensorNode]


def mlp_two_layer(x, w1, b1, w2, b2):
    """ReLU hidden layer followed by a linear output layer."""
    return ad.add_row_bias(ad.matmul(ad.relu(ad.add_row_bias(ad.matmul(x, w1), b1)), w2), b2)


def input_mlp(x: sp.csr_array, w1, b1, w2, b2):
    """`mlp_two_layer` on the constant sparse feature matrix `x`.

    The first product is an `spmm`: it skips the zero features and sends no
    gradient to `x`, which nothing would read.
    """
    hidden = ad.relu(ad.add_row_bias(ad.spmm(x, w1), b1))
    return ad.add_row_bias(ad.matmul(hidden, w2), b2)


def residual_gcn_layer(p: sp.csr_array, h_l, h_0, w):
    """One encoder layer: PROP_WEIGHT * ReLU(P h_l W) + (1 - PROP_WEIGHT) * h_0."""
    propagated = ad.relu(ad.matmul(ad.spmm(p, h_l), w))
    return ad.add_scaled(propagated, h_0, PROP_WEIGHT, 1.0 - PROP_WEIGHT)


def encoder_forward(p: sp.csr_array, h0, w0, w1):
    """Two stacked residual layers, both anchored to the encoder input h0."""
    h1 = residual_gcn_layer(p, h0, h0, w0)
    return residual_gcn_layer(p, h1, h0, w1)


def common_input(h_anchor, z):
    """COMMON_MIX * h_anchor + (1 - COMMON_MIX) * z, the common-encoder input for one view."""
    return ad.add_scaled(h_anchor, z, COMMON_MIX, 1.0 - COMMON_MIX)


def common_encoder(p_t, p_f, h_anchor, z_t, z_f, leaves):
    """Shared-weight encoder (`common_w0/w1`) over both views plus the linear combiner."""
    w0, w1 = leaves["common_w0"], leaves["common_w1"]
    z_ct = encoder_forward(p_t, common_input(h_anchor, z_t), w0, w1)
    z_cf = encoder_forward(p_f, common_input(h_anchor, z_f), w0, w1)
    z_c = ad.add_row_bias(ad.matmul_cat(z_ct, z_cf, leaves["comb_w0"]), leaves["comb_b0"])
    return z_ct, z_cf, z_c


def attention_fuse(z_t, z_f, z_c, leaves):
    """Per-node, per-feature gates for the three channels, then the fused views.

    Each channel's gate is an independent one-hidden-layer MLP with sigmoid
    output. All three MLP scores are taken before the first sigmoid, which
    fixes the order of the tape.
    """
    scores = [mlp_two_layer(z, leaves[f"att_{ch}_w1"], leaves[f"att_{ch}_b1"],
                            leaves[f"att_{ch}_w2"], leaves[f"att_{ch}_b2"])
              for ch, z in (("t", z_t), ("f", z_f), ("c", z_c))]
    att_t, att_f, att_c = (ad.sigmoid(s) for s in scores)
    gated_c = ad.hadamard(att_c, z_c)
    z_tilde_t = ad.add_scaled(ad.hadamard(att_t, z_t), gated_c, 1.0, 1.0)
    z_tilde_f = ad.add_scaled(ad.hadamard(att_f, z_f), gated_c, 1.0, 1.0)
    return z_tilde_t, z_tilde_f, att_t, att_f, att_c


def predict(z_tilde_t, z_tilde_f, w, b):
    """Class logits: the linear head on the concatenated fused views."""
    return ad.add_row_bias(ad.matmul_cat(z_tilde_t, z_tilde_f, w), b)


def forward_full(tape: Tape, params: dict[str, np.ndarray], p_t: sp.csr_array, p_f: sp.csr_array,
                 x: sp.csr_array) -> ForwardState:
    """One full forward pass; returns the nodes the objective reads plus parameter leaves.

    `x` is the feature matrix as a sparse constant (see `input_mlp`).
    """
    leaves = {name: tape.tensor(arr) for name, arr in params.items()}
    h0 = input_mlp(x, leaves["input_w1"], leaves["input_b1"],
                   leaves["input_w2"], leaves["input_b2"])
    z_t = encoder_forward(p_t, h0, leaves["topo_w0"], leaves["topo_w1"])
    z_f = encoder_forward(p_f, h0, leaves["feat_w0"], leaves["feat_w1"])
    h_anchor = mlp_two_layer(h0, leaves["anchor_w1"], leaves["anchor_b1"],
                             leaves["anchor_w2"], leaves["anchor_b2"])
    z_ct, z_cf, z_c = common_encoder(p_t, p_f, h_anchor, z_t, z_f, leaves)
    z_tilde_t, z_tilde_f, att_t, att_f, att_c = attention_fuse(z_t, z_f, z_c, leaves)
    logits = predict(z_tilde_t, z_tilde_f, leaves["out_w"], leaves["out_b"])
    return ForwardState(z_t, z_f, z_ct, z_cf, att_t, att_f, att_c, logits, leaves)


# ---------------------------------------------------------------------------
# plain GCN baselines
# ---------------------------------------------------------------------------

def baseline_init(n_features: int, n_classes: int, hidden: int, rng) -> dict[str, np.ndarray]:
    return {"w0": glorot(rng, n_features, hidden), "w1": glorot(rng, hidden, n_classes)}


def gcn_baseline_forward(tape: Tape, p: sp.csr_array, px: sp.csr_array,
                         params: dict[str, np.ndarray]):
    """Two-layer GCN, no residual: the logits P relu(P X W0) W1, and the leaves.

    Used for both baselines; pass the topology adjacency or the kNN feature
    graph adjacency as `p`, and the constant product `px` = P X of it with the
    sparse feature matrix. P X is one sparse operand of the first product, so
    X gets no gradient.
    """
    leaves = {name: tape.tensor(arr) for name, arr in params.items()}
    h1 = ad.relu(ad.spmm(px, leaves["w0"]))
    return ad.matmul(ad.spmm(p, h1), leaves["w1"]), leaves
