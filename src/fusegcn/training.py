"""Objectives, the training loop, optimizer, stratified splits and metrics.

Each model has one objective, built once from its graphs (`full_objective`,
`baseline_objective`): it maps the parameter arrays to the loss on a fresh
tape plus what the loop records. `fit` is the one training loop (Adam, the
non-finite loss check, records, early stopping) for either objective. Training,
`model_gradient_check` and `fusegcn eval` all assemble the loss through these.
Both models' parameters are plain dicts of named arrays, so `train` and
`train_baseline` both return (dict, RunTrace).

Training is full-batch and deterministic per (dataset, config, seed): the
split, parameter init, and every update follow fixed-order numpy arithmetic.
Early stopping keeps the best validation epoch's parameters and test scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import model as M
from .autodiff import Tape, TensorNode, backward, finite_diff_check
from .graphs import Graph, knn_feature_graph, normalized_adjacency, sparse_features

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    knn_k: int = 7
    hidden_dim: int = 64
    loss_weights: L.LossWeights = field(default_factory=L.LossWeights)
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 500
    patience: int = 100
    seed: int = 0
    train_per_class: int = 40
    val_per_class: int = 40

    def __post_init__(self):
        for name in ("epochs", "patience", "hidden_dim", "knn_k",
                     "train_per_class", "val_per_class"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("lr", "weight_decay"):
            if not 0.0 <= (value := getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class Split(NamedTuple):
    """Sorted node ids per set; `make_split` draws them pairwise disjoint."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_split(g: Graph, cfg: TrainConfig) -> Split:
    """Stratified split drawn with `cfg.seed`: per class, train then validation nodes; rest test.

    Raises ValueError when a class is too small for its train and validation
    nodes, or when no node is left for the test set.
    """
    if g.labels is None:
        raise ValueError("cannot split an unlabeled graph")
    rng = np.random.default_rng(cfg.seed)
    train, val = [], []
    need = cfg.train_per_class + cfg.val_per_class
    for c in range(g.n_classes):
        members = np.flatnonzero(g.labels == c)
        if members.size < need:
            raise ValueError(
                f"class {c} has {members.size} nodes, needs {need} for the split")
        picked = rng.choice(members, size=need, replace=False)
        train.append(picked[:cfg.train_per_class])
        val.append(picked[cfg.train_per_class:])
    train = np.sort(np.concatenate(train))
    val = np.sort(np.concatenate(val))
    rest = np.setdiff1d(np.arange(g.n_nodes), np.concatenate([train, val]))
    if rest.size == 0:
        raise ValueError(
            f"split leaves no test nodes: {g.n_nodes} nodes, {need} per class "
            f"for train and validation over {g.n_classes} classes")
    return Split(train, val, rest)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def init_adam_state(params: dict[str, np.ndarray]):
    return {name: (np.zeros_like(v), np.zeros_like(v)) for name, v in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state,
              lr: float, weight_decay: float, t: int, bias_names=()):
    """Adaptive-moment update with bias correction and decoupled weight decay.

    Weight decay skips the names listed in `bias_names`. Updates params and
    state in place.
    """
    for name, p in params.items():
        g = grads[name]
        m, v = state[name]
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if weight_decay and name not in bias_names:
            p -= lr * weight_decay * p


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def evaluate(logits: np.ndarray, labels: np.ndarray, node_set: np.ndarray):
    """(accuracy, macro-F1) over `node_set`, predicting each row's argmax.

    Macro-F1 averages F1 = 2 tp / (true members + predicted members) over
    the classes with a true or a predicted member in the node set.
    """
    pred = np.argmax(logits[node_set], axis=1)
    true = labels[node_set]
    accuracy = float(np.mean(pred == true))
    k = max(logits.shape[1], int(true.max(initial=0)) + 1)
    pairs = np.bincount(true * k + pred, minlength=k * k).reshape(k, k)
    members = pairs.sum(axis=1) + pairs.sum(axis=0)
    present = members > 0
    return accuracy, float(np.mean(2 * np.diag(pairs)[present] / members[present]))


def attention_norm_trace(att_t: np.ndarray, att_f: np.ndarray, att_c: np.ndarray):
    """Mean of row-wise L2 norms for each attention matrix."""
    return tuple(float(np.mean(np.linalg.norm(a, axis=1))) for a in (att_t, att_f, att_c))


# ---------------------------------------------------------------------------
# objectives and the training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    loss_total: float
    loss_cl: float
    loss_c: float
    loss_d: float
    train_acc: float
    val_acc: float
    test_acc: float
    attn_t: float
    attn_f: float
    attn_c: float


@dataclass
class RunTrace:
    records: list[EpochRecord]
    best_epoch: int
    final_accuracy: float
    final_macro_f1: float


def check_finite_losses(epoch: int, terms: dict[str, float]) -> None:
    """Raise ValueError naming the epoch and every non-finite loss term.

    Called before backward: once a loss is NaN or infinite, every later
    update and the reported accuracy are meaningless.
    """
    bad = [f"{name}={value}" for name, value in terms.items() if not np.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite loss at epoch {epoch}: {', '.join(bad)}")


class ObjectiveValue(NamedTuple):
    """One evaluation of a model's objective on a fresh tape."""

    loss: TensorNode
    terms: dict[str, float]       # total, classification, closeness, disparity
    logits: TensorNode
    attention: tuple[float, float, float]
    leaves: dict[str, TensorNode]


def full_objective(g: Graph, g_f: Graph, cfg: TrainConfig, train_nodes: np.ndarray):
    """The three-channel model's weighted total loss, as `objective(arrays)`.

    `g` is the labeled topology graph, `g_f` the kNN feature graph over the
    same nodes; the cross-entropy is taken over `train_nodes`.
    """
    p_t = normalized_adjacency(g)
    p_f = normalized_adjacency(g_f)
    x = sparse_features(g.features)

    def objective(arrays: dict[str, np.ndarray]) -> ObjectiveValue:
        fs = M.forward_full(Tape(), arrays, p_t, p_f, x)
        l_cl = L.classification_loss(fs.logits, g.labels, train_nodes)
        l_c = L.closeness_loss(fs.z_ct, fs.z_cf)
        l_d = L.disparity_loss(fs.z_t, fs.z_ct, fs.z_f, fs.z_cf)
        l_total = L.total_loss(l_cl, l_c, l_d, cfg.loss_weights)
        terms = {"total": l_total.item(), "classification": l_cl.item(),
                 "closeness": l_c.item(), "disparity": l_d.item()}
        attn = attention_norm_trace(fs.att_t.value, fs.att_f.value, fs.att_c.value)
        return ObjectiveValue(l_total, terms, fs.logits, attn, fs.leaves)

    return objective


def baseline_objective(g: Graph, prop_graph: Graph, cfg: TrainConfig,
                       train_nodes: np.ndarray):
    """A plain two-layer GCN's weighted cross-entropy, as `objective(arrays)`.

    Propagation runs over `prop_graph`; labels and features come from `g`.
    """
    p = normalized_adjacency(prop_graph)
    px = p @ sparse_features(g.features)

    def objective(arrays: dict[str, np.ndarray]) -> ObjectiveValue:
        logits, leaves = M.gcn_baseline_forward(Tape(), p, px, arrays)
        l_cl = L.classification_loss(logits, g.labels, train_nodes)
        loss = ad.scale(l_cl, cfg.loss_weights.classification)
        terms = {"total": loss.item(), "classification": l_cl.item(),
                 "closeness": 0.0, "disparity": 0.0}
        return ObjectiveValue(loss, terms, logits, (0.0, 0.0, 0.0), leaves)

    return objective


def fit(objective, params: dict[str, np.ndarray], labels: np.ndarray, split: Split,
        cfg: TrainConfig):
    """Full-batch Adam on `objective`, early-stopped on validation accuracy.

    Updates `params` in place after every epoch but the last, whether the
    loop ends at `cfg.epochs` or by patience: that epoch's update could not be
    kept, so it is forward-only and runs no backward. Weight decay
    skips the biases (`model.is_bias`). Returns (the arrays of the best
    validation epoch, RunTrace); the trace's final scores are that epoch's
    test accuracy and macro-F1, as scored in the loop.
    """
    bias_names = {name for name in params if M.is_bias(name)}
    state = init_adam_state(params)
    records = []
    best_val = -1.0
    best_epoch = 0
    for epoch in range(1, cfg.epochs + 1):
        out = objective(params)
        check_finite_losses(epoch, out.terms)

        train_acc, _ = evaluate(out.logits.value, labels, split.train)
        val_acc, _ = evaluate(out.logits.value, labels, split.val)
        test_acc, test_f1 = evaluate(out.logits.value, labels, split.test)
        records.append(EpochRecord(epoch, *out.terms.values(),
                                   train_acc, val_acc, test_acc, *out.attention))
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_f1 = test_f1
            best_params = {k: v.copy() for k, v in params.items()}
        if epoch == cfg.epochs or epoch - best_epoch >= cfg.patience:
            break

        backward(out.loss.tape, out.loss)
        grads = {name: out.leaves[name].grad for name in params}
        adam_step(params, grads, state, cfg.lr, cfg.weight_decay, epoch, bias_names)

    return best_params, RunTrace(records, best_epoch, records[best_epoch - 1].test_acc, best_f1)


def _split_and_init_rng(g: Graph, cfg: TrainConfig):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    return make_split(g, cfg), rng


def train(g: Graph, g_f: Graph, cfg: TrainConfig):
    """Full-batch training of the three-channel model.

    `g` is the labeled topology graph, `g_f` the kNN feature graph over the
    same nodes. Returns (the best epoch's parameter arrays, RunTrace).
    """
    if g_f.n_nodes != g.n_nodes:
        raise ValueError("feature graph must cover the same nodes")
    split, rng = _split_and_init_rng(g, cfg)
    objective = full_objective(g, g_f, cfg, split.train)
    params = M.init_params(g.features.shape[1], g.n_classes, cfg.hidden_dim, rng)
    return fit(objective, params, g.labels, split, cfg)


def train_baseline(g: Graph, cfg: TrainConfig, graph_for_propagation: Graph | None = None):
    """Train a plain two-layer GCN baseline.

    Propagation runs over `graph_for_propagation` (defaults to `g` itself;
    pass the kNN feature graph for the feature-space baseline). Labels,
    features, and the split always come from `g`.
    """
    split, rng = _split_and_init_rng(g, cfg)
    prop_graph = g if graph_for_propagation is None else graph_for_propagation
    objective = baseline_objective(g, prop_graph, cfg, split.train)
    params = M.baseline_init(g.features.shape[1], g.n_classes, cfg.hidden_dim, rng)
    return fit(objective, params, g.labels, split, cfg)


# ---------------------------------------------------------------------------
# whole-model gradient verification
# ---------------------------------------------------------------------------

CHECK_EDGE_PROB = 0.35  # edge probability of the gradient-check graph


def random_check_instance(n: int = 12, d: int = 5, c: int = 3, seed: int = 0):
    """Small labeled random graph for gradient checking (balanced labels)."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < CHECK_EDGE_PROB]
    if not edges and n > 1:
        edges = [(0, 1)]
    labels = np.arange(n) % c
    g = Graph.from_edges(n, edges, rng.standard_normal((n, d)), labels)
    return g


def model_gradient_check(n: int = 12, d: int = 5, c: int = 3, hidden: int = 8,
                         seed: int = 1, eps: float = 1e-5, tolerance: float = 1e-4):
    """Finite-difference check of the total-loss gradient w.r.t. every parameter.

    All three loss weights are 1, so every term is checked at full weight;
    sizes and split come from the small check instance, whose biases are
    drawn small and nonzero. One backward pass gives the gradients; every
    perturbed evaluation is forward-only, and its tape is freed with its
    nodes when the evaluation returns. Raises ValueError unless n, d and
    c are at least 1.
    """
    for name, size in (("n", n), ("d", d), ("c", c)):
        if size < 1:
            raise ValueError(f"model_gradient_check: {name} must be >= 1, got {size}")
    cfg = TrainConfig(knn_k=max(1, min(3, n - 1)), hidden_dim=hidden,
                      loss_weights=L.LossWeights(1.0, 1.0, 1.0),
                      train_per_class=2, val_per_class=1, seed=seed)
    g = random_check_instance(n, d, c, seed)
    train_nodes = make_split(g, cfg).train    # fails first on a too small instance
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    objective = full_objective(g, g_f, cfg, train_nodes)
    rng = np.random.default_rng(seed + 1)
    params = M.init_params(d, c, hidden, rng)
    # zero biases can leave a node's whole input-MLP row at 0 and every ReLU it
    # feeds exactly on its kink, where no finite difference matches relu'(0) = 0
    for nm in params:
        if M.is_bias(nm):
            params[nm] = rng.uniform(-0.1, 0.1, size=params[nm].shape)
    names = list(params)

    out = objective(params)
    backward(out.loss.tape, out.loss)
    grads = [out.leaves[nm].grad for nm in names]

    def loss_fn(arrays):
        return objective(dict(zip(names, arrays))).loss.item()

    return finite_diff_check(loss_fn, [params[nm] for nm in names], grads, eps, tolerance,
                             param_names=names)
