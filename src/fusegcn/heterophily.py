"""Heterophilous-edge injection, the sweep protocol, and synthetic graphs.

Injection adds exactly K new distinct cross-label edges: a uniform source
node, a target label drawn proportionally to class size from the remaining
classes, a uniform node within that label; duplicate draws are re-sampled.
The sweep retrains the model from scratch on progressively more
heterophilous copies of one base graph, keeping features (and hence the
kNN feature graph) untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, homophily_ratio
from .training import TrainConfig, train

MAX_SWEEP_LEVEL = 0.95
SWEEP_LEVELS = 10


class InjectionBudgetError(ValueError):
    """Edge injection used up its draws before finding enough new pairs.

    A ValueError, so the CLI reports it as a data error (exit 2): it happens
    when the graph's absent cross-label pairs are too few to be found by
    uniform sampling.
    """


@dataclass(frozen=True)
class SweepPlan:
    levels: tuple[float, ...]     # target heterophily per step, ascending
    seeds: tuple[int, ...]        # injection seed per step
    base: Graph

    def __post_init__(self):
        lv = np.asarray(self.levels)
        if len(self.levels) != len(self.seeds):
            raise ValueError("one seed per level required")
        if np.any(np.diff(lv) <= 0):
            raise ValueError("levels must be strictly increasing")
        if lv[-1] > MAX_SWEEP_LEVEL + 1e-12:
            raise ValueError(f"levels must not exceed {MAX_SWEEP_LEVEL}")


def make_sweep_plan(g: Graph, seed: int = 0, n_levels: int = SWEEP_LEVELS,
                    max_level: float = MAX_SWEEP_LEVEL) -> SweepPlan:
    """Linearly spaced heterophily targets from the graph's own level to max_level."""
    h_init = 1.0 - homophily_ratio(g)
    if h_init >= max_level:
        raise ValueError(f"graph heterophily {h_init:.3f} already at or above {max_level}")
    levels = np.linspace(h_init, max_level, n_levels)
    seeds = np.random.SeedSequence(seed).generate_state(n_levels)
    return SweepPlan(tuple(levels.tolist()), tuple(int(s) for s in seeds), g)


def required_edges(g: Graph, target_het: float) -> int:
    """Minimal number of cross-label edges to add to reach `target_het`.

    Solves (E_het + K) / (|E| + K) >= target for integer K.
    """
    if not target_het < 1.0:
        raise ValueError("target heterophily must be below 1")
    if g.labels is None:
        raise ValueError("heterophily targets require labels")
    m = g.n_edges
    if m == 0:
        raise ValueError("undefined heterophily: empty edge set")
    e_het = m - int(np.count_nonzero(g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]))
    current = e_het / m
    if target_het < current - 1e-12:
        raise ValueError(
            f"target heterophily {target_het:.4f} below current {current:.4f}")
    k = math.ceil((target_het * m - e_het) / (1.0 - target_het) - 1e-9)
    return max(0, k)


def inject_heterophilous_edges(g: Graph, k: int, seed: int) -> Graph:
    """Add exactly `k` new distinct cross-label edges; input is unmodified."""
    if g.labels is None:
        raise ValueError("injection requires labels")
    labels = g.labels
    n_classes = g.n_classes
    if n_classes < 2 and k > 0:
        raise ValueError("need at least two classes to add cross-label edges")
    if k == 0:
        return g
    class_members = [np.flatnonzero(labels == c) for c in range(n_classes)]
    class_sizes = np.array([m.size for m in class_members], dtype=np.float64)
    cross_total = (g.n_nodes ** 2 - int(np.sum(class_sizes ** 2))) // 2
    existing = set(map(tuple, g.edges.tolist()))
    existing_cross = sum(1 for i, j in g.edges if labels[i] != labels[j])
    if k > cross_total - existing_cross:
        raise ValueError(
            f"cannot add {k} cross-label edges: only {cross_total - existing_cross} absent pairs")

    # per-source-class cumulative target-label distribution, class-size proportional
    cum = np.zeros((n_classes, n_classes))
    for c in range(n_classes):
        p = class_sizes.copy()
        p[c] = 0.0
        cum[c] = np.cumsum(p / p.sum())

    rng = np.random.default_rng(seed)
    new_edges = set()
    max_draws = 200 * k + 10_000
    budget = max_draws
    while len(new_edges) < k:
        if budget == 0:
            raise InjectionBudgetError(
                f"edge injection exceeded its sampling budget of {max_draws} draws "
                f"after adding {len(new_edges)} of {k} cross-label edges")
        budget -= 1
        i = int(rng.integers(g.n_nodes))
        y_j = int(np.searchsorted(cum[labels[i]], rng.random(), side="right"))
        members = class_members[y_j]
        j = int(members[rng.integers(members.size)])
        pair = (i, j) if i < j else (j, i)
        if pair in existing or pair in new_edges:
            continue
        new_edges.add(pair)

    merged = np.concatenate([g.edges, np.array(sorted(new_edges), dtype=np.int64)])
    order = np.lexsort((merged[:, 1], merged[:, 0]))
    return Graph(g.n_nodes, merged[order], g.features, g.labels)


def heterophily_sweep(g: Graph, g_features: Graph, plan: SweepPlan, cfg: TrainConfig):
    """Retrain from scratch at each heterophily level; returns (level, acc, f1) rows.

    The first level is the base graph itself (no edges added); the kNN
    feature graph is shared across levels since features never change.
    """
    rows = []
    for level, inj_seed in zip(plan.levels, plan.seeds):
        k = required_edges(g, level)
        g_level = inject_heterophilous_edges(g, k, inj_seed)
        _, trace = train(g_level, g_features, cfg)
        rows.append((level, trace.final_accuracy, trace.final_macro_f1))
    return rows


@dataclass(frozen=True)
class SynthSpec:
    """Stochastic-block-model topology with Gaussian class-mean features."""

    n_nodes: int
    n_classes: int
    class_sizes: tuple[int, ...] | None = None
    p_intra: float = 0.05
    p_inter: float = 0.005
    n_features: int = 16
    mean_separation: float = 1.0
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_intra <= 1.0 and 0.0 <= self.p_inter <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.n_classes < 1:
            raise ValueError("need at least one class")
        if self.class_sizes is not None:
            if len(self.class_sizes) != self.n_classes:
                raise ValueError("one size per class required")
            if sum(self.class_sizes) != self.n_nodes:
                raise ValueError("class sizes must sum to n_nodes")

    def sizes(self) -> np.ndarray:
        if self.class_sizes is not None:
            return np.asarray(self.class_sizes, dtype=np.int64)
        base = self.n_nodes // self.n_classes
        sizes = np.full(self.n_classes, base, dtype=np.int64)
        sizes[: self.n_nodes - base * self.n_classes] += 1
        return sizes


def generate_synthetic(spec: SynthSpec) -> Graph:
    """Sample a labeled SBM graph with class-separated Gaussian features."""
    rng = np.random.default_rng(spec.seed)
    labels = np.repeat(np.arange(spec.n_classes), spec.sizes())
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, spec.p_intra, spec.p_inter)
    draw = rng.random((spec.n_nodes, spec.n_nodes))
    upper = np.triu(np.ones_like(draw, dtype=bool), k=1)
    rows, cols = np.nonzero(upper & (draw < probs))
    edges = np.stack([rows, cols], axis=1).astype(np.int64)

    d, c = spec.n_features, spec.n_classes
    if d >= c:
        means = np.zeros((c, d))
        means[np.arange(c), np.arange(c)] = spec.mean_separation
    else:
        dirs = rng.standard_normal((c, d))
        means = spec.mean_separation * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    x = means[labels] + spec.noise_scale * rng.standard_normal((spec.n_nodes, d))
    return Graph(spec.n_nodes, edges, x, labels)
