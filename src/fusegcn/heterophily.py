"""Heterophilous-edge injection, the sweep protocol, and synthetic graphs.

Injection adds exactly K new distinct cross-label edges: a uniform source
node, a target label drawn proportionally to class size from the remaining
classes, a uniform node within that label; duplicate draws are re-sampled.
A seed's edge set is defined by that per-draw process on numpy's PCG64
stream: `integers(n)`, `random()`, `integers(size)` per draw. The code draws
in numpy batches that replay the same raw words (two per draw). A batch ends
at the first draw it cannot replay, a rare one; that draw is made with the
loop's three scalar calls and joins the batch as its last, so each seed gives
the edge set the per-draw loop gives. A batch is sized from the share of
cross-label pairs still absent: 1.25 times the draws expected to find the
missing edges, plus 64. It finds its new pairs with one sort of its drawn
keys together with the taken keys in their range.
The sweep retrains the model from scratch on progressively more
heterophilous copies of one base graph, keeping features (and hence the
kNN feature graph) untouched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

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


class SweepPlan(NamedTuple):
    """`make_sweep_plan` gives one seed per level and rising levels up to MAX_SWEEP_LEVEL;
    `required_edges` checks each level of a plan built by hand."""

    levels: tuple[float, ...]     # target heterophily per step
    seeds: tuple[int, ...]        # injection seed per step


def make_sweep_plan(g: Graph, seed: int = 0, n_levels: int = SWEEP_LEVELS,
                    max_level: float = MAX_SWEEP_LEVEL) -> SweepPlan:
    """Linearly spaced heterophily targets from the graph's own level to max_level."""
    if n_levels < 1:
        raise ValueError(f"a sweep needs at least one level, got n_levels={n_levels}")
    if not (np.isfinite(max_level) and max_level <= MAX_SWEEP_LEVEL):
        raise ValueError(f"levels must be finite and at most {MAX_SWEEP_LEVEL}, "
                         f"got max_level={max_level}")
    h_init = 1.0 - homophily_ratio(g)
    if h_init >= max_level:
        raise ValueError(f"graph heterophily {h_init:.3f} already at or above {max_level}")
    levels = np.linspace(h_init, max_level, n_levels)
    seeds = np.random.SeedSequence(seed).generate_state(n_levels)
    return SweepPlan(tuple(levels.tolist()), tuple(int(s) for s in seeds))


def required_edges(g: Graph, target_het: float) -> int:
    """Minimal number of cross-label edges to add to reach `target_het`.

    Solves (E_het + K) / (|E| + K) >= target for integer K.
    """
    if not (np.isfinite(target_het) and target_het < 1.0):
        raise ValueError(f"target heterophily must be finite and below 1, got {target_het}")
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


def target_label_cdf(class_sizes: np.ndarray) -> np.ndarray:
    """Row c: cumulative target-label distribution for a source in class c.

    Class-size proportional over the other classes. Each row is exactly 1.0
    from its last positive class onward, so no double in [0, 1) can pick a
    label past it (a plain cumsum may end at 1 - 2^-53).
    """
    n_classes = class_sizes.size
    cum = np.zeros((n_classes, n_classes))
    for c in range(n_classes):
        p = class_sizes.astype(np.float64)
        p[c] = 0.0
        cum[c] = np.cumsum(p / p.sum())
        cum[c, np.flatnonzero(p)[-1]:] = 1.0
    return cum


_LOW32 = np.uint64(0xFFFFFFFF)
# 32-bit halves of a native uint64 viewed as two uint32s: (low, high) positions
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _lemire_threshold(n) -> np.ndarray:
    """(2**32 - n) % n: a bounded draw rejects a word whose product's low half is below it."""
    n = np.asarray(n, dtype=np.uint64)
    return (np.uint64(2**32) - n) % n


def bounded_integers(words: np.ndarray, n, threshold) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's method on 32-bit `words`, as numpy's scalar `integers(n)` uses it.

    `threshold` is `_lemire_threshold(n)`. Returns the values in [0, n) and a
    mask of the words the scalar call would reject (it then draws again, so
    the stream moves on differently).
    """
    m = np.multiply(words, np.asarray(n, dtype=np.uint64), dtype=np.uint64)
    rejected = (m & _LOW32) < threshold
    m >>= np.uint64(32)
    return m.view(np.int64), rejected


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw 64-bit words, as numpy's scalar `random()`."""
    return (words >> np.uint64(11)) * 2.0**-53


def _target_labels(cdf: np.ndarray, source_label: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, `np.searchsorted(cdf[source_label], u, side="right")`: the
    count of the row's columns at or below u, one gathered column at a time.
    The cdf's last column is left out; it is 1.0, above every u."""
    y = np.zeros(u.size, dtype=np.intp)
    for column in cdf[:, :-1].T:
        y += column[source_label] <= u
    return y


def _replay(raw, spare, n, labels, cdf, sizes, thresholds):
    """Draws that the raw words `raw` (two per draw) hold for the scalar loop.

    The loop's calls are integers(n), random(), integers(size). PCG64 serves
    32-bit requests from the low half of a word and keeps the high half as its
    spare, so with no spare (`spare` None) draw t reads i from lo(r[2t]), u
    from r[2t+1] and the member index from hi(r[2t]). With a spare, draw 0
    reads i from it and draw t reads u from r[2t], the member index from
    lo(r[2t+1]) and hands hi(r[2t+1]) on as the next draw's i. `sizes` and
    `thresholds` hold each class's size and its `_lemire_threshold`.

    Returns (i, target label, member index, nb): the draws before `nb` are
    exact; draw `nb`, if less than the batch, breaks the replay because a
    bounded draw would be rejected or its target class has one member
    (`integers(1)` consumes nothing, which flips the spare).
    """
    halves = raw.view(np.uint32).reshape(-1, 4)     # r[2t] low, high; r[2t+1] low, high
    if spare is None:
        i_words, u_words, j_words = halves[:, _LO], raw[1::2], halves[:, _HI]
    else:
        i_words = np.empty(halves.shape[0], dtype=np.uint32)
        i_words[0], i_words[1:] = spare, halves[:-1, 2 + _HI]
        u_words, j_words = raw[0::2], halves[:, 2 + _LO]
    i, i_bad = bounded_integers(i_words, n, _lemire_threshold(n))
    y = _target_labels(cdf, labels[i], unit_doubles(u_words))
    size = sizes[y]
    j, j_bad = bounded_integers(j_words, size, thresholds[y])
    breaks = np.flatnonzero(i_bad | j_bad | (size == 1))
    nb = int(breaks[0]) if breaks.size else i.size
    return i, y, j, nb


def _resume(bg, saved, n_words: int, spare) -> None:
    """Put `bg` `n_words` raw words past the state `saved`, holding `spare`."""
    bg.state = saved
    bg.advance(n_words)
    if spare is not None:
        state = bg.state
        state["has_uint32"], state["uinteger"] = 1, int(spare)
        bg.state = state


def _accept(taken: np.ndarray, keys: np.ndarray, limit: int) -> tuple[np.ndarray, int]:
    """Insert the first `limit` distinct `keys` (in draw order) absent from `taken`.

    `taken` is sorted and ends in a sentinel above every key; returns it with
    the accepted keys inserted, and their count. One sort takes the drawn
    keys, packed as `key << s | draw index + 1` (s the bit length of the
    batch size), and the taken keys within their range, packed as
    `key << s`. Each key's entries then form a run, taken first and then in
    draw order, so a run's first entry tells whether the key is new and, if
    so, its first draw. The caller keeps the packed values within int64.
    """
    if keys.size == 0:
        return taken, 0
    s = keys.size.bit_length()
    lo, hi = np.searchsorted(taken, keys.min()), np.searchsorted(taken, keys.max(), side="right")
    packed = np.empty(hi - lo + keys.size, dtype=np.int64)
    np.left_shift(taken[lo:hi], s, out=packed[:hi - lo])
    drawn = packed[hi - lo:]
    np.left_shift(keys, s, out=drawn)
    drawn |= np.arange(1, keys.size + 1)
    packed.sort()
    sorted_keys = packed >> s
    starts = np.empty(packed.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    runs = packed[np.flatnonzero(starts)]
    first = runs & ((1 << s) - 1)       # a new key's first draw + 1; 0 for a taken key
    n_new = int(np.count_nonzero(first))
    if n_new > limit:
        # keep the new keys drawn before the (limit + 1)-th new key's first draw
        drawn_first = np.zeros(keys.size + 1, dtype=bool)
        drawn_first[first] = True
        runs = runs[np.flatnonzero(first <= np.flatnonzero(drawn_first[1:])[limit])]
        n_new = limit
    out = np.empty(taken.size - (hi - lo) + runs.size, dtype=taken.dtype)
    out[:lo] = taken[:lo]
    np.right_shift(runs, s, out=out[lo:lo + runs.size])
    out[lo + runs.size:] = taken[hi:]
    return out, n_new


def _batch_size(missing: int, absent: int, cross_total: int) -> int:
    """Draws for the next batch: 1.25 times the draws expected to find `missing`
    edges when `absent` of the `cross_total` cross-label pairs are free, plus 64.

    Any size gives the same edges; this one makes few batches and few spare draws.
    """
    return -(-5 * missing * cross_total // (4 * absent)) + 64


def inject_heterophilous_edges(g: Graph, k: int, seed: int) -> Graph:
    """Add exactly `k` new distinct cross-label edges; input is unmodified.

    Draws in numpy batches that replay the per-draw loop's PCG64 stream, each
    ending in the scalar draw that breaks its replay, if any, so the edge set
    is the loop's (see the module docstring).
    """
    if g.labels is None:
        raise ValueError("injection requires labels")
    labels = g.labels
    n_classes = g.n_classes
    if n_classes < 2 and k > 0:
        raise ValueError("need at least two classes to add cross-label edges")
    if k == 0:
        return g
    n = g.n_nodes
    sizes = np.bincount(labels, minlength=n_classes)
    cross_total = (n ** 2 - int(np.sum(sizes ** 2))) // 2
    existing_cross = int(np.count_nonzero(labels[g.edges[:, 0]] != labels[g.edges[:, 1]]))
    if k > cross_total - existing_cross:
        raise ValueError(
            f"cannot add {k} cross-label edges: only {cross_total - existing_cross} absent pairs")

    cum = target_label_cdf(sizes)
    thresholds = _lemire_threshold(np.maximum(sizes, 1))    # an empty class is never drawn
    by_label = np.argsort(labels, kind="stable")      # class members, ascending
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    # keys i*n + j of present and accepted pairs, sorted, with a sentinel
    taken = np.append(g.edges[:, 0].astype(np.int64) * n + g.edges[:, 1], n * n)
    # the largest batch whose packed `key << s | draw index` in _accept fits
    # int64, s being the batch size's bit length; a batch's replayed draws
    # plus its break draw number at most its size
    max_batch = (1 << (63 - int(n * n).bit_length())) - 1
    rng = np.random.default_rng(seed)
    bg = rng.bit_generator
    added = 0
    max_draws = 200 * k + 10_000
    budget = max_draws
    while added < k:
        if budget == 0:
            raise InjectionBudgetError(
                f"edge injection exceeded its sampling budget of {max_draws} draws "
                f"after adding {added} of {k} cross-label edges")
        absent = cross_total - existing_cross - added
        b = min(_batch_size(k - added, absent, cross_total), budget, max_batch)
        saved = bg.state
        spare = saved["uinteger"] if saved["has_uint32"] else None
        raw = bg.random_raw(2 * b)
        i, y, j, nb = _replay(raw, spare, n, labels, cum, sizes, thresholds)
        # step the stream to draw nb; with a spare, draw nb - 1 left hi(r[2nb-1])
        if spare is not None and nb > 0:
            spare = raw[2 * nb - 1] >> np.uint64(32)
        _resume(bg, saved, 2 * nb, spare)
        if nb < b:
            # draw nb breaks the replay: make it with the loop's scalar calls
            i[nb] = rng.integers(n)
            y[nb] = _target_labels(cum, labels[i[nb:nb + 1]], np.array([rng.random()]))[0]
            j[nb] = rng.integers(sizes[y[nb]])
            nb += 1
        budget -= nb
        i, j = i[:nb], by_label[starts[y[:nb]] + j[:nb]]
        taken, n_new = _accept(taken, np.minimum(i, j) * n + np.maximum(i, j), k - added)
        added += n_new

    edges = np.empty((taken.size - 1, 2), dtype=np.int64)
    np.divmod(taken[:-1], n, out=(edges[:, 0], edges[:, 1]))
    return Graph(n, edges, g.features, g.labels)


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
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.p_intra <= 1.0 and 0.0 <= self.p_inter <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.n_classes < 1 or self.n_features < 1:
            raise ValueError("need at least one class and one feature")
        if not np.isfinite([self.mean_separation, self.noise_scale]).all():
            raise ValueError("mean separation and noise scale must be finite")
        if self.class_sizes is not None:
            if len(self.class_sizes) != self.n_classes:
                raise ValueError("one size per class required")
            if min(self.class_sizes) < 0:
                raise ValueError(f"class_sizes must be >= 0, got {self.class_sizes}")
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
    with np.errstate(over="ignore"):
        x = means[labels] + spec.noise_scale * rng.standard_normal((spec.n_nodes, d))
    if not np.isfinite(x).all():
        raise ValueError("features overflow float64: lower the mean separation or noise scale")
    return Graph(spec.n_nodes, edges, x, labels)
