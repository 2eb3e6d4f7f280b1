"""Graph container, normalized adjacency, homophily measurement, kNN feature graph.

Edges are undirected, stored canonically as (i, j) with i < j, sorted
lexicographically and free of duplicates and self-loops. All operations here
are pure functions of their inputs; the kNN graph's unit rows come from
`autodiff.unit_rows`, the row normalization of `l2_normalize_rows`.

Set-up works on int64 keys: the pair (i, j) of an n-node graph is the key
i*n + j, so sorting keys sorts pairs by (i, j) and one 1-D sort replaces a
row-wise one. `canonical_edges` deduplicates the keys of the (min, max)
pairs; `normalized_adjacency` sorts the keys of both edge directions and the
diagonal, which puts the CSR entries in row order with sorted columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .autodiff import unit_rows

_BLOCK_ENTRIES = 1 << 20  # similarity entries per row block of the kNN top-k


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional class labels."""

    n_nodes: int
    edges: np.ndarray                 # (m, 2) int64, canonical i < j, sorted, unique
    features: np.ndarray              # (n_nodes, d) float64
    labels: np.ndarray | None = None  # (n_nodes,) int64 class ids, or None

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        e = self.edges
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if e.shape[0]:
            if e.min() < 0 or e.max() >= self.n_nodes:
                raise ValueError("edge endpoint out of range [0, n_nodes)")
            if np.any(e[:, 0] >= e[:, 1]):
                raise ValueError("edges must be canonical (i < j): no self-loops")
            keys = e[:, 0].astype(np.int64) * self.n_nodes + e[:, 1]
            if np.any(np.diff(keys) <= 0):
                raise ValueError("edges must be sorted and free of duplicates")
        if self.features.shape[0] != self.n_nodes or self.features.ndim != 2:
            raise ValueError("features must be an (n_nodes, d) matrix")
        if self.labels is not None:
            if self.labels.shape != (self.n_nodes,):
                raise ValueError("labels must be one class id per node")
            if self.labels.min() < 0:
                raise ValueError("labels must be nonnegative class ids")

    @classmethod
    def from_edges(cls, n_nodes, edges, features, labels=None) -> "Graph":
        """Build a Graph from any iterable of (i, j) pairs, canonicalizing."""
        features = np.asarray(features, dtype=np.float64)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
        return cls(n_nodes, canonical_edges(edges, n_nodes), features, labels)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return int(self.labels.max()) + 1


def canonical_edges(edges, n_nodes) -> np.ndarray:
    """Canonicalize an edge list: i < j ordering, deduplicated, sorted.

    Each pair becomes the key min*n + max; the sorted keys with repeats
    dropped, decoded with // and %, are the canonical edges in order (a sort
    and one neighbour comparison; numpy 2.4's hash-based `np.unique` is 10-30x
    slower on these arrays). Endpoints are range-checked first: out of range,
    a pair would decode to another, valid pair.
    """
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.shape[0] == 0:
        return e
    n = int(n_nodes)
    if n * n > np.iinfo(np.int64).max:
        raise ValueError(f"n_nodes={n} too large: edge keys n_nodes**2 overflow int64")
    if e.min() < 0 or e.max() >= n:
        raise ValueError("edge endpoint out of range [0, n_nodes)")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    if np.any(lo == hi):
        raise ValueError("self-loop in edge list")
    keys = np.sort(lo * n + hi)
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return np.stack([keys // n, keys % n], axis=1)


def degree_stats(g: Graph) -> np.ndarray:
    """Per-node degree, self-loops excluded (there are none by construction)."""
    deg = np.zeros(g.n_nodes, dtype=np.int64)
    if g.n_edges:
        deg += np.bincount(g.edges[:, 0], minlength=g.n_nodes)
        deg += np.bincount(g.edges[:, 1], minlength=g.n_nodes)
    return deg


def normalized_adjacency(g: Graph) -> sp.csr_array:
    """Symmetric degree-normalized adjacency with self-loops added.

    Entry (i, j) is 1/sqrt(deg_i * deg_j) where deg counts the added
    self-loop, for every edge of the self-loop-augmented graph. Isolated
    nodes end up with a single diagonal entry of 1. Column indices are
    sorted within each row, so every product sums a row in column order.

    The CSR arrays are built directly: the sorted keys r*n + c of both edge
    directions and of the diagonal (i*(n + 1)) list the entries row by row
    in column order, row r holding deg_r of them; indices are `key % n`,
    computed as key - r*n.
    """
    n = g.n_nodes
    e = g.edges.astype(np.int64, copy=False)
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0],
                                   np.arange(n, dtype=np.int64) * (n + 1)]))
    counts = degree_stats(g) + 1
    cols = keys - np.repeat(np.arange(n, dtype=np.int64) * n, counts)
    deg = counts.astype(np.float64)
    vals = 1.0 / np.sqrt(np.repeat(deg, counts) * deg[cols])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_array((vals, cols, indptr), shape=(n, n))


def sparse_features(x: np.ndarray) -> sp.csr_array:
    """`sp.csr_array(x)` of a dense matrix: the same indptr, indices, data and shape.

    One scan of `x != 0` gives the row-major flat positions of the nonzeros
    (-0.0 counts as zero); each row's span is found by binary search in them.
    This is several times faster than scipy's float `nonzero` scan.
    """
    x = np.asarray(x)
    n, d = x.shape
    flat = np.flatnonzero(x != 0)
    idx = sp.get_index_dtype(maxval=max(flat.size, n, d))
    indptr = np.searchsorted(flat, np.arange(n + 1) * d).astype(idx)
    return sp.csr_array((np.take(x, flat), (flat % d).astype(idx), indptr), shape=(n, d))


def homophily_ratio(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label, each edge counted once."""
    if g.labels is None:
        raise ValueError("homophily needs labels")
    if g.n_edges == 0:
        raise ValueError("undefined homophily: empty edge set")
    same = np.count_nonzero(g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]])
    return same / g.n_edges


def knn_feature_graph(x: np.ndarray, k: int) -> Graph:
    """Undirected k-nearest-neighbor graph under cosine similarity.

    Each node selects its k most cosine-similar distinct neighbors; the
    directed selections are then symmetrized by union. Ties are broken by the
    lower node index among equal *computed* similarities: mathematically
    equal cosines can round apart in the matrix product, and then the
    larger computed value wins. The returned graph carries the input features
    and no labels.

    The unit rows come from `autodiff.unit_rows`, so a row whose squares
    underflow or overflow keeps full precision. A row with a non-finite
    entry, then a zero row, is a ValueError naming the node.

    The unit-norm rows and the N x N similarity matrix are the only full-size
    arrays, and they overlap only during the product. The top k of each row
    is selected in row blocks of about 2**20 entries: the entries at or above
    the row's k-th largest value are kept in one comparison pass, and only a
    row with more than k of them (a tie at the k-th value) keeps the
    lowest-index tied entries that fill its k. The block's neighbour indices
    are its kept entries' flat positions modulo n, in row order.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    xn, norms = unit_rows(x)
    bad = np.flatnonzero(~np.isfinite(norms[:, 0]))
    bad = bad[~np.isfinite(x[bad]).all(axis=1)]
    if bad.size:
        raise ValueError(f"non-finite feature value at node {bad[0]}")
    zero = np.flatnonzero(norms[:, 0] == 0.0)
    if zero.size:
        raise ValueError(f"cosine similarity undefined: zero-norm feature row at node {zero[0]}")
    sim = xn @ xn.T
    del xn
    np.fill_diagonal(sim, -np.inf)
    # Per row: every entry above the k-th largest value, then the
    # lowest-index entries equal to it until k are taken. As a set this is
    # the first k of a stable sort by -similarity (0.0 and -0.0 tie).
    block = max(1, _BLOCK_ENTRIES // n)
    nbrs = np.empty((n, k), dtype=np.int64)
    for r0 in range(0, n, block):
        s = sim[r0:r0 + block]
        kth = np.partition(s, n - k, axis=1)[:, [n - k]]
        keep = s >= kth
        tied_rows = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        st, kt = s[tied_rows], kth[tied_rows]
        above = st > kt
        tied = st == kt
        room = k - np.count_nonzero(above, axis=1)
        keep[tied_rows] = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32)
                                           <= room[:, None]))
        nbrs[r0:r0 + block] = (np.flatnonzero(keep) % n).reshape(-1, k)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    edges = canonical_edges(np.stack([src, nbrs.ravel()], axis=1), n)
    return Graph(n, edges, x, None)
