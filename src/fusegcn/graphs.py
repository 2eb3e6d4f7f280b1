"""Graph container, normalized adjacency, homophily measurement, kNN feature graph.

Edges are undirected, stored canonically as (i, j) with i < j, sorted
lexicographically and free of duplicates and self-loops. All operations here
are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    """Canonicalize an edge list: i < j ordering, deduplicated, sorted."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.shape[0] == 0:
        return e
    if np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loop in edge list")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


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
    """
    deg = degree_stats(g) + 1.0
    n = g.n_nodes
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], loops])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], loops])
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    p = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    p.sort_indices()
    return p


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

    The N x N similarity matrix is the only N x N array: the top k of each
    row is selected by partition in row blocks of about 2**20 entries, so the
    selection adds O(block x N) memory on top of it.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature value at node {bad[0]}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    # a row whose squares overflow or underflow is normalized after dividing it
    # by its largest absolute value; other rows keep x / norms bit for bit
    odd = np.flatnonzero(np.isinf(norms) | (norms == 0.0))
    peaks = np.abs(x[odd]).max(axis=1, keepdims=True, initial=0.0)
    zero = odd[peaks[:, 0] == 0.0]
    if zero.size:
        raise ValueError(f"cosine similarity undefined: zero-norm feature row at node {zero[0]}")
    norms[odd] = 1.0
    xn = x / norms[:, None]
    scaled = x[odd] / peaks
    xn[odd] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
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
        above = s > kth
        tied = s == kth
        room = k - np.count_nonzero(above, axis=1)
        keep = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room[:, None]))
        nbrs[r0:r0 + block] = np.nonzero(keep)[1].reshape(-1, k)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    edges = canonical_edges(np.stack([src, nbrs.ravel()], axis=1), n)
    return Graph(n, edges, x, None)
