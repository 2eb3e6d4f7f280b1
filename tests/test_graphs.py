import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fusegcn import graphs
from fusegcn.graphs import (
    Graph,
    canonical_edges,
    degree_stats,
    homophily_ratio,
    knn_feature_graph,
    normalized_adjacency,
    sparse_features,
)
from fusegcn.dataio import load_dataset
from perfbench import workloads


def make_graph(n, edges, labels=None, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, edges, rng.standard_normal((n, d)), labels)


def dense_normalized_adjacency(g):
    """Brute-force oracle: dense D^-1/2 (A + I) D^-1/2."""
    a = np.eye(g.n_nodes)
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return dinv[:, None] * a * dinv[None, :]


def random_labeled_graph(rng, max_n=30):
    n = int(rng.integers(2, max_n + 1))
    c = int(rng.integers(2, 5))
    labels = rng.integers(0, c, size=n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
    if not pairs:
        pairs = [(0, 1)]
    return make_graph(n, pairs, labels=labels, seed=int(rng.integers(1 << 31)))


class TestGraphInvariants:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_duplicates_are_canonicalized(self):
        g = make_graph(3, [(2, 0), (0, 2), (0, 1)])
        npt.assert_array_equal(g.edges, [[0, 1], [0, 2]])

    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 1)], labels=np.array([0, 1]))

    def test_canonical_edges_empty(self):
        assert canonical_edges([], 4).shape == (0, 2)


class TestNormalizedAdjacency:
    def test_single_node(self):
        g = make_graph(1, [])
        npt.assert_array_equal(normalized_adjacency(g).toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        g = make_graph(2, [(0, 1)])
        npt.assert_array_equal(normalized_adjacency(g).toarray(), np.full((2, 2), 0.5))

    def test_path_graph_entry(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        p = normalized_adjacency(g).toarray()
        assert p[0, 1] == pytest.approx(1.0 / np.sqrt(2 * 3), abs=1e-15)
        npt.assert_allclose(p, dense_normalized_adjacency(g), rtol=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_labeled_graph(rng)
            p = normalized_adjacency(g).toarray()
            npt.assert_array_equal(p, p.T)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_regular_graph_rows_sum_to_one(self, n):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        complete = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for edges in (cycle, complete):
            p = normalized_adjacency(make_graph(n, edges)).toarray()
            npt.assert_allclose(p.sum(axis=1), np.ones(n), rtol=1e-12)

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_labeled_graph(rng)
            p = normalized_adjacency(g)
            assert p.has_sorted_indices
            npt.assert_allclose(p.toarray(), dense_normalized_adjacency(g), rtol=1e-13)


class TestHomophily:
    def test_all_same_label(self):
        g = make_graph(4, [(0, 1), (2, 3)], labels=[0, 0, 1, 1])
        assert homophily_ratio(g) == 1.0

    def test_all_cross_label(self):
        g = make_graph(4, [(0, 2), (1, 3)], labels=[0, 0, 1, 1])
        assert homophily_ratio(g) == 0.0

    def test_two_thirds(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 0, 1, 1])
        assert homophily_ratio(g) == pytest.approx(2 / 3)

    def test_empty_edges_error(self):
        g = make_graph(2, [], labels=[0, 1])
        with pytest.raises(ValueError, match="undefined homophily"):
            homophily_ratio(g)

    def test_missing_labels_error(self):
        with pytest.raises(ValueError):
            homophily_ratio(make_graph(2, [(0, 1)]))

    def test_brute_force_oracle_100_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_labeled_graph(rng)
            same = sum(1 for i, j in g.edges if g.labels[i] == g.labels[j])
            assert homophily_ratio(g) == same / len(g.edges)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_labeled_graph(rng)
            c = g.labels.max() + 1
            perm = rng.permutation(c)
            g2 = Graph(g.n_nodes, g.edges, g.features, perm[g.labels])
            assert homophily_ratio(g) == homophily_ratio(g2)


def brute_force_knn_edges(x, k):
    """Independent O(N^2) oracle: per-row sort by (-cosine, index), symmetrize."""
    n = x.shape[0]
    edges = set()
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            s = float(x[i] @ x[j] / (np.linalg.norm(x[i]) * np.linalg.norm(x[j])))
            sims.append((-s, j))
        sims.sort()
        for _, j in sims[:k]:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


class TestKnnFeatureGraph:
    def test_tie_breaks_to_lower_index(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        g = knn_feature_graph(x, 1)
        npt.assert_array_equal(g.edges, [[0, 1], [0, 2]])
        assert g.labels is None
        npt.assert_array_equal(g.features, x)

    def test_k_equals_n_minus_1_complete(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 4))
        g = knn_feature_graph(x, 5)
        assert g.n_edges == 15

    def test_identical_rows_tie_rule(self):
        x = np.tile(np.array([[2.0, 1.0]]), (4, 1))
        g = knn_feature_graph(x, 2)
        assert sorted(map(tuple, g.edges)) == brute_force_knn_edges(x, 2)

    def test_zero_row_error_names_node(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="node 1"):
            knn_feature_graph(x, 1)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_extreme_row_scale(self, scale):
        # squaring 1e200 overflows and squaring 1e-200 underflows
        x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        x[0] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = knn_feature_graph(x, 1)
        npt.assert_array_equal(g.edges, [[0, 1], [0, 2], [0, 3]])

    def test_k_bounds(self):
        x = np.eye(3)
        with pytest.raises(ValueError):
            knn_feature_graph(x, 0)
        with pytest.raises(ValueError):
            knn_feature_graph(x, 3)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(6, n)))
            x = rng.standard_normal((n, d))
            g = knn_feature_graph(x, k)
            assert sorted(map(tuple, g.edges)) == brute_force_knn_edges(x, k)

    def test_min_incident_degree(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((30, 5))
        for k in (1, 3, 7):
            g = knn_feature_graph(x, k)
            assert degree_stats(g).min() >= k

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_error_names_node(self, bad):
        x = np.ones((4, 2))
        x[2, 1] = bad
        with pytest.raises(ValueError, match="node 2"):
            knn_feature_graph(x, 1)


def _argsort_knn(x, k):
    """The full stable argsort selection that the partition selection replaced."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cosine similarity undefined: zero-norm feature row at node {zero[0]}")
    xn = x / norms[:, None]
    sim = xn @ xn.T
    np.fill_diagonal(sim, -np.inf)
    nbrs = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    edges = canonical_edges(np.stack([src, nbrs.ravel()], axis=1), n)
    return Graph(n, edges, x, None)


def _sparse_binary(rng, n=80, d=12):
    x = (rng.random((n, d)) < 0.2).astype(np.float64)
    x[x.sum(axis=1) == 0, 0] = 1.0
    return x


def _scaled_tiles(rng, n=60, d=3):
    base = rng.integers(1, 4, size=(5, d)) * rng.choice([-1, 1], size=(5, d))
    return np.tile(base, (n // 5, 1)) * rng.integers(1, 5, size=(n, 1)).astype(np.float64)


def _small_integers(rng, n=70, d=3):
    # Many exactly orthogonal pairs: zero cosines, which the stable sort of
    # -similarity sees as -0.0 and must tie with 0.0 by index.
    x = rng.integers(-1, 2, size=(n, d)).astype(np.float64)
    x[np.abs(x).sum(axis=1) == 0, 0] = -1.0
    return x


class TestKnnMatchesArgsort:
    """Edge sets equal the full-argsort selection, ties and block edges included."""

    MAKERS = [_sparse_binary, _scaled_tiles, _small_integers]

    @pytest.mark.parametrize("make", MAKERS)
    def test_tie_heavy_inputs(self, make):
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = make(rng)
            n = x.shape[0]
            for k in (1, 3, 7, n // 2, n - 1):
                npt.assert_array_equal(knn_feature_graph(x, k).edges, _argsort_knn(x, k).edges)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("make", MAKERS)
    def test_across_block_boundaries(self, monkeypatch, make, rows):
        rng = np.random.default_rng(37)
        x = make(rng)
        n = x.shape[0]
        monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", rows * n)
        for k in (1, 5, n - 1):
            npt.assert_array_equal(knn_feature_graph(x, k).edges, _argsort_knn(x, k).edges)


def test_knn_memory_peak_below_two_similarity_matrices():
    n = 2000
    x = np.random.default_rng(41).standard_normal((n, 4))
    tracemalloc.start()
    try:
        knn_feature_graph(x, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


class TestDegreeStats:
    def test_path(self):
        npt.assert_array_equal(degree_stats(make_graph(3, [(0, 1), (1, 2)])), [1, 2, 1])

    def test_empty(self):
        npt.assert_array_equal(degree_stats(make_graph(3, [])), [0, 0, 0])

    def test_complete(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        npt.assert_array_equal(degree_stats(make_graph(4, edges)), [3, 3, 3, 3])


class TestSparseFeatures:
    """`sparse_features` against its oracle, scipy's dense-to-CSR constructor."""

    @staticmethod
    def assert_same_csr(x):
        got, want = sparse_features(x), sp.csr_array(x)
        assert isinstance(got, sp.csr_array)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            npt.assert_array_equal(a, b, err_msg=name)

    def test_all_zero(self):
        self.assert_same_csr(np.zeros((4, 3)))

    def test_all_zero_row(self):
        self.assert_same_csr(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))

    def test_negative_zero_is_zero(self):
        x = np.array([[-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0]])
        self.assert_same_csr(x)
        assert sparse_features(x).nnz == 2

    def test_one_column(self):
        self.assert_same_csr(np.array([[0.0], [5.0], [0.0], [-1.5]]))

    def test_fortran_order(self):
        rng = np.random.default_rng(0)
        x = np.asfortranarray(rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4))
        self.assert_same_csr(x)

    def test_random_30_percent_dense(self):
        rng = np.random.default_rng(1)
        self.assert_same_csr(rng.standard_normal((50, 40)) * (rng.random((50, 40)) < 0.3))

    def test_perfbench_tiny_cite3k(self, tmp_path):
        path = workloads.write_dataset("cite3k", 0, tmp_path / "cite3k", workloads.TINY)
        self.assert_same_csr(load_dataset(path).features)
