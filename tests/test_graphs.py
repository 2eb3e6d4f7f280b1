import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fusegcn import autodiff as ad
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


def unique_rows_canonical_edges(edges, n_nodes):
    """The row-wise `np.unique(axis=0)` canonicalization that integer keys replaced."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if e.shape[0] == 0:
        return e
    if np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loop in edge list")
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def coo_normalized_adjacency(g):
    """The scipy COO-to-CSR construction that the direct key sort replaced."""
    deg = degree_stats(g) + 1.0
    n = g.n_nodes
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1], loops])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0], loops])
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    p = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    p.sort_indices()
    return p


def assert_same_array(got, want, name=""):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_same_csr(got, want):
    assert isinstance(got, sp.csr_array)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(got, name), getattr(want, name), name)


def edge_list_cases():
    """Edge lists for the key-based builders: (n_nodes, edges)."""
    rng = np.random.default_rng(43)
    cases = [(4, np.zeros((0, 2), dtype=np.int64)), (1, []), (6, [(0, 5), (1, 2)]),
             (5, [(3, 1), (1, 3), (4, 0), (0, 4), (0, 4), (2, 1), (1, 2), (2, 3)])]
    for _ in range(10):
        n = int(rng.integers(2, 200))
        m = int(rng.integers(1, 3 * n))
        e = rng.integers(0, n, size=(m, 2))
        cases.append((n, e[e[:, 0] != e[:, 1]]))
    return cases


class TestKeyedBuildersMatchOracles:
    """`canonical_edges` and `normalized_adjacency` give the replaced forms' bits."""

    @pytest.mark.parametrize("n, edges", edge_list_cases())
    def test_canonical_edges(self, n, edges):
        assert_same_array(canonical_edges(edges, n), unique_rows_canonical_edges(edges, n))

    @pytest.mark.parametrize("n, edges", edge_list_cases())
    def test_normalized_adjacency(self, n, edges):
        g = make_graph(n, edges)
        assert_same_csr(normalized_adjacency(g), coo_normalized_adjacency(g))

    def test_int32_edges(self):
        # keys of 50,000 nodes pass 2**31: they must be formed in int64
        n = 50_000
        g = make_graph(n, [(0, n - 1), (n - 3, n - 2), (n - 2, n - 1)], d=1)
        g32 = Graph(n, g.edges.astype(np.int32), g.features)
        assert_same_csr(normalized_adjacency(g32), coo_normalized_adjacency(g))


class TestGraphInvariants:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 5)])

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 2), (2, -3), (0, 3)])
    def test_endpoint_range_checked_before_key_encoding(self, pair):
        # unchecked, (0, 5) on 3 nodes is key 5, which decodes to the edge (1, 2)
        msg = r"edge endpoint out of range \[0, n_nodes\)"
        with pytest.raises(ValueError, match=msg):
            canonical_edges([(0, 1), pair], 3)
        with pytest.raises(ValueError, match=msg):
            Graph.from_edges(3, [(0, 1), pair], np.ones((3, 1)))

    def test_node_count_whose_keys_overflow_int64(self):
        with pytest.raises(ValueError, match="overflow int64"):
            canonical_edges([(0, 1)], 2**32)
        npt.assert_array_equal(canonical_edges([(2, 1)], 3_037_000_499), [[1, 2]])

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

    # the constructor takes its edges as given: each case breaks one invariant
    @pytest.mark.parametrize("n, edges, features, labels, message", [
        (0, np.empty((0, 2)), np.ones((0, 1)), None, "at least one node"),
        (3, [0, 1], np.ones((3, 1)), None, r"an \(m, 2\) array"),
        (3, [[0, 5]], np.ones((3, 1)), None, "endpoint out of range"),
        (3, [[1, 0]], np.ones((3, 1)), None, "canonical"),
        (3, [[0, 2], [0, 1]], np.ones((3, 1)), None, "sorted and free of duplicates"),
        (3, [[0, 1], [0, 1]], np.ones((3, 1)), None, "sorted and free of duplicates"),
        (3, [[0, 1]], np.ones((2, 1)), None, r"an \(n_nodes, d\) matrix"),
        (3, [[0, 1]], np.ones(3), None, r"an \(n_nodes, d\) matrix"),
        (3, [[0, 1]], np.ones((3, 1)), [0, -1, 1], "nonnegative class ids"),
    ])
    def test_constructor_checks(self, n, edges, features, labels, message):
        labels = None if labels is None else np.array(labels)
        with pytest.raises(ValueError, match=message):
            Graph(n, np.asarray(edges, dtype=np.int64), features, labels)

    def test_unlabeled_graph_has_no_class_count(self):
        with pytest.raises(ValueError, match="graph has no labels"):
            make_graph(3, [(0, 1)]).n_classes


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

    def test_finite_row_whose_norm_overflows(self):
        # the rescued row's norm is inf, but its entries are finite: it is not
        # a non-finite feature row, and it normalizes like the same row at scale 1
        x = np.random.default_rng(5).standard_normal((6, 2))
        x[3] = [1.0, -1.0]
        want = knn_feature_graph(x, 2).edges
        x[3] = [1.5e308, -1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(knn_feature_graph(x, 2).edges, want)


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


def _fortran_small_integers(rng, n=71, d=9):
    return np.asfortranarray(_small_integers(rng, n, d))


class TestKnnMatchesArgsort:
    """Edge sets equal the full-argsort selection, ties and block edges included."""

    MAKERS = [_sparse_binary, _scaled_tiles, _small_integers, _fortran_small_integers]

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


@pytest.mark.parametrize("d, bound", [(4, 2.0), (2000, 2.1)])
def test_knn_memory_peak(d, bound):
    # d = n: the unit-norm rows are as large as the similarity matrix, so the
    # peak is both of them during the product plus the set-up's small arrays;
    # rows kept alive into the selection would add its block temporaries
    n = 2000
    x = np.random.default_rng(41).standard_normal((n, d))
    tracemalloc.start()
    try:
        knn_feature_graph(x, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * n * n * 8


class TestUnitRows:
    """`autodiff.unit_rows`, the row normalization of the kNN graph and of
    `l2_normalize_rows`: ordinary rows get `np.linalg.norm`'s bits in every
    layout, and rows whose squares leave float64's normal range are
    normalized through their largest entry."""

    @staticmethod
    def _expected(x):
        """`np.linalg.norm`'s norms and rows of x, and for rows whose sum of
        squares is not a positive normal float64, peak * ||x / peak|| and
        (x / peak) / ||x / peak||; also the mask of ordinary rows."""
        with np.errstate(over="ignore", under="ignore"):
            ordinary = ad._normal((x * x).sum(axis=1))
            want = np.linalg.norm(x, axis=1, keepdims=True)
        want_rows = x / np.where(ordinary[:, None], want, 1.0)
        odd = np.flatnonzero(~ordinary)
        peaks = np.abs(x[odd]).max(axis=1, keepdims=True)
        scaled = x[odd] / peaks
        r = np.linalg.norm(scaled, axis=1, keepdims=True)
        want[odd] = peaks * r
        want_rows[odd] = scaled / r
        return want, want_rows, ordinary

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("d", [1, 8, 9, 129, 3703])
    def test_norms_and_rows_bit_equal(self, d, rows, order):
        """The whole array, then each run of `rows` rows called on its own
        (a lone strided row is summed in another order than the same row
        of a larger array, so each call is held to its own input)."""
        rng = np.random.default_rng(d)
        x = rng.standard_normal((70, 2 * d if order == "strided" else d))
        x[5] *= 1e200     # squares overflow
        x[6] *= 1e-200    # squares underflow
        x[7] = np.copysign(1.2e154, x[7])   # squares overflow only when summed (d > 1)
        x[8] *= 1e-160    # sum of squares subnormal: nonzero, but short of precision
        x = x[:, ::2] if order == "strided" else np.asarray(x, order=order)
        _, _, ordinary = self._expected(x)
        assert not ordinary[[5, 6, 8]].any() and ordinary[7] == (d == 1)
        for r0 in [None, *range(0, len(x), rows)]:
            xb = x if r0 is None else x[r0:r0 + rows]
            xn, norms = ad.unit_rows(xb)
            want, want_rows, _ = self._expected(xb)
            assert_same_array(norms, want)
            assert np.isfinite(norms).all() and (norms > 0).all()
            if order == "C":
                assert xn.flags.c_contiguous
            elif order == "F":
                assert xn.flags.f_contiguous
            if r0 is None and order != "strided":
                assert xn.flags.c_contiguous == x.flags.c_contiguous
                assert xn.flags.f_contiguous == x.flags.f_contiguous
            assert_same_array(xn, want_rows)

    def test_zero_and_non_finite_rows_reported_through_norms(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [-0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, norms = ad.unit_rows(x)
        assert norms[0, 0] == 5.0 and norms[1, 0] == 0.0 and norms[4, 0] == 0.0
        assert not np.isfinite(norms[2:4]).any()

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
        assert_same_csr(sparse_features(x), sp.csr_array(x))

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
