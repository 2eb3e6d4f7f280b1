import functools

import numpy as np
import numpy.testing as npt
import pytest

from fusegcn.graphs import Graph, canonical_edges, homophily_ratio, normalized_adjacency
from fusegcn import heterophily
from fusegcn.heterophily import (
    InjectionBudgetError,
    SynthSpec,
    SweepPlan,
    generate_synthetic,
    heterophily_sweep,
    inject_heterophilous_edges,
    make_sweep_plan,
    required_edges,
    target_label_cdf,
)
from fusegcn.losses import LossWeights
from fusegcn.training import TrainConfig, train
from fusegcn.graphs import knn_feature_graph
from perfbench import workloads
from tests.test_autodiff import tapes_left_by
from tests.test_graphs import (
    assert_same_array,
    assert_same_csr,
    coo_normalized_adjacency,
    make_graph,
    unique_rows_canonical_edges,
)


def _scalar_inject(g, k, seed):
    """The per-draw injection loop that defines each seed's edge set (reference)."""
    labels = g.labels
    n_classes = g.n_classes
    if k == 0:
        return g
    class_members = [np.flatnonzero(labels == c) for c in range(n_classes)]
    class_sizes = np.array([m.size for m in class_members], dtype=np.float64)
    existing = set(map(tuple, g.edges.tolist()))

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


def graph_with_counts(n_same, n_cross, seed=0):
    """Graph with exactly n_same intra-class and n_cross cross-class edges."""
    rng = np.random.default_rng(seed)
    half = max(n_same, n_cross) + 2
    n = 2 * half
    labels = np.array([0] * half + [1] * half)
    same_pool = [(i, j) for i in range(half) for j in range(i + 1, half)]
    cross_pool = [(i, half + j) for i in range(half) for j in range(half)]
    rng.shuffle(same_pool)
    rng.shuffle(cross_pool)
    edges = same_pool[:n_same] + cross_pool[:n_cross]
    return make_graph(n, edges, labels=labels, seed=seed)


class TestRequiredEdges:
    def test_spec_case_100_edges(self):
        g = graph_with_counts(80, 20)
        assert required_edges(g, 0.5) == 60
        assert (20 + 60) / (100 + 60) == 0.5

    def test_target_equal_current_zero(self):
        g = graph_with_counts(80, 20)
        assert required_edges(g, 0.2) == 0

    def test_target_below_current_errors(self):
        g = graph_with_counts(50, 50)
        with pytest.raises(ValueError, match="below current"):
            required_edges(g, 0.3)

    def test_target_one_errors(self):
        g = graph_with_counts(5, 5)
        with pytest.raises(ValueError):
            required_edges(g, 1.0)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_named(self, target):
        g = graph_with_counts(5, 5)
        with pytest.raises(ValueError, match="target heterophily must be finite"):
            required_edges(g, target)

    def test_minimality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_same = int(rng.integers(1, 40))
            n_cross = int(rng.integers(0, 40))
            m = n_same + n_cross
            current = n_cross / m
            target = current + (0.98 - current) * float(rng.random())
            g = graph_with_counts(n_same, n_cross, seed=int(rng.integers(1 << 30)))
            k = required_edges(g, target)
            assert (n_cross + k) / (m + k) >= target - 1e-12
            if k > 0:
                assert (n_cross + k - 1) / (m + k - 1) < target


@pytest.mark.parametrize("call, message", [
    (lambda: required_edges(make_graph(4, [(0, 1)]), 0.5), "heterophily targets require labels"),
    (lambda: required_edges(make_graph(4, [], labels=[0, 1, 0, 1]), 0.5),
     "undefined heterophily: empty edge set"),
    (lambda: inject_heterophilous_edges(make_graph(4, [(0, 1)]), 1, seed=0),
     "injection requires labels"),
    (lambda: inject_heterophilous_edges(make_graph(4, [(0, 1)], labels=[0] * 4), 1, seed=0),
     "need at least two classes"),
], ids=["required_edges unlabeled", "required_edges edgeless", "inject unlabeled",
        "inject one class"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestInjection:
    def test_zero_k_identity(self):
        g = graph_with_counts(10, 2)
        g2 = inject_heterophilous_edges(g, 0, seed=3)
        npt.assert_array_equal(g2.edges, g.edges)

    def test_exactly_k_new_cross_edges(self):
        g = graph_with_counts(12, 3)
        g2 = inject_heterophilous_edges(g, 7, seed=4)
        assert g2.n_edges == g.n_edges + 7
        old = set(map(tuple, g.edges.tolist()))
        new = [e for e in map(tuple, g2.edges.tolist()) if e not in old]
        assert len(new) == 7
        for i, j in new:
            assert g.labels[i] != g.labels[j]

    def test_preserves_everything_but_edges(self):
        g = graph_with_counts(12, 3)
        g2 = inject_heterophilous_edges(g, 5, seed=5)
        assert g2.n_nodes == g.n_nodes
        npt.assert_array_equal(g2.labels, g.labels)
        npt.assert_array_equal(g2.features, g.features)
        assert set(map(tuple, g.edges.tolist())) <= set(map(tuple, g2.edges.tolist()))

    def test_deterministic_per_seed(self):
        g = graph_with_counts(12, 3)
        a = inject_heterophilous_edges(g, 6, seed=7)
        b = inject_heterophilous_edges(g, 6, seed=7)
        npt.assert_array_equal(a.edges, b.edges)

    def test_infeasible_k_errors(self):
        labels = np.array([0, 0, 1])
        g = make_graph(3, [(0, 2), (1, 2)], labels=labels)
        with pytest.raises(ValueError, match="cannot add"):
            inject_heterophilous_edges(g, 1, seed=0)

    def test_sampling_budget_overrun_errors(self):
        # every cross pair but one is present: a uniform draw finds the last
        # one with probability 1/40000, so the 10,200 draws run out at this seed
        labels = np.repeat([0, 1], 200)
        left, right = np.meshgrid(np.arange(200), np.arange(200, 400), indexing="ij")
        edges = np.stack([left.ravel(), right.ravel()], axis=1)[1:]
        g = Graph(400, edges, np.zeros((400, 1)), labels)
        with pytest.raises(InjectionBudgetError, match="0 of 1 cross-label edges"):
            inject_heterophilous_edges(g, 1, seed=0)

    def test_target_label_proportional_to_class_size(self):
        # Monte-Carlo check of endpoint-label frequencies against the exact
        # expectation: source uniform over nodes, target label proportional
        # to class size among the remaining classes.
        sizes = np.array([10, 60, 10])
        n = sizes.sum()
        labels = np.repeat([0, 1, 2], sizes)
        g = make_graph(n, [(0, 1)], labels=labels)
        k = 600
        g2 = inject_heterophilous_edges(g, k, seed=11)
        new = [e for e in map(tuple, g2.edges.tolist()) if e != (0, 1)]
        touched = np.array([lab for i, j in new for lab in (g.labels[i], g.labels[j])])
        expect = np.zeros(3)
        for c in range(3):
            expect[c] += sizes[c] / n  # the uniformly drawn source
            for src in range(3):       # plus the size-proportional target
                if src != c:
                    expect[c] += (sizes[src] / n) * (sizes[c] / (n - sizes[src]))
        observed = np.array([np.count_nonzero(touched == c) for c in range(3)]) / k
        npt.assert_allclose(observed, expect, atol=0.08)

    def test_achieves_target_within_tolerance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = SynthSpec(n_nodes=int(rng.integers(60, 201)), n_classes=3,
                             p_intra=0.15, p_inter=0.02, seed=int(rng.integers(1 << 30)))
            g = generate_synthetic(spec)
            target = float(rng.uniform(1 - homophily_ratio(g), 0.9))
            k = required_edges(g, target)
            g2 = inject_heterophilous_edges(g, k, seed=int(rng.integers(1 << 30)))
            assert abs((1 - homophily_ratio(g2)) - target) <= 0.01
            assert 1 - homophily_ratio(g2) >= target - 1e-12


class TestTargetLabelCdf:
    CITE3K_SIZES = (264, 590, 668, 701, 596, 508)

    def test_plain_cumsum_falls_short(self):
        # premise: the row of class 0 at cite3k's sizes sums to 1 - 2^-53
        p = np.array(self.CITE3K_SIZES, dtype=np.float64)
        p[0] = 0.0
        assert np.cumsum(p / p.sum())[-1] < 1.0

    def test_rows_end_at_one_and_never_draw_own_label(self):
        rng = np.random.default_rng(17)
        cases = [np.array(self.CITE3K_SIZES), np.array([1, 1, 28, 30]), np.array([5, 0, 7, 0])]
        cases += [rng.integers(1, 1000, size=int(rng.integers(2, 9))) for _ in range(200)]
        for sizes in cases:
            cum = target_label_cdf(sizes)
            assert np.all(cum[:, -1] == 1.0), sizes
            for c in range(sizes.size):
                for u in (0.0, 1.0 - 2.0**-53):
                    y = int(np.searchsorted(cum[c], u, side="right"))
                    assert y < sizes.size and y != c and sizes[y] > 0, (sizes, c, u)


class TestStreamReplay:
    """The batched helpers against numpy's scalar calls.

    Injection's edge sets depend on replaying numpy's PCG64 stream; a numpy
    release that changes how `integers` or `random` consume it fails here.
    """

    @staticmethod
    def _at(seed, pos, raw):
        """A generator `pos` 32-bit halves into the stream (low half first)."""
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance((pos + 1) // 2)
        if pos % 2:
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, int(raw[pos // 2] >> np.uint64(32))
            rng.bit_generator.state = state
        return rng

    @staticmethod
    def _position(rng):
        state = rng.bit_generator.state
        return state["state"], state["has_uint32"]

    @pytest.mark.parametrize("n", [3 * 2**30, 2**31 + 12345])
    def test_bounded_integers_flag_every_rejection(self, n):
        raw = np.random.default_rng(3).bit_generator.random_raw(100)
        words = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1).ravel()
        values, rejected = heterophily.bounded_integers(words, n, heterophily._lemire_threshold(n))
        assert 20 < np.count_nonzero(rejected) < 180
        first = int(np.argmax(rejected))
        scalar = np.random.default_rng(3)
        npt.assert_array_equal([scalar.integers(n) for _ in range(first)], values[:first])
        for pos in range(words.size - 1):
            rng = self._at(3, pos, raw)
            value = int(rng.integers(n))
            # an accepted word is consumed alone: the stream is then at pos + 1
            consumed_one = self._position(rng) == self._position(self._at(3, pos + 1, raw))
            assert consumed_one == (not rejected[pos]), pos
            if consumed_one:
                assert value == values[pos]

    def test_unit_doubles_match_random(self):
        raw = np.random.default_rng(4).bit_generator.random_raw(500)
        rng = np.random.default_rng(4)
        npt.assert_array_equal(heterophily.unit_doubles(raw), [rng.random() for _ in range(500)])


class TestInjectionMatchesScalarLoop:
    """The batched injection returns the per-draw loop's edge set, seed for seed."""

    def test_two_block_sweep_levels(self):
        g = generate_synthetic(SynthSpec(400, 2, p_intra=0.05, p_inter=0.005,
                                         n_features=4, seed=8))
        plan = make_sweep_plan(g, seed=8, n_levels=3, max_level=0.8)
        for level, seed in zip(plan.levels, plan.seeds):
            k = required_edges(g, level)
            npt.assert_array_equal(inject_heterophilous_edges(g, k, seed).edges,
                                   _scalar_inject(g, k, seed).edges)

    def test_five_block(self):
        g = generate_synthetic(SynthSpec(1000, 5, p_intra=0.005, p_inter=0.0125,
                                         n_features=5, seed=2))
        k = required_edges(g, 0.95)
        npt.assert_array_equal(inject_heterophilous_edges(g, k, 9).edges,
                               _scalar_inject(g, k, 9).edges)

    @pytest.mark.parametrize("k", [50, 200, 400])
    def test_one_member_classes_resync(self, k, monkeypatch):
        # a one-member target class consumes no member draw, which flips
        # PCG64's spare 32-bit half: the replay must resync and run with a spare
        resumes = []
        resume = heterophily._resume
        monkeypatch.setattr(heterophily, "_resume",
                            lambda bg, saved, n_words, spare:
                            resumes.append(spare) or resume(bg, saved, n_words, spare))
        g = generate_synthetic(SynthSpec(60, 4, class_sizes=(1, 1, 28, 30),
                                         p_intra=0.1, p_inter=0.01, seed=k))
        npt.assert_array_equal(inject_heterophilous_edges(g, k, k + 1).edges,
                               _scalar_inject(g, k, k + 1).edges)
        assert any(s is None for s in resumes) and any(s is not None for s in resumes)

    def test_near_saturation(self):
        # the batch size follows the absent cross pairs' share, so it departs
        # most from twice the missing edges when few of those pairs are left
        labels = np.repeat([0, 1], 100)
        cross = np.random.default_rng(5).permutation(100 * 100)[:5_000]
        edges = np.stack([cross // 100, 100 + cross % 100], axis=1)
        g = Graph.from_edges(200, edges, np.zeros((200, 1)), labels)
        got = inject_heterophilous_edges(g, 4_200, 3)
        npt.assert_array_equal(got.edges, _scalar_inject(g, 4_200, 3).edges)
        assert 100 * 100 - got.n_edges < 1_000      # under 10% of the cross pairs absent

    @staticmethod
    def _budget_messages(g, k, seed):
        messages = []
        for inject in (inject_heterophilous_edges, _scalar_inject):
            with pytest.raises(InjectionBudgetError) as err:
                inject(g, k, seed)
            messages.append(str(err.value))
        return messages

    def test_budget_overrun_same_error(self):
        labels = np.repeat([0, 1], 200)
        left, right = np.meshgrid(np.arange(200), np.arange(200, 400), indexing="ij")
        edges = np.stack([left.ravel(), right.ravel()], axis=1)[1:]
        g = Graph(400, edges, np.zeros((400, 1)), labels)
        batched, scalar = self._budget_messages(g, 1, 0)
        assert batched == scalar

    def test_budget_overrun_after_some_edges_same_error(self):
        # 5 of 10,000 cross pairs absent: the 11,000 draws find some, not all
        labels = np.repeat([0, 1], 100)
        left, right = np.meshgrid(np.arange(100), np.arange(100, 200), indexing="ij")
        edges = np.stack([left.ravel(), right.ravel()], axis=1)
        edges = np.delete(edges, [7, 1234, 4321, 6000, 9999], axis=0)
        g = Graph(200, edges, np.zeros((200, 1)), labels)
        batched, scalar = self._budget_messages(g, 5, 1)
        assert batched == scalar
        assert "after adding 0 of" not in batched


def _injection_case(name):
    """(graph, k, seed) of the scalar-loop fixtures whose batches break or overrun."""
    if name == "near saturation":
        labels = np.repeat([0, 1], 100)
        cross = np.random.default_rng(5).permutation(100 * 100)[:5_000]
        edges = np.stack([cross // 100, 100 + cross % 100], axis=1)
        return Graph.from_edges(200, edges, np.zeros((200, 1)), labels), 4_200, 3
    if name == "one-member classes":
        return generate_synthetic(SynthSpec(60, 4, class_sizes=(1, 1, 28, 30), p_intra=0.1,
                                            p_inter=0.01, seed=200)), 200, 201
    if name == "five-block":
        g = generate_synthetic(SynthSpec(1000, 5, p_intra=0.005, p_inter=0.0125,
                                         n_features=5, seed=2))
        return g, required_edges(g, 0.95), 9
    if name == "one pair left":
        labels = np.repeat([0, 1], 200)
        left, right = np.meshgrid(np.arange(200), np.arange(200, 400), indexing="ij")
        edges = np.stack([left.ravel(), right.ravel()], axis=1)[1:]
        return Graph(400, edges, np.zeros((400, 1)), labels), 1, 0
    assert name == "five pairs left"
    labels = np.repeat([0, 1], 100)
    left, right = np.meshgrid(np.arange(100), np.arange(100, 200), indexing="ij")
    edges = np.stack([left.ravel(), right.ravel()], axis=1)
    edges = np.delete(edges, [7, 1234, 4321, 6000, 9999], axis=0)
    return Graph(200, edges, np.zeros((200, 1)), labels), 5, 1


class TestBatchSizeKeepsEdges:
    """Batches only cut the per-draw loop's draws into chunks, so the edge set
    and the budget error do not depend on `_batch_size`."""

    @pytest.fixture(params=["one draw", "whole budget"])
    def batches(self, request, monkeypatch):
        """Sizes of the raw-word batches replayed; the injection caps a size at the budget."""
        size = 1 if request.param == "one draw" else 2**62
        monkeypatch.setattr(heterophily, "_batch_size", lambda missing, absent, cross_total: size)
        replay, sizes = heterophily._replay, []
        monkeypatch.setattr(heterophily, "_replay",
                            lambda raw, *args: sizes.append(raw.size // 2) or replay(raw, *args))
        return request.param, sizes

    @staticmethod
    def _check_sizes(batches, max_draws):
        kind, sizes = batches
        if kind == "one draw":
            assert set(sizes) == {1}
        else:
            assert sizes[0] == max_draws

    @pytest.mark.parametrize("case", ["near saturation", "one-member classes", "five-block"])
    def test_same_edges_as_scalar_loop(self, batches, case):
        g, k, seed = _injection_case(case)
        npt.assert_array_equal(inject_heterophilous_edges(g, k, seed).edges,
                               _scalar_inject(g, k, seed).edges)
        self._check_sizes(batches, 200 * k + 10_000)

    @pytest.mark.parametrize("case", ["one pair left", "five pairs left"])
    def test_budget_overrun_same_error(self, batches, case):
        g, k, seed = _injection_case(case)
        batched, scalar = TestInjectionMatchesScalarLoop._budget_messages(g, k, seed)
        assert batched == scalar
        self._check_sizes(batches, 200 * k + 10_000)


class TestTargetLabels:
    """The batched target label is `np.searchsorted(cum[c], u, side="right")`."""

    def test_at_and_next_to_every_cdf_value(self):
        sizes = np.array([5, 0, 1, 7, 3])       # an empty and a one-member class
        cum = target_label_cdf(sizes)
        for c in range(sizes.size):
            u = np.concatenate([cum[c], np.nextafter(cum[c], 0.0), np.nextafter(cum[c], 1.0),
                                [0.0, 1.0 - 2.0**-53]])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = heterophily._target_labels(cum, np.full(u.size, c), u)
            npt.assert_array_equal(got, np.searchsorted(cum[c], u, side="right"), err_msg=f"class {c}")


def _stable_accept(taken, keys, limit):
    """The `np.unique(return_index=True)` acceptance that the argsort form replaced."""
    uniq, first = np.unique(keys, return_index=True)
    fresh = taken[np.searchsorted(taken, uniq)] != uniq
    new = np.sort(keys[np.sort(first[fresh])[:limit]])
    return np.insert(taken, np.searchsorted(taken, new), new), new.size


@functools.cache
def sweep400_top_level():
    """perfbench's sweep400 at seed 0: (base graph, k, injection seed, top-level graph)."""
    labels, edges, x = workloads.sbm_graph(0)
    g = Graph.from_edges(labels.size, edges, x, labels)
    plan = make_sweep_plan(g, 0, workloads.FULL.sweep_levels, workloads.FULL.sweep_max_level)
    k = required_edges(g, plan.levels[-1])
    return g, k, plan.seeds[-1], inject_heterophilous_edges(g, k, plan.seeds[-1])


class TestAcceptMatchesStableUnique:
    """`_accept` gives the stable `np.unique` form's bits, batch for batch."""

    @pytest.mark.parametrize("limit", [0, 1, 5, 1000])
    def test_random_batches(self, limit):
        rng = np.random.default_rng(limit)
        for _ in range(20):
            taken = np.append(np.unique(rng.integers(0, 300, size=40)), 300)
            keys = rng.integers(0, 300, size=int(rng.integers(0, 120)))
            got, want = heterophily._accept(taken, keys, limit), _stable_accept(taken, keys, limit)
            assert_same_array(got[0], want[0])
            assert got[1] == want[1]

    def test_empty_batch(self):
        taken = np.array([3, 7, 100], dtype=np.int64)
        got, n_new = heterophily._accept(taken, np.zeros(0, dtype=np.int64), 4)
        assert n_new == 0
        assert_same_array(got, _stable_accept(taken, np.zeros(0, dtype=np.int64), 4)[0])


class TestSweep400TopLevel:
    """The keyed builders on sweep400's top level: 37,631 injected edges."""

    def test_injection_matches_stable_accept(self, monkeypatch):
        g, k, seed, top = sweep400_top_level()
        assert k == 37_631 and top.n_edges == g.n_edges + k
        monkeypatch.setattr(heterophily, "_accept", _stable_accept)
        assert_same_array(top.edges, inject_heterophilous_edges(g, k, seed).edges)

    def test_normalized_adjacency_matches_coo(self):
        top = sweep400_top_level()[-1]
        assert_same_csr(normalized_adjacency(top), coo_normalized_adjacency(top))

    def test_canonical_edges_matches_unique_rows(self):
        top = sweep400_top_level()[-1]
        rng = np.random.default_rng(3)
        raw = rng.permutation(np.concatenate([top.edges, top.edges[:, ::-1], top.edges[:500]]))
        assert_same_array(canonical_edges(raw, top.n_nodes),
                          unique_rows_canonical_edges(raw, top.n_nodes))
        assert_same_array(canonical_edges(raw, top.n_nodes), top.edges)


class TestSweepPlan:
    def test_ten_levels_inclusive_endpoints(self):
        g = graph_with_counts(80, 20)
        plan = make_sweep_plan(g, seed=1)
        assert len(plan.levels) == 10
        assert plan.levels[0] == pytest.approx(0.2)
        assert plan.levels[-1] == pytest.approx(0.95)
        assert np.all(np.diff(plan.levels) > 0)

    def test_already_too_heterophilous_errors(self):
        g = graph_with_counts(1, 30)
        with pytest.raises(ValueError, match="already at or above"):
            make_sweep_plan(g)

    def test_plan_validation(self):
        # the bound holds on max_level itself, whatever the level count
        for n_levels in (1, 2, 10):
            with pytest.raises(ValueError, match="at most 0.95, got max_level=0.99"):
                make_sweep_plan(graph_with_counts(10, 2), n_levels=n_levels, max_level=0.99)

    @pytest.mark.parametrize("n_levels", [0, -2])
    def test_level_count_named(self, n_levels):
        with pytest.raises(ValueError, match=f"at least one level, got n_levels={n_levels}"):
            make_sweep_plan(graph_with_counts(10, 2), n_levels=n_levels)

    def test_non_finite_levels_rejected(self):
        for max_level in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=f"finite.*got max_level={max_level}"):
                make_sweep_plan(graph_with_counts(10, 2), max_level=float(max_level))

    @pytest.mark.parametrize("level", [float("nan"), 1.0, 0.05])
    def test_hand_built_plan_checked_per_level(self, level):
        # 0.05 is below the graph's own heterophily, 2/12
        g = graph_with_counts(10, 2)
        with pytest.raises(ValueError, match="target heterophily"):
            heterophily_sweep(g, knn_feature_graph(g.features, 3), SweepPlan((level,), (1,)),
                              TrainConfig(epochs=1))


def tiny_cfg(**kw):
    defaults = dict(hidden_dim=8, knn_k=3, epochs=8, patience=8, seed=0,
                    train_per_class=5, val_per_class=3,
                    loss_weights=LossWeights(1.0, 1e-4, 1e-3))
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSweep:
    def test_sweep_table_shape_and_first_row(self):
        # sparse base graph: reaching 0.95 heterophily by pure addition needs
        # ~19x the intra-edge count in new cross pairs, which must fit N^2/4
        spec = SynthSpec(n_nodes=60, n_classes=2, p_intra=0.04, p_inter=0.004,
                         n_features=8, seed=21)
        g = generate_synthetic(spec)
        g_f = knn_feature_graph(g.features, 3)
        cfg = tiny_cfg()
        plan = make_sweep_plan(g, seed=2, n_levels=4)
        rows = heterophily_sweep(g, g_f, plan, cfg)
        assert len(rows) == 4
        levels = [r[0] for r in rows]
        assert levels == sorted(levels)
        _, trace = train(g, g_f, cfg)
        assert rows[0][1] == trace.final_accuracy
        assert rows[0][2] == trace.final_macro_f1

    def test_no_tape_outlives_the_sweep(self):
        spec = SynthSpec(n_nodes=60, n_classes=2, p_intra=0.04, p_inter=0.004,
                         n_features=8, seed=21)
        g = generate_synthetic(spec)
        g_f = knn_feature_graph(g.features, 3)
        plan = make_sweep_plan(g, seed=2, n_levels=2)
        assert tapes_left_by(lambda: heterophily_sweep(g, g_f, plan, tiny_cfg(epochs=3))) == []


class TestGenerateSynthetic:
    def test_no_inter_edges_full_homophily(self):
        g = generate_synthetic(SynthSpec(60, 2, p_intra=0.4, p_inter=0.0, seed=3))
        assert homophily_ratio(g) == 1.0

    def test_no_intra_edges_full_heterophily(self):
        g = generate_synthetic(SynthSpec(60, 2, p_intra=0.0, p_inter=0.4, seed=4))
        assert homophily_ratio(g) == 0.0

    def test_expected_homophily_two_block(self):
        p_in, p_out = 0.2, 0.05
        vals = [homophily_ratio(generate_synthetic(
            SynthSpec(100, 2, p_intra=p_in, p_inter=p_out, seed=s))) for s in range(20)]
        n_half = 50
        expect = (n_half - 1) * p_in / ((n_half - 1) * p_in + n_half * p_out)
        assert np.mean(vals) == pytest.approx(expect, abs=0.02)

    def test_deterministic_and_sized(self):
        spec = SynthSpec(45, 3, class_sizes=(20, 15, 10), seed=5)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        npt.assert_array_equal(a.edges, b.edges)
        npt.assert_array_equal(a.features, b.features)
        assert np.count_nonzero(a.labels == 0) == 20
        assert np.count_nonzero(a.labels == 2) == 10
        assert a.features.shape == (45, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(10, 2, p_intra=1.5)
        with pytest.raises(ValueError):
            SynthSpec(10, 2, class_sizes=(3, 3))
        with pytest.raises(ValueError, match="one size per class required"):
            SynthSpec(10, 2, class_sizes=(10,))
        with pytest.raises(ValueError, match="one feature"):
            SynthSpec(10, 2, n_features=0)
        with pytest.raises(ValueError, match="n_nodes must be >= 1, got -3"):
            SynthSpec(-3, 1)
        with pytest.raises(ValueError, match=r"class_sizes must be >= 0, got \(12, -2\)"):
            SynthSpec(10, 2, class_sizes=(12, -2))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SynthSpec(10, 2, seed=-1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                SynthSpec(10, 2, mean_separation=bad)
            with pytest.raises(ValueError, match="must be finite"):
                SynthSpec(10, 2, noise_scale=bad)
