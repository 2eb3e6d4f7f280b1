"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line. The two
synthetic benchmarks (a homophilous 2-block SBM and a heterophilous 5-block
SBM) are trained once per session and shared across criteria 5-7. The whole
module is marked `slow`: `pytest -m "not slow"` skips it.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.protocol import (BENCH_SEEDS, check_harsh_heterophily, heterophilous_spec,
                                 homophilous_spec, run_benchmark)
from fusegcn.autodiff import Tape
from fusegcn.cli import cli_dispatch
from fusegcn.dataio import save_dataset
from fusegcn.graphs import homophily_ratio, knn_feature_graph
from fusegcn.heterophily import (
    SynthSpec,
    generate_synthetic,
    inject_heterophilous_edges,
    make_sweep_plan,
    required_edges,
)
from fusegcn.losses import closeness_loss, disparity_loss
from fusegcn.training import model_gradient_check
from tests.test_graphs import brute_force_knn_edges, random_labeled_graph

pytestmark = pytest.mark.slow


def report(num, passed, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return passed


# ---------------------------------------------------------------------------
# shared benchmark runs (criteria 5-7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def homophilous_bench():
    return run_benchmark(homophilous_spec, with_knn_baseline=False)


@pytest.fixture(scope="session")
def heterophilous_bench():
    for seed in BENCH_SEEDS:
        check_harsh_heterophily(generate_synthetic(heterophilous_spec(seed)))
    return run_benchmark(heterophilous_spec, with_knn_baseline=True)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rep = model_gradient_check(n=12, d=5, c=3, hidden=8, seed=1, eps=1e-5, tolerance=1e-4)
    elapsed = time.monotonic() - start
    ok = report(1, rep.passed and elapsed < 60.0,
                f"tape gradient vs central differences: max rel err "
                f"{rep.max_rel_error:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")
    assert ok, str(rep)


def test_criterion_2_homophily_oracle():
    rng = np.random.default_rng(202)
    exact = 0
    for _ in range(100):
        g = random_labeled_graph(rng, max_n=30)
        same = sum(1 for i, j in g.edges if g.labels[i] == g.labels[j])
        if homophily_ratio(g) == same / len(g.edges):
            exact += 1
    ok = report(2, exact == 100,
                f"homophily matches brute-force enumeration on {exact}/100 graphs, exactly")
    assert ok


def test_criterion_3_injection_fidelity():
    g = generate_synthetic(SynthSpec(500, 3, p_intra=0.02, p_inter=0.002,
                                     n_features=8, seed=33))
    plan = make_sweep_plan(g, seed=3)
    old_edges = set(map(tuple, g.edges.tolist()))
    worst = 0.0
    all_cross = True
    untouched = True
    for level, seed in zip(plan.levels, plan.seeds):
        k = required_edges(g, level)
        g2 = inject_heterophilous_edges(g, k, seed)
        worst = max(worst, abs((1.0 - homophily_ratio(g2)) - level))
        for i, j in map(tuple, g2.edges.tolist()):
            if (i, j) not in old_edges and g.labels[i] == g.labels[j]:
                all_cross = False
        untouched &= (g2.n_nodes == g.n_nodes
                      and np.array_equal(g2.labels, g.labels)
                      and np.array_equal(g2.features, g.features))
    ok = report(3, worst <= 0.01 and all_cross and untouched,
                f"10 injection levels on N=500: max |achieved - target| = {worst:.4f} "
                f"(tol 0.01), all new edges cross-label={all_cross}, data untouched={untouched}")
    assert ok


def test_criterion_4_knn_matches_brute_force():
    rng = np.random.default_rng(404)
    matches = 0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(7, n)))
        x = rng.standard_normal((n, d))
        g = knn_feature_graph(x, k)
        if sorted(map(tuple, g.edges)) == brute_force_knn_edges(x, k):
            matches += 1
    ok = report(4, matches == 20,
                f"kNN graph matches O(N^2) cosine ranking with the tie rule on {matches}/20")
    assert ok


def test_criterion_5_homophilous_benchmark(homophilous_bench):
    b = homophilous_bench
    full_med = float(np.median(b["full"]))
    gcn_med = float(np.median(b["gcn"]))
    ok = report(5, full_med >= 0.90 and full_med >= gcn_med - 0.02 and b["elapsed"] < 300,
                f"homophilous SBM: full median {full_med:.4f} (>= 0.90), "
                f"gcn median {gcn_med:.4f} (full >= gcn - 0.02), "
                f"{b['elapsed']:.0f}s (< 300s)")
    assert ok


def test_criterion_6_heterophilous_benchmark(heterophilous_bench):
    # Five classes, not two: on two blocks the GCN sits near an accuracy of 1,
    # so full >= gcn + 0.05 could not hold (see heterophilous_spec).
    b = heterophilous_bench
    full_med = float(np.median(b["full"]))
    gcn_med = float(np.median(b["gcn"]))
    knn_med = float(np.median(b["knn"]))
    gap_ok = full_med >= gcn_med + 0.05
    knn_ok = full_med >= knn_med - 0.02
    ok = report(6, gap_ok and knn_ok,
                f"heterophilous SBM ({heterophilous_spec(0).n_classes} classes, heterophily "
                f"{min(b['heterophily']):.3f}-{max(b['heterophily']):.3f}): "
                f"full median {full_med:.4f}, gcn {gcn_med:.4f} "
                f"(need full >= gcn + 0.05: {'ok' if gap_ok else 'NOT met'}), "
                f"knn {knn_med:.4f} (need full >= knn - 0.02: {'ok' if knn_ok else 'NOT met'})")
    assert ok


def test_criterion_7_attention_trend(homophilous_bench, heterophilous_bench):
    hom_t_wins = sum(1 for t, f in zip(homophilous_bench["attn_t"],
                                       homophilous_bench["attn_f"]) if t > f)
    het_f_wins = sum(1 for t, f in zip(heterophilous_bench["attn_t"],
                                       heterophilous_bench["attn_f"]) if f > t)
    ok = report(7, hom_t_wins >= 3 and het_f_wins >= 3,
                f"attention trend: homophilous attn_T > attn_F in {hom_t_wins}/5 "
                f"(need >= 3), heterophilous attn_F > attn_T in {het_f_wins}/5 (need >= 3)")
    assert ok


def test_criterion_8_loss_invariants():
    t = Tape()
    rng = np.random.default_rng(808)
    z = rng.standard_normal((5, 3)) + 0.2
    a = t.tensor(z)
    same = closeness_loss(a, t.tensor(z.copy())).item() == 0.0
    scaled = closeness_loss(a, t.tensor(z * 2.0)).item() == 0.0
    z_t = t.tensor(rng.standard_normal((4, 3)))
    z_f = t.tensor(rng.standard_normal((4, 3)))
    aligned = disparity_loss(z_t, t.tensor(2.0 * z_t.value), z_f,
                             t.tensor(0.5 * z_f.value)).item()
    anti = disparity_loss(z_t, t.tensor(-z_t.value), z_f, t.tensor(-z_f.value)).item()
    orth_a = t.tensor([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    orth_b = t.tensor([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    orth = disparity_loss(orth_a, orth_b, orth_a, orth_b).item()
    ok = report(8, same and scaled and aligned == -2.0 and anti == 2.0 and orth == 0.0,
                f"closeness 0 on identical/row-scaled inputs ({same}/{scaled}); "
                f"disparity aligned={aligned}, anti-aligned={anti}, orthogonal={orth}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    g = generate_synthetic(SynthSpec(60, 2, p_intra=0.25, p_inter=0.02,
                                     n_features=8, seed=99))
    save_dataset(g, tmp_path / "ds")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 10\npatience = 10\nhidden_dim = 8\nknn_k = 3\n"
                   "train_per_class = 5\nval_per_class = 3\nseed = 7\n")
    for name in ("r1", "r2"):
        rc = cli_dispatch(["train", "--data", str(tmp_path / "ds"), "--config",
                           str(cfg), "--out", str(tmp_path / name)])
        assert rc == 0
    b1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    ok = report(9, b1 == b2,
                f"two train invocations, identical dataset/config/seed: trace.csv "
                f"byte-identical={b1 == b2} ({len(b1)} bytes)")
    assert ok


def test_criterion_10_external_dataset_recipe(tmp_path):
    # converted-copy ingestion: a dataset written by any external converter in
    # the documented TSV layout must load; the README carries the recipe and
    # marks the real-data check optional and non-gating.
    g = generate_synthetic(SynthSpec(40, 6, p_intra=0.2, p_inter=0.03,
                                     n_features=10, seed=10))
    save_dataset(g, tmp_path / "converted")
    from fusegcn.dataio import load_dataset
    loaded = load_dataset(tmp_path / "converted")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text() if readme.is_file() else ""
    documented = ("Citeseer" in text and "74.70" in text
                  and "non-gating" in text and "optional" in text.lower())
    ok = report(10, loaded.n_nodes == 40 and documented,
                f"loader accepts converted datasets={loaded.n_nodes == 40}; README "
                f"documents the optional, non-gating real-data recipe={documented}")
    assert ok
