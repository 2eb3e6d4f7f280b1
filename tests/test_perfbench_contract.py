"""What the benchmark harness (`perfbench/`) reads from the program, on its tiny cite3k input.

The harness loads each dataset with `load_dataset`, checks the kNN graph
against its brute-force oracle on `g.features`, and checks the loss rows of
`train`. A change that breaks any of these breaks every benchmark run.
"""

import math

import numpy as np

from fusegcn.dataio import load_dataset
from fusegcn.graphs import knn_feature_graph
from fusegcn.training import train
from perfbench import checks, workloads


def test_tiny_cite3k_as_the_harness_reads_it(tmp_path):
    g = load_dataset(workloads.write_dataset("cite3k", 0, tmp_path / "cite3k", workloads.TINY))
    assert type(g.features) is np.ndarray and g.features.dtype == np.float64

    cfg = workloads.train_config("cite3k", 0, workloads.TINY)
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    ok, _, detail = checks.knn_check(g.features, cfg.knn_k, g_f.edges)
    assert ok, detail

    _, trace = train(g, g_f, cfg)
    rows = checks.loss_rows(trace)
    assert len(rows) == cfg.epochs
    assert all(math.isfinite(v) for row in rows for v in row)
