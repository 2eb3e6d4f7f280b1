"""What the benchmark harness (`perfbench/`) reads from the program.

The harness loads each dataset with `load_dataset`, checks the kNN graph
against its brute-force oracle on `g.features`, and checks the loss rows of
`train` against the traces recorded in `perfbench/reference_traces.json`. A
change that breaks any of these breaks every benchmark run.
"""

import math

import numpy as np
import pytest

from fusegcn.dataio import load_dataset
from fusegcn.graphs import knn_feature_graph
from fusegcn.training import train
from perfbench import checks, worker, workloads


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


@pytest.mark.parametrize("workload", ["hom400", "sweep400", "cite3k"])
def test_one_pass_matches_the_reference_traces(workload, tmp_path, monkeypatch):
    # The default scale is the worker's own FULL object; only that one selects
    # the reference traces (`perfbench.workloads.FULL` is another import of it).
    monkeypatch.chdir(tmp_path)
    result = worker.run_workload(workload, 0)
    assert result["failed"] == 0, result["notes"]
    assert result["attempted"] == workloads.planned_ops(workload, workloads.FULL, True, False)
