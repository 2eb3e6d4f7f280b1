"""Correctness checks of the program's outputs, independent of its code.

- `knn_check`: the kNN feature graph against a brute-force cosine ranking.
- `trace_check`: per-epoch losses against the traces recorded when the
  benchmark was defined (`reference_traces.json`).
- `finite_check`: every loss of a run is finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_traces.json"

# Losses may differ from the recorded ones by float reassociation (a new
# sparse kernel, a fused loss), never by more than this.
TRACE_RTOL = 1e-6
TRACE_ATOL = 1e-9


def cosine_rank_keys(x: np.ndarray) -> np.ndarray:
    """N x N matrix ordering each row's candidates exactly as cosine does.

    For 0/1 features the key is overlap**2 / |x_j|**2, which ranks row i like
    cos(i, j) and is computed exactly (small integers, one rounding), so
    mathematically tied candidates get bitwise equal keys. Other features
    use the plain cosine.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.all((x == 0.0) | (x == 1.0)):
        import scipy.sparse as sp

        xs = sp.csr_array(x)
        overlap = (xs @ xs.T).toarray()
        key = overlap * overlap / x.sum(axis=1)[None, :]
    else:
        norms = np.sqrt((x * x).sum(axis=1))
        key = (x @ x.T) / np.outer(norms, norms)
    np.fill_diagonal(key, -np.inf)
    return key


def knn_check(x: np.ndarray, k: int, edges: np.ndarray):
    """Compare the program's kNN graph with the brute-force cosine kNN.

    The oracle takes each node's k best candidates, ties to the lower index,
    and symmetrizes by union. Returns (ok, tie_deviations, detail):

    - ok: every edge that differs from the oracle joins a node to a candidate
      tied (exactly) with its k-th best, every strictly better candidate is
      present, and every node keeps at least k neighbours from its top-k set;
    - tie_deviations: edges in exactly one of the two graphs, i.e. exact ties
      the program broke otherwise than by the lower-index rule.
    """
    n = x.shape[0]
    key = cosine_rank_keys(x)
    order = np.argsort(-key, axis=1, kind="stable")[:, :k]
    kth = key[np.arange(n), order[:, -1]]
    src = np.repeat(np.arange(n), k)
    oracle = {(min(i, j), max(i, j)) for i, j in zip(src.tolist(), order.ravel().tolist())}
    program = set(map(tuple, np.asarray(edges).tolist()))

    def tie(i, j):
        return key[i, j] == kth[i] or key[j, i] == kth[j]

    def forced(i, j):
        return key[i, j] > kth[i] or key[j, i] > kth[j]

    bad = [e for e in program - oracle if not tie(*e)]
    bad += [e for e in oracle - program if forced(*e) or not tie(*e)]
    top = key >= kth[:, None]
    nbrs = np.zeros((n, n), dtype=bool)
    if program:
        e = np.array(sorted(program))
        nbrs[e[:, 0], e[:, 1]] = nbrs[e[:, 1], e[:, 0]] = True
    short = np.flatnonzero((nbrs & top).sum(axis=1) < k)
    deviations = len(program ^ oracle)
    ok = not bad and short.size == 0
    detail = (f"{len(program)} edges, oracle {len(oracle)}, {deviations} tie deviations, "
              f"{len(bad)} wrong edges, {short.size} nodes short of k")
    return ok, deviations, detail


def loss_rows(trace) -> list[list[float]]:
    """[loss_total, loss_cl, loss_c, loss_d] per epoch of a RunTrace."""
    return [[r.loss_total, r.loss_cl, r.loss_c, r.loss_d] for r in trace.records]


def finite_check(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())["traces"]


def trace_check(rows, reference) -> tuple[bool, str]:
    """Per-epoch losses within TRACE_RTOL/TRACE_ATOL of the recorded trace."""
    got, want = np.asarray(rows, dtype=float), np.asarray(reference, dtype=float)
    if got.shape != want.shape:
        return False, f"trace shape {got.shape} != recorded {want.shape}"
    err = np.abs(got - want) - TRACE_RTOL * np.abs(want)
    worst = float(np.max(err)) if err.size else 0.0
    return worst <= TRACE_ATOL, f"worst excess over rtol {TRACE_RTOL:g}: {worst:.3e}"
