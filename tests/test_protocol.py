"""The experiment protocol in `benchmarks/protocol.py`: its premise check and its report."""

import re

import numpy as np
import pytest

from benchmarks import protocol
from fusegcn.graphs import Graph


def labeled_graph(labels, pairs):
    labels = np.asarray(labels)
    return Graph.from_edges(len(labels), pairs, np.ones((len(labels), 1)), labels)


def cross_pairs(labels):
    """Every pair of nodes in different classes: heterophily 1, cross edges spread evenly."""
    n = len(labels)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]


def test_premise_too_few_classes():
    labels = np.repeat(np.arange(4), 2)
    with pytest.raises(ValueError, match=r"^4 classes: the heterophilous fixture needs >= 5$"):
        protocol.check_harsh_heterophily(labeled_graph(labels, cross_pairs(labels)))


def test_premise_low_heterophily():
    # the complete graph on five classes of four: 160 cross edges, 30 intra
    labels = np.repeat(np.arange(5), 4)
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    with pytest.raises(ValueError, match=r"^edge heterophily 0\.842 < 0\.85$"):
        protocol.check_harsh_heterophily(labeled_graph(labels, pairs))


def test_premise_missing_cross_edges():
    labels = np.arange(5)
    pairs = [p for p in cross_pairs(labels) if p != (1, 3)]
    with pytest.raises(ValueError, match=r"^class 1 has no cross edges into class 3$"):
        protocol.check_harsh_heterophily(labeled_graph(labels, pairs))


def test_premise_concentrated_cross_edges():
    # one edge between the first nodes of every two classes, then classes 0
    # and 1 joined completely: each sends 9 of its 12 cross edges to the other
    labels = np.repeat(np.arange(5), 3)
    firsts = [(3 * a, 3 * b) for a in range(5) for b in range(a + 1, 5)]
    pairs = firsts + [(i, j) for i in range(3) for j in range(3, 6)]
    with pytest.raises(ValueError, match=r"^class 0 sends 0\.75 of its cross edges to class 1 "
                                         r"\(> 0\.5\)$"):
        protocol.check_harsh_heterophily(labeled_graph(labels, pairs))


def test_report_prints_seed_median_and_attention_lines(monkeypatch, capsys):
    monkeypatch.setattr(protocol, "BENCH_SEEDS", (0,))
    protocol.main(["--which", "hom"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == f"=== homophilous: {protocol.homophilous_spec(0)} ==="
    seed = re.fullmatch(r"seed 0: heterophily=0\.\d{4} full=(\d\.\d{4}) gcn=(\d\.\d{4}) "
                        r"attnT=(\d+\.\d{4}) attnF=(\d+\.\d{4})", lines[1])
    assert seed, lines[1]
    full, gcn, attn_t, attn_f = seed.groups()
    assert lines[2] == f"medians: full={full} gcn={gcn}"
    t_wins = int(float(attn_t) > float(attn_f))
    assert re.fullmatch(rf"attn_T > attn_F in {t_wins}/1 seeds \[\d+s\]", lines[3]), lines[3]
    assert re.fullmatch(r"total: \d+\.\ds", lines[4]), lines[4]


@pytest.mark.parametrize("which", ["", "HOM", "all", "hom,het"])
def test_report_rejects_other_benchmark_names(which, capsys):
    with pytest.raises(SystemExit) as exc:
        protocol.main(["--which", which])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
