"""Command-line surface.

Subcommands: train, eval, homophily, knn-graph, inject, sweep, synth, gradcheck.
Exit codes: 0 success, 1 usage error or failed gradcheck, 2 data error or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import DatasetError
from .graphs import homophily_ratio, knn_feature_graph
from .heterophily import (
    MAX_SWEEP_LEVEL,
    SWEEP_LEVELS,
    SynthSpec,
    generate_synthetic,
    heterophily_sweep,
    inject_heterophilous_edges,
    make_sweep_plan,
    required_edges,
)
from .training import (evaluate, full_objective, make_split, model_gradient_check, train,
                       train_baseline)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("must be comma-separated integers") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="fusegcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a model; writes metrics.json, trace.csv, params.npz")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="config file with `key = value` lines")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--model", choices=["full", "gcn", "knn-gcn"], default="full")

    p = sub.add_parser("eval", help="evaluate saved parameters on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True, help="params.npz from a train run")
    p.add_argument("--config", help="config used for training (the kNN `k` and the split)")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("homophily", help="print the homophily and heterophily of a dataset")
    p.add_argument("--data", required=True)

    p = sub.add_parser("knn-graph", help="build and save the kNN feature graph")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inject", help="add cross-label edges up to a target heterophily")
    p.add_argument("--data", required=True)
    p.add_argument("--target-het", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="retrain across increasing heterophily; writes sweep.csv")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--levels", type=int, default=SWEEP_LEVELS)
    p.add_argument("--max-het", type=float, default=MAX_SWEEP_LEVEL)

    p = sub.add_parser("synth", help="generate a synthetic block-model dataset")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--class-sizes", type=_int_list,
                   help="comma-separated sizes (default near-equal)")
    p.add_argument("--p-in", type=float, default=0.05)
    p.add_argument("--p-out", type=float, default=0.005)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--sep", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model gradient")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _load_config(path, seed_override=None):
    _check_seed(seed_override)
    return dataio.config_to_train_config(dataio.parse_config(path) if path else {},
                                         seed_override)


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = Path(args.out)
    g = dataio.load_dataset(args.data)
    if g.labels is None:
        raise DatasetError("training requires a labeled dataset")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.model == "full":
        params, trace = train(g, knn_feature_graph(g.features, cfg.knn_k), cfg)
    else:
        prop = None if args.model == "gcn" else knn_feature_graph(g.features, cfg.knn_k)
        params, trace = train_baseline(g, cfg, graph_for_propagation=prop)
    dataio.save_params(params, out_dir / "params.npz")
    dataio.emit_trace(trace, out_dir / "trace.csv")
    dataio.emit_metrics(trace, out_dir / "metrics.json")
    print(f"accuracy={trace.final_accuracy:.6f} macro_f1={trace.final_macro_f1:.6f} "
          f"best_epoch={trace.best_epoch}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.seed)
    g = dataio.load_dataset(args.data)
    if g.labels is None:
        raise DatasetError("evaluation requires a labeled dataset")
    params = dataio.load_params(args.params, g.features.shape[1], g.n_classes)
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    split = make_split(g, cfg)
    value = full_objective(g, g_f, cfg, split.train)(params)
    out = {}
    for name, nodes in (("train", split.train), ("val", split.val), ("test", split.test),
                        ("all", np.arange(g.n_nodes))):
        acc, f1 = evaluate(value.logits.value, g.labels, nodes)
        out[f"{name}_accuracy"] = acc
        out[f"{name}_macro_f1"] = f1
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_homophily(args) -> int:
    g = dataio.load_dataset(args.data)
    h = homophily_ratio(g)
    print(f"homophily\t{h:.6f}")
    print(f"heterophily\t{1.0 - h:.6f}")
    return 0


def _cmd_knn_graph(args) -> int:
    g = dataio.load_dataset(args.data)
    dataio.save_dataset(knn_feature_graph(g.features, args.k), args.out)
    print(f"saved kNN feature graph (k={args.k}) to {args.out}")
    return 0


def _cmd_inject(args) -> int:
    _check_seed(args.seed)
    g = dataio.load_dataset(args.data)
    k = required_edges(g, args.target_het)
    g2 = inject_heterophilous_edges(g, k, args.seed)
    dataio.save_dataset(g2, args.out)
    print(f"added {k} cross-label edges; heterophily "
          f"{1 - homophily_ratio(g):.6f} -> {1 - homophily_ratio(g2):.6f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    g = dataio.load_dataset(args.data)
    if g.labels is None:
        raise DatasetError("the sweep requires a labeled dataset")
    g_f = knn_feature_graph(g.features, cfg.knn_k)
    plan = make_sweep_plan(g, seed=cfg.seed, n_levels=args.levels, max_level=args.max_het)
    rows = heterophily_sweep(g, g_f, plan, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8") as f:
        f.write("heterophily,accuracy,macro_f1\n")
        for level, acc, f1 in rows:
            f.write(f"{level:.6f},{acc:.6f},{f1:.6f}\n")
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(args.nodes, args.classes, class_sizes=args.class_sizes,
                     p_intra=args.p_in, p_inter=args.p_out, n_features=args.dim,
                     mean_separation=args.sep, noise_scale=args.noise, seed=args.seed)
    g = generate_synthetic(spec)
    dataio.save_dataset(g, args.out)
    het = f", homophily {homophily_ratio(g):.4f}" if g.n_edges else ""  # undefined without edges
    print(f"saved synthetic dataset ({g.n_nodes} nodes, {g.n_edges} edges{het}) to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    _check_seed(args.seed)
    report = model_gradient_check(n=args.nodes, d=args.dim, c=args.classes,
                                  hidden=args.hidden, seed=args.seed, eps=args.eps,
                                  tolerance=args.tolerance)
    print(report)
    return 0 if report.passed else 1


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "homophily": _cmd_homophily,
    "knn-graph": _cmd_knn_graph,
    "inject": _cmd_inject,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
}


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (DatasetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
