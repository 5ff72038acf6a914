"""Command-line interface: `pine <subcommand>`."""

from __future__ import annotations

import argparse
import sys

from . import __version__, gat, metrics
from .diffusion import MODELS, DiffusionConfig, influence_spread
from .graph import largest_weak_component, load_graph, write_int_rows
from .pine_score import TOP_K_TYPES, heterogeneous_pine, score_graph, select_edge_types
from .pipeline import (
    CALIBRATIONS,
    METHODS,
    PipelineConfig,
    PipelineError,
    benchmark,
    compute_method_scores,
    load_config,
    run_pipeline,
    train_and_test_auc,
)
from .scores import ScoreVector, read_score_rows, read_score_tsv
from .split import split_edges
from .train import TrainConfig


def _add_graph_args(p):
    p.add_argument("--graph", required=True, help="edge list file (src dst [type])")
    p.add_argument("--features", default=None, help="feature file (CSV or PINEF1 binary)")
    p.add_argument("--reverse-edges", action="store_true", help="flip edge orientation at load")


def _add_train_args(p):
    p.add_argument("--layers", type=int, default=TrainConfig.num_layers)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed)


def _train_config(args, **fields) -> TrainConfig:
    return TrainConfig(
        num_layers=args.layers, hidden_size=args.hidden, learning_rate=args.lr, rng_seed=args.seed, **fields
    )


def _load(args):
    return load_graph(args.graph, args.features, reverse_edges=args.reverse_edges)


def _read_seeds(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [int(line.strip()) for line in fh if line.strip() and not line.startswith("#")]


def _emit_scores(scores: ScoreVector, out_path):
    if out_path:
        scores.write_tsv(out_path)
    else:
        sys.stdout.writelines(scores.tsv_lines())


def cmd_centrality(args):
    g = _load(args)
    config = PipelineConfig(
        edges=args.graph,
        damping=args.damping,
        attenuation=args.attenuation,
        tuning=args.tuning,
        node_budget=args.node_budget,
    )
    k = args.k if args.k is not None else min(g.num_nodes, max(1, int(0.1 * g.num_nodes)))
    _emit_scores(compute_method_scores(g, args.method, config, k), args.out)


def cmd_train(args):
    g = _load(args)
    config = _train_config(args, max_epochs=args.max_epochs, patience=args.patience)
    model, log, auc = train_and_test_auc(g, config)
    gat.save_model(model, args.out)
    print(f"best_epoch\t{log.best_epoch}")
    print(f"val_auc\t{log.best_val_auc:.6f}")
    print(f"test_auc\t{auc:.6f}")


def cmd_score(args):
    g = _load(args)
    if args.labels:
        labels = list(read_score_rows(args.labels, g.num_nodes).items())
        sel = select_edge_types(
            g, labels, top_k_types=args.top_types, config=_train_config(args), layer_index=args.layer
        )
        scores = heterogeneous_pine(g, sel.selected, sel.models, layer_index=args.layer)
    else:
        model = gat.load_model(args.model)
        scores = score_graph(g, model, args.layer)
    _emit_scores(CALIBRATIONS[args.calibrate](scores, g), args.out)


def cmd_simulate(args):
    g = _load(args)
    seeds = _read_seeds(args.seeds)
    config = DiffusionConfig(
        model=args.model,
        alpha1=args.alpha1,
        alpha2=1.0 - args.alpha1,
        sir_beta=args.beta,
        sir_gamma=args.gamma,
        max_steps=args.max_steps,
        num_runs=args.runs,
        rng_seed=args.seed,
    )
    result = influence_spread(g, config, seeds)
    print("mean_spread\tstd_spread\truns")
    print(f"{result.mean_spread:.6f}\t{result.std_spread:.6f}\t{result.runs}")
    if args.per_run:
        for count in result.activated_counts:
            print(count)


def cmd_evaluate(args):
    truth = read_score_tsv(args.truth)
    predicted = read_score_tsv(args.scores, num_nodes=truth.size)
    for name in args.metrics.split(","):
        name = name.strip()
        if name == "spearman":
            value = metrics.spearman(predicted, truth)
        elif name.startswith("ndcg@"):
            value = metrics.ndcg_at_k(predicted, truth, int(name.split("@")[1]))
        elif name.startswith("precision@"):
            value = metrics.precision_at_k(predicted, truth, int(name.split("@")[1]))
        else:
            raise ValueError(f"unknown metric {name!r}")
        print(f"{name}\t{value:.6f}")


def cmd_pipeline(args):
    report = run_pipeline(args.config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def cmd_bench(args):
    sys.stdout.write(benchmark(args.config))


def cmd_split(args):
    g = _load(args)
    split = split_edges(g, rng_seed=args.seed)
    parts = {
        "message": split.message_edges,
        "supervision_pos": split.supervision_pos,
        "val_pos": split.val_pos,
        "test_pos": split.test_pos,
        "val_neg": split.val_neg,
        "test_neg": split.test_neg,
    }
    for name, pairs in parts.items():
        path = f"{args.out_prefix}.{name}.txt"
        write_int_rows(path, pairs)
        print(f"{name}\t{len(pairs)}\t{path}")


def cmd_component(args):
    g = _load(args)
    sub = largest_weak_component(g)
    sub.write_edge_list(args.out)
    if args.id_map:
        sub.write_id_map(args.id_map)
    print(f"nodes\t{sub.num_nodes}")
    print(f"edges\t{sub.num_edges}")


def build_parser():
    parser = argparse.ArgumentParser(prog="pine", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="classical importance measures")
    _add_graph_args(p)
    p.add_argument("--method", required=True, choices=[m for m in METHODS if m != "pine"])
    p.add_argument("--out", default=None)
    p.add_argument("--damping", type=float, default=PipelineConfig.damping)
    p.add_argument("--attenuation", type=float, default=PipelineConfig.attenuation)
    p.add_argument("--tuning", type=float, default=PipelineConfig.tuning)
    p.add_argument("--k", type=int, default=None, help="voterank election count")
    p.add_argument("--node-budget", type=int, default=PipelineConfig.node_budget)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("train", help="train the attention model on link prediction")
    _add_graph_args(p)
    _add_train_args(p)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="attention-based importance scores")
    _add_graph_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", default=None, help="trained model file")
    source.add_argument("--labels", default=None, help="validation labels TSV for edge-typed graphs")
    p.add_argument("--layer", type=int, default=PipelineConfig.score_layer)
    p.add_argument("--calibrate", choices=CALIBRATIONS, default=PipelineConfig.calibrate)
    p.add_argument("--out", default=None)
    p.add_argument("--top-types", type=int, default=TOP_K_TYPES)
    _add_train_args(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("simulate", help="Monte Carlo influence spread")
    _add_graph_args(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--seeds", required=True, help="seed file, one node id per line")
    p.add_argument("--runs", type=int, default=DiffusionConfig.num_runs)
    p.add_argument("--alpha1", type=float, default=DiffusionConfig.alpha1)
    p.add_argument("--beta", type=float, default=DiffusionConfig.sir_beta)
    p.add_argument("--gamma", type=float, default=DiffusionConfig.sir_gamma)
    p.add_argument("--max-steps", type=int, default=DiffusionConfig.max_steps)
    p.add_argument("--seed", type=int, default=DiffusionConfig.rng_seed)
    p.add_argument("--per-run", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="ranking metrics against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--metrics", default="ndcg@100,spearman,precision@100")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="full experiment from a config file")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("bench", help="timing harness")
    p.add_argument("config")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("split", help="write a train/val/test edge split")
    _add_graph_args(p)
    p.add_argument("--seed", type=int, default=TrainConfig.rng_seed, help="pine train splits at this seed")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("component", help="largest weakly connected component")
    _add_graph_args(p)
    p.add_argument("--out", required=True, help="edge list output")
    p.add_argument("--id-map", default=None, help="two-column TSV of dense -> original ids")
    p.set_defaults(func=cmd_component)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any stage failure maps to a nonzero exit
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
