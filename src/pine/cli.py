"""Command-line interface: `pine <subcommand>`."""

from __future__ import annotations

import argparse
import sys

from . import __version__, gat, metrics
from .diffusion import MODELS, influence_spread
from .graph import largest_weak_component, load_graph, write_int_rows
from .pine_score import TOP_K_TYPES, score_graph, select_edge_types
from .pipeline import (
    _KEYS,
    _SECTION_CLASS,
    CALIBRATIONS,
    METHODS,
    PipelineConfig,
    PipelineError,
    benchmark,
    compute_method_scores,
    run_pipeline,
    train_and_test_auc,
)
from .scores import ScoreVector, node_rows, read_score_rows, read_score_tsv
from .split import split_edges


def _add_graph_args(p):
    p.add_argument("--graph", required=True, help="edge list file (src dst [type])")
    p.add_argument("--features", default=None, help="feature file (CSV or PINEF1 binary)")
    p.add_argument("--reverse-edges", action="store_true", help="flip edge orientation at load")


def _flag_type(parse):
    """``parse`` as an argparse type: argparse's ``invalid <parser> value: '<raw>'``, then the rule's own words."""

    def convert(raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {raw!r}: {exc}") from exc

    return convert


def _add_key_flags(p, section, keys, help=None, **renamed):
    """One flag per ``[section] key`` of the config key table: ``--key``
    (underscores as dashes) unless ``renamed`` names another flag, with the
    key's parser as type, its config class's default and the field as dest.
    ``_config`` builds the class of the last call from its fields alone."""
    cls = _SECTION_CLASS.get(section, PipelineConfig)
    for key in keys:
        name, cast = _KEYS[section, key]
        flag = renamed.get(key, key)
        option = "--" + flag.replace("_", "-")
        p.add_argument(
            option, type=_flag_type(cast), default=getattr(cls, name), dest=name, metavar=flag.upper(), help=help
        )
    p.set_defaults(config_fields=(cls, [_KEYS[section, key][0] for key in keys]))


def _config(args, **fields):
    """The config class of the subcommand's key flags, built from the fields
    those flags set; ``fields`` gives any other field it needs."""
    cls, names = args.config_fields
    return cls(**{name: getattr(args, name) for name in names}, **fields)


def _load(args):
    return load_graph(args.graph, args.features, reverse_edges=args.reverse_edges)


def _emit_scores(scores: ScoreVector, out_path):
    if out_path:
        scores.write_tsv(out_path)
    else:
        sys.stdout.writelines(scores.tsv_lines())


def cmd_centrality(args):
    g = _load(args)
    config = _config(args, edges=args.graph)
    k = args.k if args.k is not None else min(g.num_nodes, max(1, int(config.seed_fraction * g.num_nodes)))
    _emit_scores(compute_method_scores(g, args.method, config, k), args.out)


def cmd_train(args):
    g = _load(args)
    model, log, auc = train_and_test_auc(g, _config(args))
    gat.save_model(model, args.out)
    print(f"best_epoch\t{log.best_epoch}")
    print(f"val_auc\t{log.best_val_auc:.6f}")
    print(f"test_auc\t{auc:.6f}")


def cmd_score(args):
    g, layer = _load(args), args.score_layer
    if args.labels:
        labels = list(read_score_rows(args.labels, g.num_nodes).items())
        scores = select_edge_types(g, labels, top_k_types=args.top_types, config=_config(args), layer_index=layer).scores
    else:
        scores = score_graph(g, gat.load_model(args.model), layer)
    _emit_scores(CALIBRATIONS[args.calibrate](scores, g), args.out)


def cmd_simulate(args):
    g = _load(args)
    seeds = [node for _lineno, node, _value in node_rows(args.seeds, g.num_nodes, 1)]
    result = influence_spread(g, _config(args, model=args.model, alpha2=1.0 - args.alpha1), seeds)
    print("mean_spread\tstd_spread\truns")
    print(f"{result.mean_spread:.6f}\t{result.std_spread:.6f}\t{result.runs}")
    if args.per_run:
        for count in result.activated_counts:
            print(count)


def _metric(spec):
    """The metric a ``--metrics`` entry names, as (predicted, truth) -> value:
    ``spearman``, ``ndcg@K`` or ``precision@K`` with integer K >= 1."""
    if spec == "spearman":
        return metrics.spearman
    name, _at, k = spec.partition("@")
    at_k = {"ndcg": metrics.ndcg_at_k, "precision": metrics.precision_at_k}.get(name)
    k = int(k) if k.isdecimal() else 0
    if at_k is None or k < 1:
        raise ValueError(f"bad metric {spec!r}: use spearman, ndcg@K or precision@K with integer K >= 1")
    return lambda predicted, truth: at_k(predicted, truth, k)


def cmd_evaluate(args):
    specs = [spec.strip() for spec in args.metrics.split(",")]
    chosen = [_metric(spec) for spec in specs]
    # a value per row of the longer file, so that no id sizes a vector beyond the rows given
    num_nodes = max(len(read_score_rows(path)) for path in (args.scores, args.truth))
    predicted, truth = (read_score_tsv(path, num_nodes) for path in (args.scores, args.truth))
    sys.stdout.writelines([f"{spec}\t{metric(predicted, truth):.6f}\n" for spec, metric in zip(specs, chosen)])


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
    seed = _config(args).rng_seed
    split = split_edges(_load(args), rng_seed=seed)
    for field, pairs in vars(split).items():  # the EdgeSplit fields, in order
        name = field.removesuffix("_edges")
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
    _add_key_flags(p, "centrality", ["damping", "attenuation", "tuning", "node_budget"])
    p.add_argument("--k", type=int, default=None, help="voterank election count")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("train", help="train the attention model on link prediction")
    _add_graph_args(p)
    _add_key_flags(p, "train", ["layers", "hidden", "lr", "seed", "max_epochs", "patience"])
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="attention-based importance scores")
    _add_graph_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", default=None, help="trained model file")
    source.add_argument("--labels", default=None, help="validation labels TSV for edge-typed graphs")
    p.add_argument("--out", default=None)
    p.add_argument("--top-types", type=int, default=TOP_K_TYPES)
    _add_key_flags(p, "score", ["layer"])
    _add_key_flags(p, "score", ["calibrate"], help=f"one of {', '.join(CALIBRATIONS)}")
    _add_key_flags(p, "train", ["layers", "hidden", "lr", "seed"])
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("simulate", help="Monte Carlo influence spread")
    _add_graph_args(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--seeds", required=True, help="seed file, one node id per line; # starts a comment")
    keys = ["runs", "alpha1", "sir_beta", "sir_gamma", "max_steps", "seed"]
    _add_key_flags(p, "diffusion", keys, sir_beta="beta", sir_gamma="gamma")
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
    _add_key_flags(p, "train", ["seed"], help="pine train splits at this seed")
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
