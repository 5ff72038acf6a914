"""Experiment orchestration: config parsing, the method x diffusion-model
spread grid, and the timing harness."""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field

from . import centrality as ct
from .diffusion import DiffusionConfig, influence_spread, worker_count
from .graph import AttributedGraph, load_graph
from .pine_score import calibrate_by_out_degree, score_graph
from .scores import ScoreVector
from .split import split_edges
from .train import TrainConfig, evaluate_auc, train


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception | str):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


_KNOWN_KEYS = {
    "graph": {"edges", "features", "reverse_edges"},
    "pipeline": {"methods", "models", "seed_fraction"},
    "diffusion": {"runs", "alpha1", "alpha2", "sir_beta", "sir_gamma", "max_steps", "seed"},
    "train": {"layers", "hidden", "lr", "max_epochs", "patience", "seed"},
    "centrality": {"damping", "attenuation", "tuning", "node_budget"},
    "score": {"layer", "calibrate"},
}

@dataclass
class PipelineConfig:
    edges: str
    features: str | None = None
    reverse_edges: bool = False
    methods: list[str] = field(default_factory=lambda: ["out_degree", "pine"])
    models: list[str] = field(default_factory=lambda: ["ltp"])
    seed_fraction: float = 0.1
    runs: int = 1000
    alpha1: float = 0.5
    alpha2: float = 0.5
    sir_beta: float | None = None
    sir_gamma: float = 1.0
    max_steps: int | None = None
    diffusion_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    damping: float = 0.85
    attenuation: float = 0.005
    tuning: float = 0.5
    node_budget: int = ct.GLOBAL_MEASURE_NODE_BUDGET
    score_layer: int = 0
    calibrate: str = "none"


def load_config(path) -> PipelineConfig:
    """Parse the flat sectioned key-value config; unknown sections or keys
    are errors so typos fail fast."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise PipelineError("config", f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise PipelineError("config", f"unknown section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise PipelineError("config", f"unknown key(s) in [{section}]: {sorted(unknown)}")
    if "graph" not in parser or "edges" not in parser["graph"]:
        raise PipelineError("config", "missing required [graph] edges entry")

    g = parser["graph"]
    p = parser["pipeline"] if "pipeline" in parser else {}
    d = parser["diffusion"] if "diffusion" in parser else {}
    t = parser["train"] if "train" in parser else {}
    c = parser["centrality"] if "centrality" in parser else {}
    s = parser["score"] if "score" in parser else {}

    def get(section, key, cast, default):
        if key in section:
            raw = section[key]
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        return default

    config = PipelineConfig(
        edges=g["edges"],
        features=g.get("features"),
        reverse_edges=get(g, "reverse_edges", bool, False),
        methods=[m.strip() for m in p.get("methods", "out_degree,pine").split(",") if m.strip()],
        models=[m.strip() for m in p.get("models", "ltp").split(",") if m.strip()],
        seed_fraction=get(p, "seed_fraction", float, 0.1),
        runs=get(d, "runs", int, 1000),
        alpha1=get(d, "alpha1", float, 0.5),
        alpha2=get(d, "alpha2", float, 0.5),
        sir_beta=get(d, "sir_beta", float, None),
        sir_gamma=get(d, "sir_gamma", float, 1.0),
        max_steps=get(d, "max_steps", int, None),
        diffusion_seed=get(d, "seed", int, 0),
        train=TrainConfig(
            learning_rate=get(t, "lr", float, 5e-4),
            hidden_size=get(t, "hidden", int, 512),
            num_layers=get(t, "layers", int, 1),
            max_epochs=get(t, "max_epochs", int, 500),
            patience=get(t, "patience", int, 20),
            rng_seed=get(t, "seed", int, 0),
        ),
        damping=get(c, "damping", float, 0.85),
        attenuation=get(c, "attenuation", float, 0.005),
        tuning=get(c, "tuning", float, 0.5),
        node_budget=get(c, "node_budget", int, ct.GLOBAL_MEASURE_NODE_BUDGET),
        score_layer=get(s, "layer", int, 0),
        calibrate=get(s, "calibrate", str, "none"),
    )
    for m in config.methods:
        if m not in METHODS:
            raise PipelineError("config", f"unknown method {m!r}; choose from {tuple(METHODS)}")
    return config


def _split_and_train(g: AttributedGraph, config: TrainConfig):
    """The edge split and the GAT trained on it, from one seed."""
    split = split_edges(g, rng_seed=config.rng_seed)
    model, log = train(g, split, config)
    return split, model, log


def _pine(g: AttributedGraph, config: PipelineConfig, _seed_count: int) -> ScoreVector:
    _split, model, _log = _split_and_train(g, config.train)
    scores = score_graph(g, model, config.score_layer)
    if config.calibrate == "log-degree":
        scores = calibrate_by_out_degree(scores, g)
    return scores


# Every scoring method, as (graph, config, seed_count) -> ScoreVector.  The
# entries look functions up on their modules when called, so a wrapper set
# on a module attribute (as the benchmark's tracer does) is the one that runs.
METHODS = {
    "degree": lambda g, c, k: ct.degree(g),
    "out_degree": lambda g, c, k: ct.out_degree(g),
    "weighted_out_degree": lambda g, c, k: ct.weighted_out_degree(g),
    "relative_out_degree": lambda g, c, k: ct.relative_out_degree(g, c.tuning),
    "pagerank": lambda g, c, k: ct.pagerank(g, damping=c.damping),
    "katz": lambda g, c, k: ct.katz(g, attenuation=c.attenuation),
    "closeness": lambda g, c, k: ct.closeness(g),
    "betweenness": lambda g, c, k: ct.betweenness(g),
    "voterank": lambda g, c, k: ct.voterank(g, k)[1],
    "pine": _pine,
}


def compute_method_scores(g: AttributedGraph, method: str, config: PipelineConfig, seed_count: int) -> ScoreVector:
    """Scores of one method; VoteRank elects ``seed_count`` nodes.  Exact
    closeness and betweenness are refused above ``config.node_budget``."""
    if method not in METHODS:
        raise PipelineError("scoring", f"unknown method {method!r}")
    if method in ("closeness", "betweenness") and g.num_nodes > config.node_budget:
        raise PipelineError(
            method, f"exact {method} refused above {config.node_budget} nodes (N={g.num_nodes})"
        )
    return METHODS[method](g, config, seed_count)


def _report_header(g: AttributedGraph, config: PipelineConfig, seed_count: int) -> list[str]:
    return [
        f"# nodes={g.num_nodes} edges={g.num_edges} feature_dim={g.feature_dim}",
        f"# seed_fraction={config.seed_fraction} seed_count={seed_count}",
        f"# diffusion: runs={config.runs} alpha1={config.alpha1} alpha2={config.alpha2} "
        f"sir_beta={'auto' if config.sir_beta is None else config.sir_beta} "
        f"sir_gamma={config.sir_gamma} max_steps={config.max_steps} rng_seed={config.diffusion_seed}",
        f"# train: layers={config.train.num_layers} hidden={config.train.hidden_size} "
        f"lr={config.train.learning_rate} patience={config.train.patience} "
        f"max_epochs={config.train.max_epochs} rng_seed={config.train.rng_seed}",
        f"# centrality: damping={config.damping} attenuation={config.attenuation} tuning={config.tuning}",
        f"# score: layer={config.score_layer} calibrate={config.calibrate}",
    ]


def run_pipeline(config_path) -> str:
    """Score every configured method, pick top seeds, and simulate every
    configured diffusion model; returns the tabular report.  Fails whole on
    any stage error (no partial reports)."""
    config = load_config(config_path)
    try:
        g = load_graph(config.edges, config.features, reverse_edges=config.reverse_edges)
    except Exception as exc:
        raise PipelineError("load", exc) from exc

    seed_count = int(config.seed_fraction * g.num_nodes)
    lines = _report_header(g, config, seed_count)
    lines.append("method\tmodel\tmean_spread\tstd_spread\truns\tseeds")
    for method in config.methods:
        try:
            scores = compute_method_scores(g, method, config, seed_count)
            seeds = scores.top_fraction(config.seed_fraction)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(method, exc) from exc
        for model_name in config.models:
            try:
                dconf = DiffusionConfig(
                    model=model_name,
                    alpha1=config.alpha1,
                    alpha2=config.alpha2,
                    sir_beta=config.sir_beta,
                    sir_gamma=config.sir_gamma,
                    max_steps=config.max_steps,
                    num_runs=config.runs,
                    rng_seed=config.diffusion_seed,
                )
                result = influence_spread(g, dconf, seeds)
            except Exception as exc:
                raise PipelineError(f"simulate:{model_name}", exc) from exc
            lines.append(
                f"{method}\t{model_name}\t{result.mean_spread:.6f}\t{result.std_spread:.6f}"
                f"\t{result.runs}\t{seeds.size}"
            )
    return "\n".join(lines) + "\n"


def benchmark(config_path) -> str:
    """Wall-clock per scoring method; the attention pipeline reports its
    training and scoring stages separately."""
    config = load_config(config_path)
    try:
        g = load_graph(config.edges, config.features, reverse_edges=config.reverse_edges)
    except Exception as exc:
        raise PipelineError("load", exc) from exc
    seed_count = int(config.seed_fraction * g.num_nodes)
    lines = [f"# nodes={g.num_nodes} edges={g.num_edges} workers={worker_count()}", "method\tseconds"]
    for method in config.methods:
        if method == "pine":
            t0 = time.perf_counter()
            _split, model, _log = _split_and_train(g, config.train)
            t1 = time.perf_counter()
            score_graph(g, model, config.score_layer)
            t2 = time.perf_counter()
            lines.append(f"pine_train\t{t1 - t0:.6f}")
            lines.append(f"pine_score\t{t2 - t1:.6f}")
        else:
            t0 = time.perf_counter()
            compute_method_scores(g, method, config, seed_count)
            lines.append(f"{method}\t{time.perf_counter() - t0:.6f}")
    return "\n".join(lines) + "\n"


def train_and_test_auc(g: AttributedGraph, config: TrainConfig):
    """Convenience wrapper: split, train, report test ROC AUC."""
    split, model, log = _split_and_train(g, config)
    auc = evaluate_auc(model, split.message_graph(g), split.test_pos, split.test_neg)
    return model, log, auc
