"""Experiment orchestration: config parsing, the method x diffusion-model
spread grid, and the timing harness."""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, replace

from . import centrality as ct
from . import diffusion
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


@dataclass
class PipelineConfig:
    edges: str
    features: str | None = None
    reverse_edges: bool = False
    methods: list[str] = field(default_factory=lambda: ["out_degree", "pine"])
    models: list[str] = field(default_factory=lambda: ["ltp"])
    seed_fraction: float = 0.1
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    damping: float = 0.85
    attenuation: float = 0.005
    tuning: float = 0.5
    node_budget: int = ct.GLOBAL_MEASURE_NODE_BUDGET
    score_layer: int = 0
    calibrate: str = "none"


def _names(raw: str) -> list[str]:
    return [m.strip() for m in raw.split(",") if m.strip()]


def _flag(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes", "on")


# Score calibrations by name, as (scores, graph) -> ScoreVector.
CALIBRATIONS = {"none": lambda scores, g: scores, "log-degree": calibrate_by_out_degree}


def _calibration(raw: str) -> str:
    if raw not in CALIBRATIONS:
        raise ValueError(f"choose from {tuple(CALIBRATIONS)}")
    return raw


# (section, key) -> (field, parser).  Keys of [train] set TrainConfig
# fields, keys of [diffusion] DiffusionConfig fields (_SECTION_CLASS), every
# other key a PipelineConfig field.
_KEYS = {
    ("graph", "edges"): ("edges", str),
    ("graph", "features"): ("features", str),
    ("graph", "reverse_edges"): ("reverse_edges", _flag),
    ("pipeline", "methods"): ("methods", _names),
    ("pipeline", "models"): ("models", _names),
    ("pipeline", "seed_fraction"): ("seed_fraction", float),
    ("diffusion", "runs"): ("num_runs", int),
    ("diffusion", "alpha1"): ("alpha1", float),
    ("diffusion", "alpha2"): ("alpha2", float),
    ("diffusion", "sir_beta"): ("sir_beta", float),
    ("diffusion", "sir_gamma"): ("sir_gamma", float),
    ("diffusion", "max_steps"): ("max_steps", int),
    ("diffusion", "seed"): ("rng_seed", int),
    ("train", "layers"): ("num_layers", int),
    ("train", "hidden"): ("hidden_size", int),
    ("train", "lr"): ("learning_rate", float),
    ("train", "max_epochs"): ("max_epochs", int),
    ("train", "patience"): ("patience", int),
    ("train", "seed"): ("rng_seed", int),
    ("centrality", "damping"): ("damping", float),
    ("centrality", "attenuation"): ("attenuation", float),
    ("centrality", "tuning"): ("tuning", float),
    ("centrality", "node_budget"): ("node_budget", int),
    ("score", "layer"): ("score_layer", int),
    ("score", "calibrate"): ("calibrate", _calibration),
}


_SECTION_CLASS = {"train": TrainConfig, "diffusion": DiffusionConfig}


def load_config(path) -> PipelineConfig:
    """Parse the flat sectioned key-value config; unknown sections or keys
    are errors so typos fail fast, and a value that does not parse, or that
    ``TrainConfig`` rejects, names its ``[section] key``.  Values that
    ``DiffusionConfig`` rejects name ``[diffusion]``.  A ``;`` after
    whitespace starts a comment, and an empty value means the default.  A
    file that is not valid INI or not UTF-8 fails at stage ``config`` too.
    A ``%`` is literal, and ``[DEFAULT]`` is an unknown section like any
    other: the default section's name is one no header can spell."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise PipelineError("config", f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise PipelineError("config", f"cannot read config file {path}")
    values: dict[type, dict[str, object]] = {PipelineConfig: {}, TrainConfig: {}, DiffusionConfig: {}}
    for section, items in sections.items():
        known = {key for sec, key in _KEYS if sec == section}
        if not known:
            raise PipelineError("config", f"unknown section [{section}]")
        unknown = set(items) - known
        if unknown:
            raise PipelineError("config", f"unknown key(s) in [{section}]: {sorted(unknown)}")
        target = _SECTION_CLASS.get(section, PipelineConfig)
        for key, raw in items.items():
            raw = raw.strip()
            if not raw:
                continue
            name, cast = _KEYS[section, key]
            try:
                value = cast(raw)
                if target is TrainConfig:
                    TrainConfig(**{name: value})  # its checks, named by key
            except ValueError as exc:
                raise PipelineError("config", f"[{section}] {key} = {raw!r}: {exc}") from exc
            values[target][name] = value
    if "edges" not in values[PipelineConfig]:
        raise PipelineError("config", "missing required [graph] edges entry")
    try:
        diffusion_config = DiffusionConfig(**values[DiffusionConfig])
    except ValueError as exc:
        raise PipelineError("config", f"[diffusion] {exc}") from exc
    config = PipelineConfig(
        **values[PipelineConfig], diffusion=diffusion_config, train=TrainConfig(**values[TrainConfig])
    )
    for m in config.methods:
        if m not in METHODS:
            raise PipelineError("config", f"unknown method {m!r}; choose from {tuple(METHODS)}")
    return config


def _load(config_path) -> tuple[PipelineConfig, AttributedGraph, int]:
    """The config, its graph and the seed count."""
    config = load_config(config_path)
    try:
        g = load_graph(config.edges, config.features, reverse_edges=config.reverse_edges)
    except Exception as exc:
        raise PipelineError("load", exc) from exc
    return config, g, int(config.seed_fraction * g.num_nodes)


def _split_and_train(g: AttributedGraph, config: TrainConfig):
    """The edge split and the GAT trained on it, from one seed."""
    split = split_edges(g, rng_seed=config.rng_seed)
    model, log = train(g, split, config)
    return split, model, log


def _pine(g: AttributedGraph, config: PipelineConfig, _seed_count: int) -> ScoreVector:
    _split, model, _log = _split_and_train(g, config.train)
    return CALIBRATIONS[config.calibrate](score_graph(g, model, config.score_layer), g)


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
    d = config.diffusion
    return [
        f"# nodes={g.num_nodes} edges={g.num_edges} feature_dim={g.feature_dim}",
        f"# seed_fraction={config.seed_fraction} seed_count={seed_count}",
        f"# diffusion: runs={d.num_runs} alpha1={d.alpha1} alpha2={d.alpha2} "
        f"sir_beta={'auto' if d.sir_beta is None else d.sir_beta} "
        f"sir_gamma={d.sir_gamma} max_steps={d.max_steps} rng_seed={d.rng_seed}",
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
    config, g, seed_count = _load(config_path)
    lines = _report_header(g, config, seed_count)
    lines.append("method\tmodel\tmean_spread\tstd_spread\truns\tseeds")
    # LT+/IC+ weights and SIR's automatic beta do not depend on the seeds:
    # each is computed once, on first use inside its model's stage, so an
    # error still names that stage.
    weights = None
    sir_beta = config.diffusion.sir_beta
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
                dconf = replace(config.diffusion, model=model_name, sir_beta=sir_beta, weights=weights)
                if model_name == "sir" and sir_beta is None:
                    sir_beta = dconf.sir_beta = diffusion.critical_sir_beta(g)
                elif model_name != "sir" and weights is None:
                    # through the module attribute, so a wrapper set on it runs
                    weights = dconf.weights = diffusion.compute_influence_weights(g, dconf.alpha1, dconf.alpha2)
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
    config, g, seed_count = _load(config_path)
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
