"""Spans around calls into pine's modules, recorded from outside the package.

The tracer replaces module attributes that the pipeline calls through with
wrappers that record one span per call: name, start, end, parent and a few
fields.  Spans stay in memory until the run ends.  The per-run Monte Carlo
simulators are deliberately not wrapped: at about a millisecond per run the
wrapper would swamp what it measures.

All wrapped calls happen on the main thread (the diffusion thread pool only
runs the unwrapped simulators), so one parent stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import time

CENTRALITY_METHODS = (
    "degree", "out_degree", "weighted_out_degree", "relative_out_degree",
    "pagerank", "katz", "closeness", "betweenness", "voterank",
)


def _diffusion_label(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return f"diffusion.{config.model}", {"runs": config.num_runs}


# (module, attribute path, span name or labeller).  A function reached
# through two module attributes is wrapped at both, under one span name.
TARGETS = [
    ("pine.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pine.pipeline", "load_graph", "graph.load_graph"),
    ("pine.graph", "load_graph", "graph.load_graph"),
    ("pine.graph", "largest_weak_component", "graph.largest_weak_component"),
    ("pine.graph", "build_graph", "graph.build_graph"),
    ("pine.split", "build_graph", "graph.build_graph"),
    ("pine.pipeline", "split_edges", "split.split_edges"),
    ("pine.split", "sample_negatives", "split.sample_negatives"),
    ("pine.train", "sample_negatives", "split.sample_negatives"),
    ("pine.pipeline", "train", "train.train"),
    ("pine.train", "Adam.step", "train.adam_step"),
    ("pine.train", "evaluate_auc", "train.evaluate_auc"),
    ("pine.gat", "forward", "gat.forward"),
    ("pine.gat", "loss_and_gradients", "gat.loss_and_gradients"),
    ("pine.pipeline", "score_graph", "pine_score.score_graph"),
    *[("pine.centrality", m, f"centrality.{m}") for m in CENTRALITY_METHODS],
    ("pine.pipeline", "influence_spread", _diffusion_label),
    ("pine.diffusion", "compute_influence_weights", "diffusion.influence_weights"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing_targets: list[str] = []
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        for module_name, path, label in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing_targets.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, label))
        return self

    def _wrap(self, original, label):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, fields = label(args, kwargs) if callable(label) else (label, {})
            index = len(spans)
            spans.append({"name": name, "start": time.perf_counter(), "end": None,
                          "parent": stack[-1] if stack else -1, **fields})
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index]["end"] = time.perf_counter()

        return traced


def with_self_times(spans: list[dict]) -> list[dict]:
    """Add ``duration`` and ``self`` (duration minus the time covered by
    child spans; children of one span never overlap) to every span."""
    out = [dict(s, duration=s["end"] - s["start"]) for s in spans]
    child_time = [0.0] * len(out)
    for s in out:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["duration"]
    for s, c in zip(out, child_time):
        s["self"] = s["duration"] - c
    return out
