"""Per-layer metrics and the layer-share table from a traced run's spans.

A layer is a pine module; a span's layer is the part of its name before
the first dot.  Layer self time is the sum of its spans' self times, so the
layer self times of one pipeline run add up to its ``pipeline_s``.
"""

from __future__ import annotations

import statistics

from tracer import with_self_times

LAYERS = ("graph", "split", "gat", "train", "pine_score", "centrality", "diffusion", "pipeline")
PINE_LAYERS = ("split", "gat", "train", "pine_score")

def _tail(values: list[float]):
    """Highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[int(len(ordered) * p / 100)]
    return None


def _median(spans, key="duration", scale=1.0):
    values = [s[key] for s in spans]
    return statistics.median(values) * scale if values else None


def _epochs_ms(spans: list[dict]) -> list[float]:
    """An epoch runs from one sample_negatives call inside train.train to
    the next; the last one ends with train.train's last child."""
    out = []
    for i, t in enumerate(spans):
        if t["name"] != "train.train":
            continue
        children = [s for s in spans if s["parent"] == i]
        starts = [s["start"] for s in children if s["name"] == "split.sample_negatives"]
        if children:
            bounds = starts + [max(s["end"] for s in children)]
            out += [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    return out


def analyse(workload, setup_spans: list[dict], pipeline_spans: list[dict], workers: int) -> dict:
    setup, pipe = with_self_times(setup_spans), with_self_times(pipeline_spans)
    by_name: dict[str, list[dict]] = {}
    for s in pipe:
        by_name.setdefault(s["name"], []).append(s)
    named_setup = lambda n: [s for s in setup if s["name"] == n]  # noqa: E731
    get = lambda n: by_name.get(n, [])  # noqa: E731

    root = get("pipeline.run_pipeline")
    pipeline_s = root[0]["duration"] if root else sum(s["self"] for s in pipe)
    layer_self = {}
    for s in pipe:
        layer = s["name"].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s["self"]
    methods, models = workload.methods, workload.models
    expected = [layer for layer in LAYERS if "pine" in methods or layer not in PINE_LAYERS]

    epochs = _epochs_ms(pipe)
    named = {
        "graph.load_graph_s": _median(named_setup("graph.load_graph")),
        "graph.largest_weak_component_s": _median(named_setup("graph.largest_weak_component")),
        "graph.build_graph_ms": _median(named_setup("graph.build_graph") + get("graph.build_graph"), scale=1e3),
        "split.split_edges_s": _median(get("split.split_edges")),
        "split.sample_negatives_ms": _median(get("split.sample_negatives"), scale=1e3),
        "split.sample_negatives_calls": len(get("split.sample_negatives")),
        "gat.forward_ms": _median(get("gat.forward"), scale=1e3),
        "gat.forward_calls": len(get("gat.forward")),
        "gat.loss_and_gradients_self_ms": _median(get("gat.loss_and_gradients"), "self", 1e3),
        "train.epoch_ms": statistics.median(epochs) if epochs else None,
        "train.epochs": len(epochs),
        "train.adam_step_ms": _median(get("train.adam_step"), scale=1e3),
        "train.evaluate_auc_self_ms": _median(get("train.evaluate_auc"), "self", 1e3),
        "pine_score.score_graph_ms": _median(get("pine_score.score_graph"), scale=1e3),
        **{f"centrality.{m}_ms": _median(get(f"centrality.{m}"), scale=1e3) for m in methods if m != "pine"},
        "centrality.self_ms": sum(s["self"] for s in pipe if s["name"].startswith("centrality.")) * 1e3,
        "diffusion.influence_weights_ms": _median(get("diffusion.influence_weights"), scale=1e3),
        **{f"diffusion.{m}_ms_per_run": (sum(s["self"] for s in get(f"diffusion.{m}")) * 1e3
                                         / sum(s["runs"] for s in get(f"diffusion.{m}"))
                                         if get(f"diffusion.{m}") else None) for m in models},
        "diffusion.workers": workers,
        "pipeline.self_ms": root[0]["self"] * 1e3 if root else None,
    }
    named = {k: v for k, v in named.items() if k.split(".", 1)[0] in expected}
    spans_table = []
    for name, group in sorted(by_name.items()) + [(f"setup:{n}", named_setup(n)) for n in
                                                     sorted({s["name"] for s in setup})]:
        durations = [s["duration"] * 1e3 for s in group]
        spans_table.append({"span": name, "calls": len(group), "median_ms": statistics.median(durations),
                            "tail": _tail(durations), "self_s": sum(s["self"] for s in group)})
    setup_total = sum(s["self"] for s in setup) or 1.0
    return {
        "pipeline_s": pipeline_s,
        "shares": sorted(((layer, t, 100.0 * t / pipeline_s) for layer, t in layer_self.items()),
                         key=lambda row: -row[1]),
        "missing_layers": [layer for layer in expected if layer not in layer_self],
        "setup_shares": sorted(((name, sum(s["self"] for s in named_setup(name)) / setup_total * 100.0)
                                for name in {s["name"] for s in setup}), key=lambda row: -row[1]),
        "named": named,
        "spans": spans_table,
    }


def json_metrics(analysis: dict, per_layer: list[dict]) -> dict:
    """The per-layer metrics of BENCHMARK.json that this run measured.

    Only metrics defined on every workload are listed there, so that no
    time reads a constant 0 on a workload where its layer never runs; the
    per-call times of such layers are in the printed tables and the run
    record.  Counts and shares are 0 where nothing ran.  A listed time whose
    span never fired is left out, and the caller reports it as a failure.
    """
    named = dict(analysis["named"])
    for layer, _self_s, pct in analysis["shares"]:
        named[f"{layer}.share_pct"] = pct
    out = {}
    for m in per_layer:
        value = named.get(m["name"])
        if value is None and m["unit"] in ("count", "%"):
            value = 0
        if value is not None:
            out[m["name"]] = (value, m["unit"])
    return out


def describe(record: dict) -> str:
    """Human-readable summary of a run record."""
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}",
             "  input: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in record["sizes"].items()),
             "  env: " + " ".join(f"{k}={v}" for k, v in record["env"].items())
             + f" pine_workers={record.get('workers', '?')}"]
    for name, m in record["metrics"].items():
        samples = record.get("samples", {}).get(name)
        extra = f"   median of {len(samples)}: " + " ".join(f"{v:.4g}" for v in samples) if samples else ""
        lines.append(f"  {name:32s} {m['value']:12.6g} {m['unit']}{extra}")
    lines.append(f"  error_rate {record['failed']}/{record['attempted']} operations failed")
    lines += [f"  FAILED: {e}" for e in record["errors"]]
    layers = record.get("layers")
    if layers:
        lines.append(f"  tracing overhead: traced pipeline_s {record['traced_pipeline_s']:.4f} s - mean untraced "
                     f"{record['untraced_pipeline_s']:.4f} s = {layers['named']['trace.overhead_s']:+.4f} s")
        lines.append(f"  layer self time as a share of traced pipeline_s = {layers['pipeline_s']:.4f} s:")
        lines += [f"    {layer:12s} {t:10.4f} s {pct:6.1f} %" for layer, t, pct in layers["shares"]]
        lines += [f"    {layer:12s}    missing (no span fired)" for layer in layers["missing_layers"]]
        lines.append("  setup self time by span: " + ", ".join(f"{n} {p:.1f} %" for n, p in layers["setup_shares"]))
        lines.append("  named per-layer metrics:")
        lines += [f"    {k:34s} {'missing' if v is None else format(v, '.6g')}" for k, v in layers["named"].items()]
        lines.append("  spans: name, calls, median ms, tail percentile ms, self s")
        for s in layers["spans"]:
            tail = f"p{s['tail'][0]:g}={s['tail'][1]:.4g}" if s["tail"] else "-"
            lines.append(f"    {s['span']:38s} {s['calls']:6d} {s['median_ms']:12.4f} {tail:>16s} {s['self_s']:10.4f}")
        if record.get("missing_targets"):
            lines.append("  wrappers not installed (attribute gone): " + ", ".join(record["missing_targets"]))
    return "\n".join(lines)
