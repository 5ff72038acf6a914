"""scripts/bench_files.py folds benchmark run records into one file per workload."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_files.py"
spec = importlib.util.spec_from_file_location("bench_files", SCRIPT)
bench_files = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_files)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "seed_spread", "unit": "fraction", "better": "higher", "bound": 0.15}],
}
ENV = {"git": "abc", "numpy": "2.4"}


def record(seed, trace, pipeline_s, env=ENV, epoch_ms=None):
    rec = {"workload": "w", "seed": seed, "trace": trace, "seconds": 25, "env": dict(env), "errors": [],
           "metrics": {"pipeline_s": {"value": pipeline_s, "unit": "s"},
                       "seed_spread": {"value": 0.5, "unit": "fraction"}}}
    if trace:
        rec.update(layers={
            "shares": [["gat", 0.75 * pipeline_s, 75.0], ["graph", 0.25 * pipeline_s, 25.0]],
            "named": {"train.epoch_ms": epoch_ms, "trace.overhead_s": seed / 10, "gat.forward_ms": None},
        })
    return rec


def records(times, **kwargs):
    return {("w", s, t): record(s, t, x, **kwargs) for s, x in times.items() for t in (0, 1)}


def test_fold_gives_median_quartiles_and_each_seed():
    times = {1: 1.0, 2: 3.0, 3: 2.0, 4: 5.0, 5: 4.0}
    out = bench_files.fold(SPEC, records(times, epoch_ms=7.0), sorted(times))["w"]
    assert out["seeds"] == [1, 2, 3, 4, 5] and out["env"] == ENV and out["run_seconds"] == 25
    pipeline = out["end_to_end"]["pipeline_s"]
    assert (pipeline["median"], pipeline["q1"], pipeline["q3"], pipeline["n"]) == (3.0, 1.5, 4.5, 5)
    assert pipeline["by_seed"] == times and pipeline["better"] == "lower" and pipeline["bound"] == 0.25
    assert out["end_to_end"]["seed_spread"]["median"] == 0.5
    assert out["layers"]["gat.share_pct"]["median"] == 75.0 and out["layers"]["graph.self_s"]["median"] == 0.75
    assert out["per_layer"]["trace.overhead_s"]["median"] == pytest.approx(0.3)
    assert out["per_layer"]["train.epoch_ms"]["median"] == 7.0
    assert "gat.forward_ms" not in out["per_layer"]  # a layer that never ran has no value
    assert "ru_maxrss" in out["notes"]["peak_rss_mb"]


def test_records_of_two_commits_are_not_folded_together():
    recs = records({1: 1.0, 2: 2.0})
    recs["w", 2, 1] = record(2, 1, 2.0, env={**ENV, "git": "def"})
    with pytest.raises(ValueError, match="^w: the records come from 2 environments"):
        bench_files.fold(SPEC, recs, [1, 2])


def test_traced_run_without_layers_is_named():
    recs = records({1: 1.0, 2: 2.0})
    del recs["w", 2, 1]["layers"]
    recs["w", 2, 1]["errors"] = ["import failed"]
    with pytest.raises(ValueError, match=r"^w seed 2: the traced run measured no layers: \['import failed'\]"):
        bench_files.fold(SPEC, recs, [1, 2])
