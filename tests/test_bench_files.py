"""scripts/bench_files.py folds benchmark run records into one file per workload."""

import importlib.util
import json
import subprocess
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


@pytest.fixture()
def checkout(tmp_path, monkeypatch):
    """A committed git repository with a source file, a benchmark, BENCHMARK.json and the
    run records of seeds 1 and 2, and the suite's subprocess.run spied: git runs, the suite
    is only recorded."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    results = tmp_path / "benchmark" / "_results"
    results.mkdir(parents=True)
    (tmp_path / "benchmark" / "suite.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / ".gitignore").write_text("/benchmark/_results/\n")
    for (_w, seed, trace), rec in records({1: 1.0, 2: 2.0}).items():
        (results / f"w-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True)
    monkeypatch.setattr(bench_files, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_files, "BENCH", str(tmp_path / "benchmark"))
    suite_calls, run = [], subprocess.run

    def spy(cmd, *args, **kwargs):
        if cmd[0] == "git":
            return run(cmd, *args, **kwargs)
        suite_calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_files.subprocess, "run", spy)
    return tmp_path, suite_calls


def test_clean_tree_is_benchmarked_and_the_written_files_do_not_count_as_edits(checkout):
    root, suite_calls = checkout
    assert bench_files.main(["--seeds", "1", "2"]) == 0
    assert [cmd[1:4] for cmd in suite_calls] == [[str(root / "benchmark" / "suite.py"), "--trace", t] for t in "01"]
    assert json.loads((root / "BENCH_w.json").read_text())["seeds"] == [1, 2]
    assert bench_files.main(["--seeds", "1", "2"]) == 0  # BENCH_w.json is new at the root
    assert len(suite_calls) == 4


@pytest.mark.parametrize(
    "edit, listed",
    [
        (lambda root: (root / "src" / "m.py").write_text("x = 2\n"), " M src/m.py"),
        (lambda root: (root / "src" / "new.py").write_text(""), "?? src/new.py"),
        (lambda root: (root / "benchmark" / "suite.py").unlink(), " D benchmark/suite.py"),
        (lambda root: (root / "BENCHMARK.json").write_text("{}"), " M BENCHMARK.json"),
    ],
    ids=["modified-source", "untracked-source", "deleted-benchmark", "modified-spec"],
)
def test_edited_tree_is_refused_before_anything_runs(checkout, capsys, edit, listed):
    # run records name the commit by git rev-parse HEAD alone, so a run from an edited
    # tree would be filed under the parent's hash
    root, suite_calls = checkout
    edit(root)
    assert bench_files.main(["--seeds", "1", "2"]) == 1
    assert suite_calls == [] and not (root / "BENCH_w.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: the records would name HEAD") and err.endswith(f"\n{listed}\n")
