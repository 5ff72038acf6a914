"""scripts/bench_files.py folds benchmark run records into one file per workload."""

import importlib.util
import json
import os
import re
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
    "per_layer": [{"name": "train.epoch_ms", "unit": "ms", "better": "lower"}],
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
    assert "ru_maxrss" in out["notes"]["peak_rss_mb"] and "forks" in out["notes"]["peak_rss_mb"]
    assert not re.search(r"\d\s*MB", out["notes"]["peak_rss_mb"])  # no in-process peak that goes stale


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


def make_checkout(root, times):
    """A committed git repository at ``root`` with a source file, a benchmark, BENCHMARK.json
    and the run records of the seeds of ``times``."""
    (root / "src").mkdir(parents=True)
    (root / "src" / "m.py").write_text("x = 1\n")
    results = root / "benchmark" / "_results"
    results.mkdir(parents=True)
    (root / "benchmark" / "suite.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (root / ".gitignore").write_text("/benchmark/_results/\n")
    for (_w, seed, trace), rec in records(times, env={**ENV, "git": str(root)}).items():
        (results / f"w-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root, check=True)


@pytest.fixture()
def checkout(tmp_path, monkeypatch):
    """A checkout with the run records of seeds 1 and 2 (``make_checkout``), and the suite's
    subprocess.run spied: git runs, the suite is only recorded, and must run in its checkout."""
    make_checkout(tmp_path, {1: 1.0, 2: 2.0})
    monkeypatch.setattr(bench_files, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_files, "BENCH", str(tmp_path / "benchmark"))
    monkeypatch.setattr(bench_files.compare, "ROOT", str(tmp_path))
    suite_calls, run = [], subprocess.run

    def spy(cmd, *args, **kwargs):
        if cmd[0] == "git":
            return run(cmd, *args, **kwargs)
        assert cmd[1] == os.path.join(kwargs["cwd"], "benchmark", "suite.py")
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


@pytest.fixture()
def parent_checkout(checkout, tmp_path_factory):
    """A second checkout, of the parent, whose runs were slower than the change's."""
    parent = tmp_path_factory.mktemp("parent")
    make_checkout(parent, {1: 2.0, 2: 2.1})
    return parent


def test_parent_and_change_alternate_seed_by_seed(checkout, parent_checkout, capsys):
    root, suite_calls = checkout
    assert bench_files.main(["--seeds", "2", "1", "--parent", str(parent_checkout)]) == 0
    parent, change = str(parent_checkout), str(root)
    # the parent first on odd seeds, the change first on even ones, one seed per suite run
    order = [(parent, "1"), (change, "1"), (change, "2"), (parent, "2")]
    expected = [[os.path.join(d, "benchmark", "suite.py"), "--trace", t, "--seeds", s] for t in "01" for d, s in order]
    assert [cmd[1:] for cmd in suite_calls] == expected
    for side, times in ((parent_checkout, {"1": 2.0, "2": 2.1}), (root, {"1": 1.0, "2": 2.0})):
        bench = json.loads((side / "BENCH_w.json").read_text())
        assert bench["env"]["git"] == str(side) and bench["end_to_end"]["pipeline_s"]["by_seed"] == times
    out = capsys.readouterr().out
    assert "\nw\n" in out and "pipeline_s" in out and "win (2/2 pairs)" in out  # compare.py's verdict


def test_edited_parent_is_refused_before_anything_runs(checkout, parent_checkout, capsys):
    root, suite_calls = checkout
    (parent_checkout / "src" / "m.py").write_text("x = 3\n")
    assert bench_files.main(["--seeds", "1", "2", "--parent", str(parent_checkout)]) == 1
    assert suite_calls == [] and not (root / "BENCH_w.json").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: the records would name HEAD, but these files of {parent_checkout} differ")
    assert err.endswith("\n M src/m.py\n")
