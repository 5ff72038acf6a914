"""Write one BENCH_<workload>.json per workload at the repository root.

    python3 scripts/bench_files.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 scripts/bench_files.py --seeds 1 2 3 4 5 6 7 8 9 10 --parent ../parent

Runs benchmark/suite.py over the seeds, untraced and then with --trace 1,
and folds the run records it leaves in benchmark/_results/ into the files.
Run from any directory of a checkout; the benchmark runs pine from its src/.

With ``--parent DIR``, a checkout of the parent commit, both checkouts are
run one seed at a time, alternating, the parent first on odd seeds, so that
each pair of runs is taken close together; each checkout gets its own
BENCH files, and benchmark/compare.py's verdicts over the two record sets
are printed.

Each file holds the environment and the seeds, the median and quartiles of
each end-to-end metric over the untraced runs (with each seed's value, so
that two files can be compared seed by seed), and from the traced runs each
layer's self time and share of the traced pipeline_s and every named
per-layer metric (train.epoch_ms, trace.overhead_s, ...), as median and
quartiles over the seeds.  Quartiles are benchmark/compare.py's.

A run record names the commit by ``git rev-parse HEAD`` alone, so the script
refuses to run while src/, benchmark/ or BENCHMARK.json differ from HEAD in
either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")
sys.path.insert(0, BENCH)

import compare  # noqa: E402

PEAK_RSS_NOTE = (
    "peak_rss_mb is the worker's ru_maxrss, which a child inherits across fork and exec, so it reads the "
    "high-water mark of the benchmark runner that started the worker, not pine's own: run in-process, the "
    "seed-7 pipelines peak at 108 (cora-spread), 154 (cora-train) and 188 MB (scale-500k) by VmHWM"
)


def stats(values: dict) -> dict:
    """Median and quartiles of ``{seed: value}``."""
    q1, median, q3 = compare.quartiles(list(values.values()))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def over_seeds(per_seed: dict[int, dict]) -> dict:
    """``{name: stats}`` from ``{seed: {name: value}}``; a name counts the seeds that have it."""
    names = sorted({name for values in per_seed.values() for name in values})
    return {name: stats({s: v[name] for s, v in per_seed.items() if name in v}) for name in names}


def fold(spec: dict, records: dict[tuple[str, int, int], dict], seeds: list[int]) -> dict[str, dict]:
    """``{workload: BENCH file content}`` from the run records ``{(workload, seed, trace): record}``."""
    out = {}
    for name in [w["name"] for w in spec["workloads"]]:
        plain = {s: records[name, s, 0] for s in seeds}
        traced = {s: records[name, s, 1] for s in seeds}
        for s, r in traced.items():
            if "layers" not in r:
                raise ValueError(f"{name} seed {s}: the traced run measured no layers: {r['errors']}")
        envs = {json.dumps(r["env"], sort_keys=True) for r in [*plain.values(), *traced.values()]}
        if len(envs) != 1:
            raise ValueError(f"{name}: the records come from {len(envs)} environments (commits or versions)")
        end_to_end = {}
        for m in spec["end_to_end"]:
            by_seed = {s: r["metrics"][m["name"]]["value"] for s, r in plain.items() if m["name"] in r["metrics"]}
            end_to_end[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                     **stats(by_seed), "by_seed": by_seed}
        layers = {s: {f"{layer}.{key}": value for layer, self_s, pct in r["layers"]["shares"]
                      for key, value in (("self_s", self_s), ("share_pct", pct))} for s, r in traced.items()}
        named = {s: {k: v for k, v in r["layers"]["named"].items() if v is not None} for s, r in traced.items()}
        out[name] = {
            "workload": name,
            "seeds": seeds,
            "run_seconds": plain[seeds[0]]["seconds"],
            "env": plain[seeds[0]]["env"],
            "end_to_end": end_to_end,
            "notes": {"peak_rss_mb": PEAK_RSS_NOTE},
            "layers": over_seeds(layers),
            "per_layer": over_seeds(named),
        }
    return out


def edited_files(root: str) -> list[str]:
    """``git status --porcelain`` lines of the files the benchmark runs or reads that differ from HEAD."""
    cmd = ["git", "status", "--porcelain", "--", "src", "benchmark", "BENCHMARK.json"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()


def run_suite(root: str, seeds: list[int], trace: int) -> int:
    cmd = [sys.executable, os.path.join(root, "benchmark", "suite.py"), "--trace", str(trace),
           "--seeds", *map(str, seeds)]
    return subprocess.run(cmd, cwd=root).returncode


def record_paths(root: str, spec: dict, seeds: list[int]) -> dict[tuple[str, int, int], str]:
    results = os.path.join(root, "benchmark", "_results")
    return {(w["name"], seed, trace): os.path.join(results, f"{w['name']}-seed{seed}-trace{trace}.json")
            for w in spec["workloads"] for seed in seeds for trace in (0, 1)}


def write_bench_files(root: str, seeds: list[int]) -> int:
    """Fold the checkout's run records of ``seeds`` into its BENCH files; 1 on a missing or unfit record."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    records = {}
    for key, path in record_paths(root, spec, seeds).items():
        if not os.path.isfile(path):
            print(f"error: no run record {path}", file=sys.stderr)
            return 1
        with open(path, encoding="utf-8") as fh:
            records[key] = json.load(fh)
    try:
        files = fold(spec, records, seeds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, content in files.items():
        path = os.path.join(root, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def compare_runs(parent: str, seeds: list[int]) -> None:
    """benchmark/compare.py over this run's records of ``seeds`` in the parent's checkout and in this one."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side, root in (("parent", parent), ("change", ROOT)):
            os.makedirs(os.path.join(tmp, side))
            for path in record_paths(root, spec, seeds).values():
                shutil.copy(path, os.path.join(tmp, side))
            sides.append(os.path.join(tmp, side))
        compare.main(sides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", metavar="DIR", help="a checkout of the parent commit, run seed by seed beside this one")
    args = parser.parse_args(argv)
    seeds = sorted(set(args.seeds))
    roots = [ROOT] if args.parent is None else [os.path.abspath(args.parent), ROOT]
    for root in roots:
        edited = edited_files(root)
        if edited:
            print(f"error: the records would name HEAD, but these files of {root} differ from it; commit or stash them:",
                  *edited, sep="\n", file=sys.stderr)
            return 1
    status = 0
    for trace in (0, 1):
        if len(roots) == 1:
            status |= run_suite(ROOT, seeds, trace)
            continue
        for seed in seeds:  # the parent first on odd seeds
            for root in roots if seed % 2 else roots[::-1]:
                status |= run_suite(root, [seed], trace)
    for root in roots:
        if write_bench_files(root, seeds):
            return 1
    if len(roots) == 2:
        compare_runs(roots[0], seeds)
    return status


if __name__ == "__main__":
    sys.exit(main())
