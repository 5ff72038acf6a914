"""Run one workload of the pine benchmark and print its metrics.

    python3 benchmark/run.py --workload cora-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's input files are generated
from the seed (untimed), and every measured operation runs in a fresh
interpreter with the checkout's ``src`` on its path, one at a time: a
closed loop with one client, the way a researcher runs ``pine pipeline``.

With ``--trace 0`` the run times a set-up and ``run_pipeline`` untraced,
again and again until ``--seconds`` have passed (at least twice), and
prints the end-to-end metrics.  With ``--trace 1`` it makes one untraced
and one traced pipeline run and prints the per-layer metrics, the
layer-share table and the tracing overhead.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
A full record of the run is written to benchmark/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402

RUN_BUDGET_S = 170  # every run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PIPELINES = 2  # two reports, to check that they are byte-identical
REFERENCE_EDGE_DRAWS = 20_000_000  # reference runs per cell = this / edges, within [20, 400]


class Operations:
    """Counts measured operations and those that failed; an operation is
    one set-up, pipeline run or import, and fails if it raises or fails a
    check."""

    def __init__(self, work: str, deadline: float):
        self.work, self.deadline = work, deadline
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, *args: str):
        self.attempted += 1
        out = os.path.join(self.work, f"op{self.attempted}.json")
        env = dict(os.environ)
        env.pop("PINE_THREADS", None)  # the program's default configuration
        env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        try:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args, out],
                cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        except subprocess.CalledProcessError as exc:
            tail = exc.stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
            self.fail(f"{args[0]}: exit {exc.returncode}: {tail[0]}")
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.fail(f"{args[0]}: {exc}")
        return None

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def failed(self) -> int:
        return len(self.errors)


def environment() -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        git_hash = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        git_hash = "unknown (git not available)"
    return {
        "git": git_hash,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "pine_threads_env": "removed for the runs" if "PINE_THREADS" in os.environ else "unset",
    }


def check_setup(result: dict, sizes: dict) -> str | None:
    if (result["nodes"], result["edges"]) != (sizes["nodes"], sizes["edges"]):
        return (f"setup loaded nodes={result['nodes']} edges={result['edges']}, "
                f"generated nodes={sizes['nodes']} edges={sizes['edges']}")
    if not 0 < result["component_nodes"] <= result["nodes"]:
        return f"largest component has {result['component_nodes']} nodes"
    return None


class ReportChecker:
    """Checks every report of a run: structure, byte-identity with the
    run's first report, and agreement with the live-edge reference."""

    def __init__(self, workload, generated, seed: int):
        self.workload, self.sizes = workload, generated.sizes
        self.reference = reference.LiveEdgeReference(generated.src, generated.dst, generated.x, seed)
        self.ref_runs = min(400, max(20, REFERENCE_EDGE_DRAWS // max(generated.src.size, 1)))
        self.cache: dict = {}
        self.first_report: str | None = None
        self.rows: list[dict] = []

    def check(self, result: dict) -> str | None:
        try:
            rows = reference.check_report(result["report"], self.sizes, self.workload.methods,
                                          self.workload.models)
            if self.first_report is None:
                self.first_report, self.rows = result["report"], rows
            elif result["report"] != self.first_report:
                return "report differs from the first report of this run"
            reference.check_against_reference(rows, result["seed_sets"], self.reference, self.ref_runs, self.cache)
        except (reference.ReportError, KeyError, ValueError) as exc:
            return f"report check: {exc}"
        return None

    def seed_spread(self) -> float:
        for r in self.rows:
            if (r["method"], r["model"]) == (self.workload.headline, "ltp"):
                return r["mean_spread"]
        return 0.0


def measure_pipeline(ops: Operations, checker: ReportChecker, config: str, traced: bool = False):
    result = ops.run("pipeline", config, *(["--trace"] if traced else []))
    if result is not None:
        error = checker.check(result)
        if error:
            ops.fail(error)
    return result


def measure_setup(ops: Operations, workload, generated, record: dict, traced: bool = False):
    setup = ops.run("setup", generated.edges, generated.features, str(workload.setup_repeats),
                    *(["--trace"] if traced else []))
    if setup is not None:
        error = check_setup(setup, generated.sizes)
        if error:
            ops.fail(error)
        record["sizes"].update(component_nodes=setup["component_nodes"], component_edges=setup["component_edges"])
    return setup


def untraced_run(workload, generated, ops, checker, seconds: float, record: dict) -> dict:
    setup_s, results = [], []
    start = time.monotonic()
    while len(results) < MIN_PIPELINES or time.monotonic() - start < seconds:
        longest = max((r["pipeline_s"] for r in results), default=0.0)
        if results and ops.deadline - time.monotonic() < 2 * longest + 10:
            break  # no time left for another run within the budget
        # A set-up before every pipeline run spreads the set-up samples over
        # the whole run, so that one slow moment of the machine does not
        # decide setup_s.
        setup = measure_setup(ops, workload, generated, record)
        if setup is not None:
            setup_s += setup["setup_s"]
        result = measure_pipeline(ops, checker, generated.config)
        if result is None:
            break
        results.append(result)
        record["workers"] = result["workers"]
    record["samples"] = {
        "pipeline_s": [r["pipeline_s"] for r in results],
        "setup_s": setup_s,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    med = {k: statistics.median(v) if v else 0.0 for k, v in record["samples"].items()}
    return {
        "pipeline_s": (med["pipeline_s"], "s"),
        "setup_s": (med["setup_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "seed_spread": (checker.seed_spread(), "fraction"),
        "success_rate": ((ops.attempted - ops.failed) / max(ops.attempted, 1), "fraction"),
    }


def traced_run(workload, generated, ops, checker, record: dict) -> dict:
    setup = measure_setup(ops, workload, generated, record, traced=True)
    # untraced runs on both sides of the traced one, so that drift in
    # machine speed does not read as tracing overhead
    plain = [measure_pipeline(ops, checker, generated.config)]
    traced = measure_pipeline(ops, checker, generated.config, traced=True)
    plain.append(measure_pipeline(ops, checker, generated.config))
    imports = []
    for i in range(4):  # the first import also compiles bytecode; it is not counted
        result = ops.run("import")
        if result is not None and i > 0:
            imports.append(result["import_s"])
    if setup is None or traced is None or None in plain:
        return {}
    untraced_s = statistics.mean(r["pipeline_s"] for r in plain)
    record["workers"] = traced["workers"]
    record["missing_targets"] = sorted(set(setup["missing_targets"]) | set(traced["missing_targets"]))
    analysis = layers.analyse(workload, setup["spans"], traced["spans"], traced["workers"])
    analysis["named"]["cli.import_s"] = statistics.median(imports) if imports else None
    analysis["named"]["trace.overhead_s"] = traced["pipeline_s"] - untraced_s
    record["layers"] = analysis
    record["untraced_pipeline_s"], record["traced_pipeline_s"] = untraced_s, traced["pipeline_s"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = layers.json_metrics(analysis, per_layer)
    for m in per_layer:
        if m["name"] not in metrics:
            ops.fail(f"per-layer metric {m['name']} missing: its span never fired")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pine", "pipeline.py")):
        print(f"error: no pine sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work", f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    try:
        generated = write_workload(workload, args.seed, work)
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": environment(), "sizes": generated.sizes}
        ops = Operations(work, deadline)
        checker = ReportChecker(workload, generated, args.seed)
        if args.trace:
            metrics = traced_run(workload, generated, ops, checker, record)
        else:
            metrics = untraced_run(workload, generated, ops, checker, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(layers.describe(record))
    results = os.path.join(HERE, "_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ops.failed == 0 and bool(metrics), "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
