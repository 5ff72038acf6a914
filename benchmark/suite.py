"""Run every workload, one run per seed, and summarise the metrics.

    python3 benchmark/suite.py                  # every workload, seed 1, untraced
    python3 benchmark/suite.py --seeds 1 2 3 --trace 1

Each run is ``run.py`` with the run length from BENCHMARK.json; its full
record lands in benchmark/_results/, which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    summary: dict[str, dict[str, list]] = {}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            per = summary.setdefault(workload, {})
            per.setdefault("error_rate", []).append((result["failed"] / result["attempted"], "fraction"))
            for name, m in result["metrics"].items():
                per.setdefault(name, []).append((m["value"], m["unit"]))

    print(f"\nsummary: median over seeds {args.seeds}")
    for workload, metrics in summary.items():
        print(workload)
        for name, values in metrics.items():
            print(f"  {name:32s} {statistics.median(v for v, _ in values):12.6g} {values[0][1]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
