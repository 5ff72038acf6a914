"""Compare two result sets of the benchmark, a parent commit and a change.

    python3 benchmark/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records, as run.py writes them to
benchmark/_results/ (copy that directory out of each checkout).  For every
workload and end-to-end metric of BENCHMARK.json it prints the median and
quartiles of both sides and a verdict after choosing-metrics section 8:

- win: the change is better in at least 9 of 10 seed-paired runs (ties
  count for neither side) and the medians differ by more than the parent's
  interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's spread is wider than the bound, unless every
  change run is better than every parent run;
- same: none of these.

Per-layer metrics from traced records are listed side by side, with no
verdict: they have no bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from the records of a directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        values = {k: m["value"] for k, m in rec["metrics"].items()}
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = values
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p, c = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    paired = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for a, b in paired if sign * (b - a) > 0)
    if paired and wins >= 0.9 * len(paired) and abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return f"win ({wins}/{len(paired)} pairs)"
    if sign * (cm - pm) < -bound * abs(pm):
        return "regression"
    if pm and (p3 - p1) / abs(pm) > bound and not min(sign * x for x in c) > max(sign * x for x in p):
        return "unresolved (parent spread exceeds the bound)"
    return "same (within bound)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    for workload in [w["name"] for w in spec["workloads"]]:
        print(workload)
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs, c_runs = parent.get((workload, trace), {}), change.get((workload, trace), {})
            if not p_runs or not c_runs:
                print(f"  trace {trace}: no runs on one side (parent {len(p_runs)}, change {len(c_runs)})")
                continue
            for m in metrics:
                name = m["name"]
                p = {s: v[name] for s, v in p_runs.items() if name in v}
                c = {s: v[name] for s, v in c_runs.items() if name in v}
                if not p or not c:
                    print(f"  {name:32s} missing on one side")
                    continue
                pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
                line = (f"  {name:32s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] n={len(p)}  "
                        f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] n={len(c)} {m['unit']}")
                if "bound" in m:
                    line += "  " + verdict(p, c, m["better"], m["bound"])
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
