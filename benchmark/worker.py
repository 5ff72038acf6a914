"""One measured operation in a fresh interpreter.

run.py starts this with the checkout's ``src`` on PYTHONPATH:

    python3 benchmark/worker.py setup EDGES FEATURES REPEATS OUT.json [--trace]
    python3 benchmark/worker.py pipeline CONFIG OUT.json [--trace]
    python3 benchmark/worker.py import OUT.json

Each writes one JSON object to OUT.json.  Timers start after the imports.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def setup(edges: str, features: str, repeats: int, traced: bool) -> dict:
    import pine.graph as graph

    tracer = Tracer().install() if traced else None
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        g = graph.load_graph(edges, features)
        core = graph.largest_weak_component(g)
        times.append(time.perf_counter() - t0)
    return {
        "setup_s": times,
        "nodes": g.num_nodes,
        "edges": g.num_edges,
        "component_nodes": core.num_nodes,
        "component_edges": core.num_edges,
        "spans": tracer.spans if tracer else None,
        "missing_targets": tracer.missing_targets if tracer else None,
    }


def pipeline(config: str, traced: bool) -> dict:
    import numpy as np

    import pine.pipeline as pp
    from pine.diffusion import worker_count

    # The seed sets are not in the report; keep them for the reference
    # check.  This costs one Python call per method x model cell.
    seed_sets = []
    simulate = pp.influence_spread

    def recording(g, dconf, seeds):
        seed_sets.append(np.asarray(seeds, dtype=np.int64).tolist())
        return simulate(g, dconf, seeds)

    pp.influence_spread = recording
    tracer = Tracer().install() if traced else None
    t0 = time.perf_counter()
    report = pp.run_pipeline(config)
    elapsed = time.perf_counter() - t0
    return {
        "pipeline_s": elapsed,
        "peak_rss_mb": _peak_rss_mb(),
        "report": report,
        "seed_sets": seed_sets,
        "workers": worker_count(),
        "spans": tracer.spans if tracer else None,
        "missing_targets": tracer.missing_targets if tracer else None,
    }


def import_cli() -> dict:
    t0 = time.perf_counter()
    import pine.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    traced = "--trace" in argv
    args = [a for a in argv if a != "--trace"]
    mode, out = args[0], args[-1]
    if mode == "setup":
        result = setup(args[1], args[2], int(args[3]), traced)
    elif mode == "pipeline":
        result = pipeline(args[1], traced)
    elif mode == "import":
        result = import_cli()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
