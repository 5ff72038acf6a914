"""Output checks on a pipeline report, and an independent spread reference.

The reference estimates each report cell's spread by the live-edge
equivalence (Kempe, Kleinberg and Tardos, KDD 2003) instead of pine's
step-wise simulators:

- LT+: every node with in-edges keeps one in-edge, drawn by influence.
- IC+: every edge is live with probability equal to its influence.
- SIR: every node draws an infectious period T ~ Geom(gamma); each of its
  out-edges is open with probability 1 - (1 - beta)^T.

The spread is the share of nodes reachable from the seeds in the live
graph.  It agrees with pine in distribution, not run by run, so a change of
RNG stream passes and a wrong engine does not.  Influence weights and the
SIR rate are recomputed here from the generated arrays, not taken from pine.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

Z = 5.0  # standard errors allowed between pine and the reference
ALPHA1 = ALPHA2 = 0.5  # pine's default influence blend
SIR_GAMMA = 1.0  # pine's default recovery rate
COLUMNS = ["method", "model", "mean_spread", "std_spread", "runs", "seeds"]
REPORT_ROUNDING = 0.5e-6  # the report prints spreads with 6 decimals


class ReportError(ValueError):
    pass


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """Header fields and rows of a pipeline report."""
    lines = text.rstrip("\n").split("\n")
    header = {}
    for line in lines:
        if line.startswith("# nodes="):
            header = dict(kv.split("=", 1) for kv in line[2:].split())
    if not header:
        raise ReportError("no '# nodes=' header line")
    table = [line for line in lines if not line.startswith("#")]
    if not table or table[0].split("\t") != COLUMNS:
        raise ReportError(f"bad column line {table[:1]!r}")
    rows = []
    for line in table[1:]:
        cells = line.split("\t")
        if len(cells) != len(COLUMNS):
            raise ReportError(f"bad row {line!r}")
        row = dict(zip(COLUMNS, cells))
        for key in ("mean_spread", "std_spread"):
            row[key] = float(row[key])
        for key in ("runs", "seeds"):
            row[key] = int(row[key])
        rows.append(row)
    return {k: int(v) for k, v in header.items()}, rows


def influence_weights(src: np.ndarray, dst: np.ndarray, x: np.ndarray) -> np.ndarray:
    """alpha1 / in-degree(dst) + alpha2 * softmax over dst's in-edges of
    cosine(x[src], x[dst])."""
    n = x.shape[0]
    in_deg = np.bincount(dst, minlength=n)
    norms = np.linalg.norm(x, axis=1)
    unit = x / np.where(norms == 0.0, 1.0, norms)[:, None]
    cos = np.einsum("ij,ij->i", unit[src], unit[dst])
    seg_max = np.full(n, -np.inf)
    np.maximum.at(seg_max, dst, cos)
    e = np.exp(cos - seg_max[dst])
    semantic = e / np.bincount(dst, weights=e, minlength=n)[dst]
    return ALPHA1 / in_deg[dst] + ALPHA2 * semantic


def sir_beta(src: np.ndarray, dst: np.ndarray, n: int) -> float:
    """1.5 x <k>/(<k^2>-<k>) over undirected simple degrees, clipped to [0, 1]."""
    pairs = np.unique(np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1), axis=0)
    deg = np.bincount(pairs.ravel(), minlength=n).astype(np.float64)
    k, k2 = deg.mean(), (deg**2).mean()
    return 1.0 if k2 - k <= 0 else float(np.clip(1.5 * k / (k2 - k), 0.0, 1.0))


def _reached(n: int, runs: int, run_of_edge, live_src, live_dst, seeds) -> np.ndarray:
    """Nodes reached from the seeds in each of ``runs`` stacked live graphs,
    seeds included, through a super-source joined to every copy's seeds."""
    root = runs * n
    seed_ids = (np.arange(runs)[:, None] * n + np.asarray(seeds)[None, :]).ravel()
    rows = np.concatenate([run_of_edge * n + live_src, np.full(seed_ids.size, root)])
    cols = np.concatenate([run_of_edge * n + live_dst, seed_ids])
    adj = sparse.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(root + 1, root + 1))
    order = breadth_first_order(adj, root, directed=True, return_predecessors=False)
    return np.bincount(order[order != root] // n, minlength=runs)


class LiveEdgeReference:
    def __init__(self, src: np.ndarray, dst: np.ndarray, x: np.ndarray, seed: int):
        order = np.lexsort((src, dst))  # group in-edges by destination
        self.src, self.dst = src[order], dst[order]
        self.n = x.shape[0]
        self.weights = influence_weights(self.src, self.dst, x)
        self.beta = sir_beta(self.src, self.dst, self.n)
        self.rng = np.random.default_rng([seed, 2])
        in_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.dst, minlength=self.n))])
        self.has_in = np.nonzero(np.diff(in_ptr))[0]
        self.seg_lo, self.seg_hi = in_ptr[self.has_in], in_ptr[self.has_in + 1]
        self.cum = np.cumsum(self.weights)

    def _live(self, model: str, runs: int):
        m = self.src.size
        if model == "ltp":
            # one in-edge per node, drawn in proportion to the weights
            base = np.where(self.seg_lo > 0, self.cum[self.seg_lo - 1], 0.0)
            total = self.cum[self.seg_hi - 1] - base
            u = self.rng.random((runs, self.has_in.size))
            e = np.searchsorted(self.cum, base + u * total, side="right")
            e = np.clip(e, self.seg_lo, self.seg_hi - 1).ravel()
            return np.repeat(np.arange(runs), self.has_in.size), self.src[e], self.dst[e]
        if model == "icp":
            p = np.broadcast_to(self.weights, (runs, m))
        else:
            periods = self.rng.geometric(SIR_GAMMA, size=(runs, self.n))
            p = 1.0 - (1.0 - self.beta) ** periods[:, self.src]
        run, e = np.nonzero(self.rng.random((runs, m)) < p)
        return run, self.src[e], self.dst[e]

    def spreads(self, model: str, seeds, runs: int) -> np.ndarray:
        """``runs`` spread fractions, in batches of about two million edges."""
        batch = max(1, 2_000_000 // max(self.src.size, 1))
        out = []
        for start in range(0, runs, batch):
            r = min(batch, runs - start)
            out.append(_reached(self.n, r, *self._live(model, r), seeds))
        return np.concatenate(out) / self.n


def check_report(text: str, sizes: dict, methods: list[str], models: list[str]) -> list[dict]:
    """Rows of a report that passes the structural checks; ReportError otherwise."""
    header, rows = parse_report(text)
    if (header["nodes"], header["edges"]) != (sizes["nodes"], sizes["edges"]):
        raise ReportError(f"header nodes={header['nodes']} edges={header['edges']} but the generated "
                          f"graph has nodes={sizes['nodes']} edges={sizes['edges']}")
    cells = [(r["method"], r["model"]) for r in rows]
    expected = [(m, d) for m in methods for d in models]
    if cells != expected:
        raise ReportError(f"rows {cells} are not one per method x model {expected}")
    for r in rows:
        # the report rounds to 6 decimals, so a spread of exactly seeds/N
        # can print up to half a unit of the last place below it
        if not r["seeds"] / header["nodes"] - REPORT_ROUNDING <= r["mean_spread"] <= 1.0:
            raise ReportError(f"{r['method']}/{r['model']} mean_spread {r['mean_spread']} "
                              f"outside [seeds/N, 1]")
    return rows


def check_against_reference(rows: list[dict], seed_sets: list, reference: LiveEdgeReference,
                            ref_runs: int, cache: dict) -> None:
    """Each row's mean within Z standard errors of the live-edge estimate.
    The per-row standard error uses the larger of pine's and the
    reference's spread, so a two-run cell with a lucky small std_spread
    does not make the check fail; one node of slack covers rounding."""
    if len(seed_sets) != len(rows):
        raise ReportError(f"{len(seed_sets)} simulations recorded for {len(rows)} report rows")
    for row, seeds in zip(rows, seed_sets):
        key = (row["model"], tuple(seeds))
        if key not in cache:
            cache[key] = reference.spreads(row["model"], seeds, ref_runs)
        ref = cache[key]
        sigma = max(row["std_spread"], float(ref.std()))
        tol = Z * sigma * np.sqrt(1.0 / row["runs"] + 1.0 / ref.size) + 1.0 / reference.n
        if abs(row["mean_spread"] - ref.mean()) > tol:
            raise ReportError(f"{row['method']}/{row['model']} mean_spread {row['mean_spread']:.6f} differs "
                              f"from the live-edge reference {ref.mean():.6f} by more than {tol:.6f}")
