import dataclasses
import importlib.util
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pine.cli as cli
import pine.pipeline as pp
from pine import diffusion, gat, graph, pine_score
from pine.cli import main
from pine.diffusion import DiffusionConfig, influence_spread
from pine.graph import MAGIC_FEATURES, EmptyGraphError, build_graph, load_graph
from pine.metrics import ndcg_at_k
from pine.pine_score import TOP_K_TYPES, calibrate_by_out_degree, score_graph
from pine.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineError,
    benchmark,
    compute_method_scores,
    load_config,
    run_pipeline,
)
from pine.scores import ScoreFileError, ScoreVector, node_rows, read_score_rows, read_score_tsv
from pine.split import split_edges
from pine.train import TrainConfig

from conftest import planted_heterogeneous_graph, random_graph


@pytest.fixture()
def graph_files(tmp_path, rng):
    g = random_graph(50, 0.08, rng, d=6)
    edges = tmp_path / "edges.txt"
    feats = tmp_path / "feats.csv"
    g.write_edge_list(edges)
    np.savetxt(feats, g.features, delimiter=",")
    return g, str(edges), str(feats)


def write_config(tmp_path, edges, feats, extra="", name="conf.ini"):
    path = tmp_path / name
    path.write_text(
        "[graph]\n"
        f"edges = {edges}\n"
        f"features = {feats}\n"
        "[pipeline]\n"
        "methods = out_degree, pagerank, pine\n"
        "models = ltp, icp, sir\n"
        "seed_fraction = 0.1\n"
        "[diffusion]\n"
        "runs = 50\n"
        "seed = 3\n"
        "[train]\n"
        "hidden = 8\n"
        "max_epochs = 15\n"
        "patience = 5\n"
        "lr = 0.01\n"
        + extra
    )
    return str(path)


class TestConfig:
    def test_defaults_applied(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        path = tmp_path / "minimal.ini"
        path.write_text(f"[graph]\nedges = {edges}\n")
        config = load_config(path)
        assert config.methods == ["out_degree", "pine"]
        assert config.models == ["ltp"]
        assert config.diffusion.num_runs == 1000
        assert config.seed_fraction == 0.1
        assert config.train.hidden_size == 512

    def test_unknown_section_rejected(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[surprise]\nx = 1\n")
        with pytest.raises(PipelineError, match=r"\[config\].*surprise"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[diffusion]\nrnus = 10\n")
        with pytest.raises(PipelineError, match="rnus"):
            load_config(path)

    def test_unknown_method_rejected(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[pipeline]\nmethods = eigenvector\n")
        with pytest.raises(PipelineError, match="eigenvector"):
            load_config(path)

    def test_voterank_k_rejected(self, tmp_path, graph_files):
        # VoteRank elects the pipeline's seed count; the key was never read
        _g, edges, feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[centrality]\nvoterank_k = 5\n")
        with pytest.raises(PipelineError, match="voterank_k"):
            load_config(path)

    def test_missing_edges_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[pipeline]\nmethods = out_degree\n")
        with pytest.raises(PipelineError, match="edges"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="cannot read"):
            load_config(tmp_path / "does-not-exist.ini")

    def test_readme_example_loads(self, tmp_path):
        # the ```ini block of README.md, verbatim, with its inline comments
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        config = load_config(path)
        assert config.methods == ["out_degree", "pagerank", "voterank", "pine"]
        assert config.models == ["ltp", "icp", "sir"]
        assert (config.diffusion.alpha1, config.diffusion.alpha2) == (0.5, 0.5)
        assert config.diffusion.sir_beta is None  # "empty = auto"
        assert config.calibrate == "none"
        assert config.node_budget == 50000

    def test_empty_value_is_default(self, tmp_path, graph_files):
        _g, edges, _feats = graph_files
        path = tmp_path / "empty.ini"
        path.write_text(f"[graph]\nedges = {edges}\nfeatures =\n[pipeline]\nmethods =\n[diffusion]\nruns =\n")
        config = load_config(path)
        assert config.features is None
        assert config.methods == ["out_degree", "pine"]
        assert config.diffusion.num_runs == 1000

    def test_every_key_empty_is_all_defaults(self, tmp_path, graph_files):
        _g, edges, _feats = graph_files
        path = tmp_path / "empty.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures =\nreverse_edges =\n"
            "[pipeline]\nmethods =\nmodels =\nseed_fraction =\n"
            "[diffusion]\nruns =\nalpha1 =\nalpha2 =\nsir_beta =\nsir_gamma =\nmax_steps =\nseed =\n"
            "[train]\nlayers =\nhidden =\nlr =\nmax_epochs =\npatience =\nseed =\n"
            "[centrality]\ndamping =\nattenuation =\ntuning =\nnode_budget =\n"
            "[score]\nlayer =\ncalibrate =\n"
        )
        assert load_config(path) == PipelineConfig(edges=edges)

    def test_bad_value_names_key(self, tmp_path, graph_files):
        _g, edges, _feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[diffusion]\nalpha1 = half\n")
        with pytest.raises(PipelineError, match=r"\[config\] \[diffusion\] alpha1 = 'half'"):
            load_config(path)

    def test_unknown_calibration_rejected(self, tmp_path, graph_files):
        # any value but "log-degree" used to run uncalibrated without a word
        _g, edges, _feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[score]\ncalibrate = log_degree\n")
        with pytest.raises(PipelineError, match=r"\[score\] calibrate = 'log_degree'"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [("lr", "0", "learning rate must be positive"), ("patience", "0", "patience must be >= 1")],
    )
    def test_rejected_train_value_names_key(self, tmp_path, graph_files, key, value, message):
        # TrainConfig's check used to surface as "[pipeline] learning rate must be positive"
        _g, edges, _feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[train]\n{key} = {value}\n")
        with pytest.raises(PipelineError, match=rf"\[config\] \[train\] {key} = '{value}': {message}"):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            b"[graph]\nedges = e.txt\n[diffusion]\nruns = 5\nruns = 6\n",
            b"[graph]\nedges = e.txt\n[graph]\nfeatures = f.csv\n",
            b"edges = e.txt\n",
            b"[graph]\nedges = caf\xe9.txt\n",
        ],
        ids=["key-twice", "section-twice", "no-section-header", "not-utf8"],
    )
    def test_unparseable_file_fails_at_config(self, tmp_path, capsys, text):
        # configparser's own errors used to reach the CLI as "error [pipeline] ..."
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        with pytest.raises(PipelineError) as exc:
            load_config(path)
        assert exc.value.stage == "config"
        assert main(["pipeline", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error [config] cannot parse config file {path}: ")

    def test_percent_is_literal(self, tmp_path):
        # interpolation used to reject "%." and read "%%" as one "%"
        path = tmp_path / "pct.ini"
        path.write_text("[graph]\nedges = /data/e100%.txt\nfeatures = a%%b.csv\n")
        config = load_config(path)
        assert (config.edges, config.features) == ("/data/e100%.txt", "a%%b.csv")

    def test_default_section_is_unknown(self, tmp_path, capsys):
        # its keys used to be merged into every section: "unknown key(s) in [graph]: ['runs']"
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nruns = 5\n[graph]\nedges = e.txt\n")
        with pytest.raises(PipelineError, match=r"^\[config\] unknown section \[DEFAULT\]$"):
            load_config(path)
        assert main(["pipeline", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error [config] unknown section [DEFAULT]")

    def test_every_key_names_a_field_of_its_section_class(self):
        for (section, key), (name, _cast) in pp._KEYS.items():
            target = {"train": TrainConfig, "diffusion": DiffusionConfig}.get(section, PipelineConfig)
            assert name in {f.name for f in dataclasses.fields(target)}, f"[{section}] {key}"

    def test_semicolon_without_space_is_kept(self, tmp_path, graph_files):
        # only a ";" after whitespace starts a comment
        _g, edges, _feats = graph_files
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[train]\nhidden = 8;16\n")
        with pytest.raises(PipelineError, match=r"\[train\] hidden = '8;16'"):
            load_config(path)


class TestReadScoreTsv:
    @pytest.mark.parametrize(
        "text, num_nodes, message",
        [
            ("0\t1\n-1\t2\n", None, r":2: node id -1 is negative"),
            ("0\t1\n1\t2\n0\t3\n", None, r":3: node id 0 given twice"),
            ("0\t1\n3\t2\n", 3, r":2: node id 3 is past the last node \(2\)"),
            ("# header\n0\t1\n1.5\t2\n", None, r":3: expected node_id<TAB>value, got '1.5\\t2'"),
            ("# header\n0\t1\n", 0, r":2: node id 0 names no node: the graph has no nodes"),
            ("0\t1\n1\tnan\n", None, r":2: value 'nan' of node 1 is not finite"),
            ("0\t1\n1\tinf\n", 3, r":2: value 'inf' of node 1 is not finite"),
            ("0\t-inf\n", None, r":1: value '-inf' of node 0 is not finite"),
        ],
        ids=["negative", "duplicate", "past-the-end", "fractional", "no-nodes", "nan", "inf", "-inf"],
    )
    def test_bad_id_names_path_and_line(self, tmp_path, text, num_nodes, message):
        path = tmp_path / "scores.tsv"
        path.write_text(text)
        with pytest.raises(ScoreFileError, match=re.escape(str(path)) + message):
            read_score_tsv(path, num_nodes=num_nodes)

    def test_missing_ids_score_zero(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("2\t3.5\n\n0\t1\n")
        assert read_score_tsv(path, num_nodes=4).tolist() == [1.0, 0.0, 3.5, 0.0]
        assert read_score_tsv(path).tolist() == [1.0, 0.0, 3.5]

    def test_evaluate_truth_id_past_the_rows_names_its_line(self, tmp_path, capsys):
        # the truth vector used to be sized by its largest id: 8 MB here, tens of GB for an id of 10^9
        truth, pred = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        truth.write_text("# truth\n1000000\t1\n")
        pred.write_text("0\t1\n1\t2\n2\t3\n")
        assert main(["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "spearman"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"{truth}:2: node id 1000000 is past the last node (2)" in captured.err

    def test_evaluate_vectors_have_a_value_per_row_of_the_longer_file(self, tmp_path, capsys):
        truth, pred = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        for scores, truths in (("0\t3\n1\t2\n2\t1\n", "0\t1\n2\t0.5\n"), ("0\t3\n2\t1\n", "0\t1\n1\t0\n2\t0.5\n")):
            pred.write_text(scores)
            truth.write_text(truths)
            assert main(["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "ndcg@3"]) == 0
            predicted, expected = read_score_tsv(pred, 3), read_score_tsv(truth, 3)
            assert capsys.readouterr().out == f"ndcg@3\t{ndcg_at_k(predicted, expected, 3):.6f}\n"

    def test_evaluate_reports_bad_row(self, tmp_path, capsys):
        truth, pred = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        truth.write_text("0\t1\n1\t2\n")
        pred.write_text("0\t1\n2\t2\n")
        assert main(["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "spearman"]) == 1
        assert f"{pred}:2: node id 2 is past the last node (1)" in capsys.readouterr().err


# (id field, expected message) of a bad second line, the same for every node file
BAD_NODE_LINES = {
    "non-integer": (b"x1", "expected node_id"),
    "negative": (b"-1", "node id -1 is negative"),
    "past-the-end": (b"50", "node id 50 is past the last node (49)"),
    "field-count": (None, "expected node_id"),
    "not-utf8": (b"caf\xe9", "line is not UTF-8 text"),
}


class TestNodeFiles:
    """Seed, score and label files share one row reader, ``scores.node_rows``."""

    @staticmethod
    def command(reader, path, edges, feats, tmp_path):
        if reader == "seed":
            return ["simulate", "--graph", edges, "--features", feats, "--model", "ltp", "--seeds", path]
        if reader == "label":
            return ["score", "--graph", edges, "--labels", path]
        truth = tmp_path / "truth.tsv"
        truth.write_text("".join(f"{i}\t{i}\n" for i in range(50)))
        return ["evaluate", "--scores", path, "--truth", str(truth)]

    @pytest.mark.parametrize("case", BAD_NODE_LINES)
    @pytest.mark.parametrize("reader", ["seed", "score", "label"])
    def test_bad_line_names_path_and_line(self, tmp_path, graph_files, capsys, reader, case):
        g, edges, feats = graph_files
        assert g.num_nodes == 50
        node, message = BAD_NODE_LINES[case]
        value = b"" if reader == "seed" else b"\t0.5"
        line = node + value if node is not None else (b"3\t4" if reader == "seed" else b"3")
        path = tmp_path / f"{reader}.txt"
        path.write_bytes(b"0" + value + b"\n" + line + b"\n")
        args = self.command(reader, str(path), edges, feats, tmp_path)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error [{args[0]}] ")
        assert f"{path}:2: {message}" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("reader", ["score", "truth", "label"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, graph_files, capsys, reader, value):
        # read on, a nan score gives spearman 0.5, a nan truth ndcg nan, and a nan label drops its edge type
        _g, edges, feats = graph_files
        path = tmp_path / f"{reader}.txt"
        path.write_text(f"0\t0.5\n1\t{value}\n")
        args = self.command("score" if reader == "truth" else reader, str(path), edges, feats, tmp_path)
        if reader == "truth":
            args[2], args[4] = args[4], args[2]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [{args[0]}] {path}:2: value '{value}' of node 1 is not finite\n"

    @pytest.mark.parametrize("width", [1, 2])
    def test_comments_and_blank_lines_skipped(self, tmp_path, width):
        value = "" if width == 1 else "\t0.5"
        path = tmp_path / "nodes.txt"
        path.write_text(f"# hubs\n3{value}  # first\n\n  \n  7{value}\t#second\n#49\n\n")
        expected = None if width == 1 else 0.5
        assert list(node_rows(path, 50, width)) == [(2, 3, expected), (5, 7, expected)]
        if width == 2:
            assert read_score_rows(path, 50) == {3: 0.5, 7: 0.5}


class TestTopFraction:
    def test_floor_of_fraction(self):
        sv = ScoreVector(np.arange(10.0))
        assert sv.top_fraction(0.25).size == 2

    def test_highest_scores_selected(self):
        sv = ScoreVector(np.array([5.0, 1.0, 9.0, 3.0]))
        assert set(sv.top_fraction(0.5)) == {0, 2}

    def test_boundary_tie_by_id(self):
        sv = ScoreVector(np.array([1.0, 2.0, 2.0, 2.0]))
        assert list(sv.top_fraction(0.5)) == [1, 2]

    def test_zero_when_tiny_fraction(self):
        sv = ScoreVector(np.arange(5.0))
        assert sv.top_fraction(0.1).size == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -7.0, 1e300]), max_size=40),
        st.floats(0.0, 1.0),
    )
    @example([], 0.0)
    @example([], 1.0)
    @example([0.0, -0.0, -0.0, 0.0], 0.5)
    @example([-0.0, 0.0, 1.0], 1.0)
    def test_same_ids_as_a_full_sort(self, values, fraction):
        # heavy ties, -0.0 against 0.0 (equal scores), k = 0 and k = N against the lexsort oracle
        sv = ScoreVector(np.array(values, dtype=np.float64))
        got = sv.top_fraction(fraction)
        want = np.sort(np.lexsort((np.arange(len(values)), -sv.values))[: int(fraction * len(values))])
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestScoreVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_the_first_node(self, bad):
        values = np.arange(6.0)
        values[[2, 4]] = bad
        with pytest.raises(ValueError, match="^score of node 2 is not finite$"):
            ScoreVector(values)

    def test_values_are_the_only_field(self):
        assert [f.name for f in dataclasses.fields(ScoreVector)] == ["values"]


class TestPipeline:
    def test_report_shape(self, tmp_path, graph_files):
        g, edges, feats = graph_files
        report = run_pipeline(write_config(tmp_path, edges, feats))
        lines = report.strip().split("\n")
        body = [l for l in lines if not l.startswith("#")]
        assert body[0].split("\t") == ["method", "model", "mean_spread", "std_spread", "runs", "seeds"]
        assert len(body) == 1 + 3 * 3  # three methods x three models
        for row in body[1:]:
            fields = row.split("\t")
            assert fields[0] in ("out_degree", "pagerank", "pine")
            assert fields[1] in ("ltp", "icp", "sir")
            # spread is a node fraction and always includes the seed set
            assert int(fields[5]) / g.num_nodes <= float(fields[2]) <= 1.0
            assert int(fields[4]) == 50

    def test_byte_identical_reruns(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        config = write_config(tmp_path, edges, feats)
        assert run_pipeline(config) == run_pipeline(config)

    def test_deterministic_across_worker_counts(self, tmp_path, graph_files, monkeypatch):
        _g, edges, feats = graph_files
        config = write_config(tmp_path, edges, feats)
        monkeypatch.setenv("PINE_THREADS", "1")
        serial = run_pipeline(config)
        # PINE_THREADS is read by nothing in pine; a chunk budget of 1 runs each Monte Carlo run in a chunk of its own
        monkeypatch.setenv("PINE_THREADS", "8")
        monkeypatch.setattr(diffusion, "CHUNK_BUDGET", 1)
        parallel = run_pipeline(config)
        assert serial == parallel

    def test_node_budget_refusal(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        path = tmp_path / "closeness.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\n[pipeline]\nmethods = closeness\n"
            "[centrality]\nnode_budget = 10\n[diffusion]\nruns = 5\n"
        )
        with pytest.raises(PipelineError, match="refused"):
            run_pipeline(path)

    def test_each_model_samples_its_runs_once(self, tmp_path, graph_files, monkeypatch):
        # run r's live edges do not depend on the seeds, so every method's
        # seed set is searched on the same drawn runs
        _g, edges, feats = graph_files
        calls = []
        sampler = diffusion._live_edge_sampler
        monkeypatch.setattr(diffusion, "_live_edge_sampler", lambda g, c: calls.append(c.model) or sampler(g, c))
        path = tmp_path / "once.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            "[pipeline]\nmethods = out_degree, degree, pagerank, voterank\nmodels = ltp, icp, sir\n"
            "[diffusion]\nruns = 40\n"
        )
        report = run_pipeline(path)
        assert calls == ["ltp", "icp", "sir"]
        monkeypatch.setattr(diffusion, "_live_edge_sampler", sampler)
        # a graph without its kept state draws the runs again, so every call draws its own runs
        unsampled = lambda g, c, seeds: g.diffusion.clear() or influence_spread(g, c, seeds)
        monkeypatch.setattr(pp, "influence_spread", unsampled)
        assert run_pipeline(path) == report

    def test_feature_csr_built_once(self, tmp_path, graph_files, monkeypatch, rng):
        # training, validation, scoring and LT+'s cosine all read the one CSR scanned from the loaded features,
        # which are sparse enough for the cosine's CSR route
        g, edges, _feats = graph_files
        feats = tmp_path / "sparse.csv"
        np.savetxt(feats, np.where(rng.random(g.features.shape) < 0.03, g.features, 0.0), delimiter=",")
        loaded = load_graph(edges, feats).features
        assert 0 < np.count_nonzero(loaded) <= graph.SPARSE_COSINE_DENSITY * loaded.size
        calls = []
        build = graph.scan_csr
        monkeypatch.setattr(graph, "scan_csr", lambda features: calls.append(features.shape) or build(features))
        path = tmp_path / "pine.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            "[pipeline]\nmethods = pine\nmodels = ltp\n[diffusion]\nruns = 5\n"
            "[train]\nhidden = 8\nlayers = 2\nmax_epochs = 3\n"
        )
        run_pipeline(path)
        assert calls == [loaded.shape]

    def test_report_equals_one_shot_rows(self, tmp_path, graph_files):
        # the pipeline shares the influence weights and SIR's automatic beta
        # across methods; each row must be what a standalone call reports
        _g, edges, feats = graph_files
        path = tmp_path / "rows.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            "[pipeline]\nmethods = out_degree, pagerank, voterank\nmodels = ltp, icp, sir\n"
            "[diffusion]\nruns = 40\nalpha1 = 0.3\nalpha2 = 0.7\nseed = 5\n"
        )
        config = load_config(path)
        assert config.diffusion.sir_beta is None
        g = load_graph(edges, feats)
        seed_count = int(config.seed_fraction * g.num_nodes)
        lines = pp._report_header(g, config, seed_count)
        lines.append("method\tmodel\tmean_spread\tstd_spread\truns\tseeds")
        for method in config.methods:
            seeds = compute_method_scores(g, method, config, seed_count).top_fraction(config.seed_fraction)
            for model in config.models:
                dconf = DiffusionConfig(
                    model=model, alpha1=0.3, alpha2=0.7, num_runs=40, rng_seed=5, sir_beta=None
                )
                r = influence_spread(g, dconf, seeds)
                lines.append(f"{method}\t{model}\t{r.mean_spread:.6f}\t{r.std_spread:.6f}\t{r.runs}\t{seeds.size}")
        assert run_pipeline(path) == "\n".join(lines) + "\n"

    def test_automatic_sir_beta_computed_once(self, tmp_path, graph_files, monkeypatch):
        # like the weights, beta does not depend on the seeds: one computation per pipeline run
        _g, edges, feats = graph_files
        calls = []
        beta = diffusion.critical_sir_beta
        monkeypatch.setattr(diffusion, "critical_sir_beta", lambda g: calls.append(g) or beta(g))
        config = write_config(tmp_path, edges, feats)
        assert load_config(config).diffusion.sir_beta is None
        assert load_config(config).models == ["ltp", "icp", "sir"]
        run_pipeline(config)
        assert len(calls) == 1

    @staticmethod
    def assert_fails_at_config(tmp_path, graph_files, monkeypatch, models, diffusion, message):
        # before the graph loads, so before any method is scored
        _g, edges, feats = graph_files
        calls = []
        monkeypatch.setattr(pp, "load_graph", lambda *a, **k: calls.append("load"))
        monkeypatch.setattr(pp, "compute_method_scores", lambda g, m, *a: calls.append(m))
        path = tmp_path / "diffusion.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            f"[pipeline]\nmethods = out_degree, pagerank\nmodels = {models}\n"
            f"[diffusion]\n{diffusion}\n"
        )
        with pytest.raises(PipelineError, match=rf"\[config\] \[diffusion\] .*{message}") as exc:
            run_pipeline(path)
        assert exc.value.stage == "config"
        assert calls == []

    @pytest.mark.parametrize("models", ["ltp", "sir, ltp", "sir"])  # checked whether or not a model uses them
    def test_negative_alpha_fails_at_config(self, tmp_path, graph_files, monkeypatch, models):
        diffusion = "runs = 5\nalpha1 = -0.5\nalpha2 = 1.5"
        self.assert_fails_at_config(tmp_path, graph_files, monkeypatch, models, diffusion, "nonnegative")

    @pytest.mark.parametrize(
        "diffusion, message",
        [("runs = 0", "num_runs must be >= 1"), ("sir_gamma = 2", r"sir_gamma must lie in \[0, 1\]")],
        ids=["runs", "sir_gamma"],
    )
    def test_rejected_diffusion_value_fails_at_config(self, tmp_path, graph_files, monkeypatch, diffusion, message):
        self.assert_fails_at_config(tmp_path, graph_files, monkeypatch, "ltp, sir", diffusion, message)

    @pytest.mark.parametrize("models", ["ltp", "ltp, sir", "sir"])
    def test_empty_graph_fails_in_first_simulate_stage(self, tmp_path, models):
        edges = tmp_path / "empty.txt"
        edges.write_text("# no edges\n")
        path = tmp_path / "empty.ini"
        path.write_text(f"[graph]\nedges = {edges}\n[pipeline]\nmethods = out_degree\nmodels = {models}\n")
        with pytest.raises(PipelineError) as exc:
            run_pipeline(path)
        assert exc.value.stage == f"simulate:{models.split(',')[0]}"
        assert isinstance(exc.value.__cause__, EmptyGraphError)

    def test_bad_edge_file_fails_in_load_stage(self, tmp_path):
        path = tmp_path / "conf.ini"
        path.write_text(f"[graph]\nedges = {tmp_path / 'missing.txt'}\n")
        with pytest.raises(PipelineError, match=r"\[load\]"):
            run_pipeline(path)


INTEGER_FIELDS = [(DiffusionConfig, "num_runs"), (DiffusionConfig, "max_steps"), (DiffusionConfig, "rng_seed")] + [
    (TrainConfig, name) for name in ("num_layers", "hidden_size", "max_epochs", "patience", "rng_seed")
]



def field_id(cls, field):
    return f"{cls.__name__}.{field}" if field == "rng_seed" else field  # both classes have a seed


NON_INTEGERS = {"true": True, "false": False, "np-true": np.True_, "2.5": 2.5, "3.0": 3.0,
                "nan": float("nan"), "np-float": np.float64(2), "str": "3", "none": None}
NON_INTEGER_CASES = [  # None is max_steps' "no cap"
    pytest.param(cls, field, value, id=f"{field_id(cls, field)}-{name}") for cls, field in INTEGER_FIELDS
    for name, value in NON_INTEGERS.items() if (field, value) != ("max_steps", None)
]


class TestConfigRangeChecks:
    """Values that used to fail only after the graph loaded (or never) fail
    at stage config, naming their [section] key and value."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[pipeline]\nmodels = ltp, lt\n", "[pipeline] models = 'ltp, lt': unknown name(s) ['lt']"),
            ("[pipeline]\nmethods = degree, eig\n", "[pipeline] methods = 'degree, eig': unknown name(s) ['eig']"),
            ("[pipeline]\nseed_fraction = 1.5\n", "[pipeline] seed_fraction = '1.5': must lie in [0, 1]"),
            ("[pipeline]\nseed_fraction = -0.1\n", "[pipeline] seed_fraction = '-0.1': must lie in [0, 1]"),
            ("[pipeline]\nseed_fraction = nan\n", "[pipeline] seed_fraction = 'nan': must lie in [0, 1]"),
            ("[score]\nlayer = 1\n", "[score] layer = '1': must lie in [0, 1) ([train] layers)"),
            ("[score]\nlayer = -1\n", "[score] layer = '-1': must lie in [0, 1) ([train] layers)"),
            ("[train]\nlayers = 2\n[score]\nlayer = 2\n", "[score] layer = '2': must lie in [0, 2)"),
            ("[train]\nlayers = 0\n", "[train] layers = '0': num_layers must be >= 1"),
            ("[train]\nhidden = 0\n", "[train] hidden = '0': hidden_size must be >= 1"),
            ("[train]\nmax_epochs = 0\n", "[train] max_epochs = '0': max_epochs must be >= 1"),
            ("[diffusion]\nmax_steps = -1\n", "[diffusion] max_steps = '-1': max_steps must be >= 0"),
            ("[centrality]\ndamping = 2\n", "[centrality] damping = '2': damping must lie in (0, 1), not 2.0"),
            ("[centrality]\ntuning = nan\n", "[centrality] tuning = 'nan': tuning must lie in [0, 1], not nan"),
            (
                "[centrality]\nattenuation = 0\n",
                "[centrality] attenuation = '0': attenuation must be positive and finite, not 0.0",
            ),
            ("[diffusion]\nseed = -1\n", "[diffusion] seed = '-1': rng_seed must be >= 0"),
            ("[train]\nseed = -1\n", "[train] seed = '-1': rng_seed must be >= 0"),
            ("[centrality]\nnode_budget = -1\n", "[centrality] node_budget = '-1': node_budget must be >= 0"),
            ("[diffusion]\nruns = 0\n", "[diffusion] runs = '0': num_runs must be >= 1"),
            ("[diffusion]\nsir_beta = 2\n", "[diffusion] sir_beta = '2': sir_beta must lie in [0, 1]"),
            ("[diffusion]\nsir_gamma = nan\n", "[diffusion] sir_gamma = 'nan': sir_gamma must lie in [0, 1]"),
            ("[diffusion]\nmax_steps = 2.5\n", "[diffusion] max_steps = '2.5': invalid literal for int()"),
            ("[diffusion]\nalpha1 = 1.5\n", "[diffusion] alpha1 = '1.5': alpha1 and alpha2 must be nonnegative"),
            ("[diffusion]\nalpha2 = nan\n", "[diffusion] alpha2 = 'nan': alpha1 and alpha2 must be nonnegative"),
            (
                "[diffusion]\nalpha1 = 0.25\n",
                "[diffusion] alpha1 = 0.25, alpha2 = 0.5: alpha1 and alpha2 must be nonnegative and sum to 1",
            ),
            (
                "[diffusion]\nalpha1 = 0.25\nalpha2 = 0.5\n",
                "[diffusion] alpha1 = 0.25, alpha2 = 0.5: alpha1 and alpha2 must be nonnegative and sum to 1",
            ),
            ("[train]\nlr = inf\n", "[train] lr = 'inf': learning rate must be positive and finite"),
            ("[train]\npatience = 0\n", "[train] patience = '0': patience must be >= 1"),
        ],
        ids=["models", "methods", "fraction-above", "fraction-below", "fraction-nan", "layer-past", "layer-negative",
             "layer-past-two", "train-layers", "train-hidden", "train-max-epochs", "diffusion-max-steps",
             "centrality-damping", "centrality-tuning-nan", "centrality-attenuation-zero", "diffusion-seed",
             "train-seed", "centrality-node-budget", "diffusion-runs", "diffusion-sir-beta", "diffusion-sir-gamma-nan",
             "diffusion-max-steps-float", "diffusion-alpha1-alone", "diffusion-alpha2-nan", "diffusion-alpha-pair",
             "diffusion-alpha-pair-both-given", "train-lr-inf", "train-patience"],
    )
    def test_fails_at_config_before_load(self, tmp_path, graph_files, monkeypatch, text, message):
        _g, edges, feats = graph_files
        calls = []
        monkeypatch.setattr(pp, "load_graph", lambda *a, **k: calls.append("load"))
        monkeypatch.setattr(pp, "compute_method_scores", lambda g, m, *a: calls.append(m))
        path = tmp_path / "bad.ini"
        path.write_text(f"[graph]\nedges = {edges}\nfeatures = {feats}\n" + text)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "config" and calls == []
        assert str(exc.value).startswith(f"[config] {message}")

    @pytest.mark.parametrize("field", ["num_layers", "hidden_size", "max_epochs"])
    def test_train_config_bounds(self, field):
        TrainConfig(**{field: 1})
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            TrainConfig(**{field: 0})

    def test_diffusion_max_steps_bound(self):
        DiffusionConfig(max_steps=0)  # the seeds alone
        with pytest.raises(ValueError, match="^max_steps must be >= 0$"):
            DiffusionConfig(max_steps=-1)

    @pytest.mark.parametrize("cls", [TrainConfig, DiffusionConfig])
    def test_seed_bound(self, cls):
        # seed -1 used to pass the config and fail in numpy with "expected non-negative integer"
        assert cls(rng_seed=0).rng_seed == 0
        with pytest.raises(ValueError, match="^rng_seed must be >= 0$"):
            cls(rng_seed=-1)

    def test_reverse_edges_takes_configparser_boolean_words_only(self, tmp_path, graph_files, monkeypatch):
        # any other word used to read as false
        _g, edges, _feats = graph_files
        monkeypatch.setattr(pp, "load_graph", lambda *a, **k: pytest.fail("the graph loaded"))
        path = tmp_path / "conf.ini"
        for raw, value in [("1", True), ("Yes", True), ("TRUE", True), ("on", True),
                           ("0", False), ("No", False), ("false", False), ("OFF", False)]:
            path.write_text(f"[graph]\nedges = {edges}\nreverse_edges = {raw}\n")
            assert load_config(path).reverse_edges is value
        for raw in ("maybe", "2", "y", "truee"):
            path.write_text(f"[graph]\nedges = {edges}\nreverse_edges = {raw}\n")
            with pytest.raises(PipelineError) as exc:
                run_pipeline(path)
            assert exc.value.stage == "config"
            assert str(exc.value) == (
                f"[config] [graph] reverse_edges = {raw!r}: not one of 1, yes, true, on, 0, no, false, off"
            )

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("split", ["--seed", "-2", "--out-prefix", "s"], "--seed: invalid rng_seed value: '-2': rng_seed must be >= 0"),
            ("train", ["--seed", "-1", "--out", "m.bin"], "--seed: invalid rng_seed value: '-1': rng_seed must be >= 0"),
            (
                "simulate",
                ["--model", "ltp", "--seeds", "s.txt", "--seed", "-1"],
                "--seed: invalid rng_seed value: '-1': rng_seed must be >= 0",
            ),
            (
                "centrality",
                ["--method", "closeness", "--node-budget", "-3"],
                "--node-budget: invalid node_budget value: '-3': node_budget must be >= 0",
            ),
            ("train", ["--hidden", "0", "--out", "m.bin"], "--hidden: invalid hidden_size value: '0': hidden_size must be >= 1"),
            (
                "train",
                ["--max-epochs", "0", "--out", "m.bin"],
                "--max-epochs: invalid max_epochs value: '0': max_epochs must be >= 1",
            ),
            ("train", ["--patience", "0", "--out", "m.bin"], "--patience: invalid patience value: '0': patience must be >= 1"),
            (
                "score",
                ["--labels", "l.tsv", "--lr", "-1"],
                "--lr: invalid learning_rate value: '-1': learning rate must be positive and finite",
            ),
            (
                "simulate",
                ["--model", "ltp", "--seeds", "s.txt", "--runs", "0"],
                "--runs: invalid num_runs value: '0': num_runs must be >= 1",
            ),
            (
                "simulate",
                ["--model", "ltp", "--seeds", "s.txt", "--alpha1", "1.5"],
                "--alpha1: invalid alpha1 value: '1.5': alpha1 and alpha2 must be nonnegative and sum to 1",
            ),
            (
                "simulate",
                ["--model", "sir", "--seeds", "s.txt", "--beta", "2"],
                "--beta: invalid sir_beta value: '2': sir_beta must lie in [0, 1]",
            ),
            (
                "simulate",
                ["--model", "sir", "--seeds", "s.txt", "--gamma", "-0.5"],
                "--gamma: invalid sir_gamma value: '-0.5': sir_gamma must lie in [0, 1]",
            ),
        ],
        ids=["split-seed", "train-seed", "simulate-seed", "centrality-node-budget", "train-hidden", "train-max-epochs",
             "train-patience", "score-lr", "simulate-runs", "simulate-alpha1", "simulate-beta", "simulate-gamma"],
    )
    def test_flag_fails_before_load(self, tmp_path, capsys, command, flags, message):
        # pine split --seed -2 used to fail in numpy after the graph loaded, and --node-budget -3
        # refused every closeness or betweenness call "above -3 nodes"
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(tmp_path / "missing.txt")] + flags)
        assert exc.value.code == 2 and capsys.readouterr().err.endswith(f"error: argument {message}\n")

    def test_node_budget_zero_refuses_every_graph(self, graph_files, capsys):
        _g, edges, feats = graph_files
        assert main(["centrality", "--graph", edges, "--features", feats, "--method", "closeness", "--node-budget", "0"]) == 1
        assert capsys.readouterr().err == "error [closeness] exact closeness refused above 0 nodes (N=50)\n"

    @pytest.mark.parametrize("cls, field, value", NON_INTEGER_CASES)
    def test_integer_fields_reject_other_values(self, cls, field, value):
        # seen before the check: max_steps=nan counted not even the seeds, num_runs=True ran one
        # run, and hidden_size=nan or 2.5 and max_epochs=True were accepted
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
            cls(**{field: value})

    @pytest.mark.parametrize("cls, field", INTEGER_FIELDS, ids=[field_id(c, f) for c, f in INTEGER_FIELDS])
    def test_integer_fields_accept_numpy_integers(self, cls, field):
        for value in (np.int64(2), np.int32(3), np.uint8(1)):
            assert getattr(cls(**{field: value}), field) == value

    def test_nan_max_steps_is_named_not_run(self):
        g = build_graph(4, [0, 1, 2], [1, 2, 3], np.eye(4))
        with pytest.raises(ValueError, match="^max_steps must be an integer, not nan$"):
            influence_spread(g, DiffusionConfig(model="sir", sir_beta=1.0, max_steps=float("nan")), [0, 1])
        counts = influence_spread(g, DiffusionConfig(model="sir", sir_beta=1.0, max_steps=1, num_runs=3), [0, 1])
        assert counts.activated_counts.tolist() == [3, 3, 3]  # the seeds and the one step from them

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("train", ["--layers", "0", "--out", "m.bin"], "--layers: invalid num_layers value: '0': num_layers must be >= 1"),
            (
                "simulate",
                ["--model", "sir", "--seeds", "seeds.txt", "--max-steps", "-1"],
                "--max-steps: invalid max_steps value: '-1': max_steps must be >= 0",
            ),
        ],
        ids=["train-layers", "simulate-max-steps"],
    )
    def test_cli_names_degenerate_value(self, tmp_path, graph_files, capsys, monkeypatch, command, flags, message):
        # pine train --layers 0 used to fail with IndexError and --max-steps -1 ran zero steps; then both
        # failed after the graph loaded as "error [train] num_layers must be >= 1", naming neither flag nor value
        _g, edges, feats = graph_files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seeds.txt").write_text("0\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", edges, "--features", feats] + flags)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and captured.err.endswith(f"error: argument {message}\n")


class TestNonFiniteValues:
    """NaN fails every comparison, so each range check is written to reject it."""

    def test_simulate_alpha1_nan(self, tmp_path, capsys):
        edges, seeds = tmp_path / "edges.txt", tmp_path / "seeds.txt"
        edges.write_text("0 1\n1 2\n")
        seeds.write_text("0\n")
        args = ["simulate", "--graph", str(edges), "--model", "icp", "--seeds", str(seeds), "--alpha1", "nan"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            "error: argument --alpha1: invalid alpha1 value: 'nan': alpha1 and alpha2 must be nonnegative and sum to 1\n"
        )

    def test_config_nan_alphas_fail_at_config(self, tmp_path, graph_files, monkeypatch):
        diffusion = "alpha1 = nan\nalpha2 = nan"
        TestPipeline.assert_fails_at_config(tmp_path, graph_files, monkeypatch, "ltp", diffusion, "nonnegative")

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_train_config_learning_rate_must_be_finite(self, lr):
        with pytest.raises(ValueError, match="^learning rate must be positive"):
            TrainConfig(learning_rate=lr)

    def test_train_lr_nan_fails_before_split(self, tmp_path, graph_files, capsys, monkeypatch):
        _g, edges, feats = graph_files
        calls = []
        monkeypatch.setattr(pp, "split_edges", lambda *a, **k: calls.append("split"))
        args = ["train", "--graph", edges, "--features", feats, "--lr", "nan", "--out", str(tmp_path / "m.bin")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and calls == [] and captured.out == ""
        assert captured.err.endswith("error: argument --lr: invalid learning_rate value: 'nan': learning rate must be positive and finite\n")


class TestEvaluateMetrics:
    @pytest.fixture()
    def score_files(self, tmp_path):
        truth, pred = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        truth.write_text("0\t0\n1\t0\n2\t0\n")
        pred.write_text("0\t3\n1\t2\n2\t1\n")
        return ["evaluate", "--scores", str(pred), "--truth", str(truth)]

    @pytest.mark.parametrize(
        "metrics, spec",
        [
            ("spearman,foo", "foo"),
            ("ndcg@x", "ndcg@x"),
            ("precision@0", "precision@0"),
            ("ndcg@-2", "ndcg@-2"),
            ("spearman, ndcg", "ndcg"),
            ("ndcg@2,spearman@2", "spearman@2"),
        ],
    )
    def test_bad_spec_fails_before_any_file_is_read(self, score_files, capsys, monkeypatch, metrics, spec):
        calls = []
        monkeypatch.setattr(cli, "read_score_tsv", lambda *a, **k: calls.append(a))
        assert main(score_files + ["--metrics", metrics]) == 1
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert captured.err == (
            f"error [evaluate] bad metric {spec!r}: use spearman, ndcg@K or precision@K with integer K >= 1\n"
        )

    def test_nothing_printed_until_every_metric_is_computed(self, score_files, capsys):
        # NDCG is undefined for an all-zero truth; the precision before it is not printed either
        assert main(score_files + ["--metrics", "precision@2,ndcg@2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [evaluate] NDCG undefined: ground-truth importance is all zero\n"


class TestBenchmark:
    def test_rows_and_positive_times(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        out = benchmark(write_config(tmp_path, edges, feats))
        body = [l for l in out.strip().split("\n") if not l.startswith("#")]
        names = [row.split("\t")[0] for row in body[1:]]
        assert names == ["out_degree", "pagerank", "pine_train", "pine_score"]
        assert all(float(row.split("\t")[1]) >= 0 for row in body[1:])


# non-default flag values, so a flag the CLI failed to pass on would show
CLI_FLAGS = {
    "relative_out_degree": (["--tuning", "0.3"], {"tuning": 0.3}),
    "pagerank": (["--damping", "0.7"], {"damping": 0.7}),
    "katz": (["--attenuation", "0.01"], {"attenuation": 0.01}),
}
CLI_CASES = [(m, *CLI_FLAGS.get(m, ([], {}))) for m in METHODS if m != "pine"]
CLI_CASES.append(("voterank", ["--k", "7"], {}))


class TestCli:
    @pytest.mark.parametrize("method, flags, overrides", CLI_CASES)
    def test_centrality_matches_pipeline_scores(self, tmp_path, graph_files, method, flags, overrides):
        _g, edges, feats = graph_files
        out = tmp_path / "cli.tsv"
        argv = ["centrality", "--graph", edges, "--features", feats, "--method", method, "--out", str(out)]
        assert main(argv + flags) == 0
        g = load_graph(edges, feats)
        k = int(flags[-1]) if "--k" in flags else max(1, int(0.1 * g.num_nodes))
        expected = tmp_path / "pipeline.tsv"
        compute_method_scores(g, method, PipelineConfig(edges=edges, **overrides), k).write_tsv(expected)
        assert out.read_text() == expected.read_text()

    @pytest.mark.parametrize("method", ["closeness", "betweenness"])
    def test_centrality_node_budget_refusal(self, graph_files, capsys, method):
        _g, edges, _feats = graph_files
        assert main(["centrality", "--graph", edges, "--method", method, "--node-budget", "10"]) == 1
        assert "refused" in capsys.readouterr().err

    def test_centrality_stdout_and_tsv(self, tmp_path, graph_files, capsys):
        g, edges, feats = graph_files
        out = tmp_path / "scores.tsv"
        assert main(["centrality", "--graph", edges, "--method", "out_degree", "--out", str(out)]) == 0
        values = read_score_tsv(out, num_nodes=g.num_nodes)
        assert np.array_equal(values, g.out_degrees().astype(float))
        assert main(["centrality", "--graph", edges, "--method", "pagerank"]) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == g.num_nodes

    def test_train_then_score_roundtrip(self, tmp_path, graph_files, capsys):
        g, edges, feats = graph_files
        model_path = tmp_path / "model.bin"
        rc = main(
            [
                "train", "--graph", edges, "--features", feats,
                "--hidden", "8", "--lr", "0.01", "--max-epochs", "10",
                "--patience", "3", "--out", str(model_path),
            ]
        )
        assert rc == 0
        header = capsys.readouterr().out
        assert "test_auc" in header
        scores_path = tmp_path / "pine.tsv"
        rc = main(
            [
                "score", "--graph", edges, "--features", feats,
                "--model", str(model_path), "--out", str(scores_path),
            ]
        )
        assert rc == 0
        values = read_score_tsv(scores_path, num_nodes=g.num_nodes)
        assert values.sum() == pytest.approx(int((g.in_degrees() > 0).sum()), abs=1e-4)

    def test_simulate_and_evaluate(self, tmp_path, graph_files, capsys):
        g, edges, feats = graph_files
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\n1\n2\n")
        rc = main(
            [
                "simulate", "--graph", edges, "--features", feats,
                "--model", "ltp", "--seeds", str(seeds), "--runs", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        mean_spread = float(out[1].split("\t")[0])
        assert 3 / g.num_nodes <= mean_spread <= 1.0  # fraction; seeds always count

        truth = tmp_path / "truth.tsv"
        pred = tmp_path / "pred.tsv"
        ScoreVector(g.out_degrees().astype(float)).write_tsv(truth)
        ScoreVector(g.out_degrees().astype(float)).write_tsv(pred)
        rc = main(
            ["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "spearman,ndcg@10"]
        )
        assert rc == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().split("\n"))
        assert float(lines["spearman"]) == pytest.approx(1.0)
        assert float(lines["ndcg@10"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("line", ["x1", "-1", "50", "1 2", "1.0"])
    def test_bad_seed_line_names_path_and_line(self, tmp_path, graph_files, capsys, line):
        g, edges, feats = graph_files
        assert g.num_nodes == 50
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(f"0\n{line}\n")
        rc = main(["simulate", "--graph", edges, "--features", feats, "--model", "ltp", "--seeds", str(seeds)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error [simulate] ") and "seeds.txt:2: " in captured.err

    def test_seed_file_comments_anywhere_on_a_line(self, tmp_path, graph_files, capsys):
        _g, edges, feats = graph_files
        seeds, commented = tmp_path / "seeds.txt", tmp_path / "commented.txt"
        seeds.write_text("3\n7\n")
        commented.write_text("# hubs\n3  # first\n\n  7\t#second\n#49\n")
        outputs = []
        for path in (seeds, commented):
            args = ["simulate", "--graph", edges, "--features", feats, "--model", "icp", "--runs", "20"]
            assert main(args + ["--seeds", str(path), "--per-run"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_centrality_negative_k_names_k(self, graph_files, capsys):
        _g, edges, _feats = graph_files
        assert main(["centrality", "--graph", edges, "--method", "voterank", "--k", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error [centrality] k=-2")

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "pine"])
    def test_centrality_default_k_on_comments_only_edge_list(self, tmp_path, capsys, method):
        path = tmp_path / "empty.txt"
        path.write_text("# no edges\n# at all\n")
        assert main(["centrality", "--graph", str(path), "--method", method]) == 0
        assert capsys.readouterr().out == ""

    def test_centrality_on_latin1_file_names_line(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes("0 1\ncafé 1\n".encode("latin-1"))
        assert main(["centrality", "--graph", str(path), "--method", "degree"]) == 1
        err = capsys.readouterr().err
        assert "latin.txt:2: file is not UTF-8 text" in err and "codec" not in err

    def test_pipeline_subcommand_writes_report(self, tmp_path, graph_files):
        _g, edges, feats = graph_files
        out = tmp_path / "report.tsv"
        rc = main(["pipeline", write_config(tmp_path, edges, feats), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# nodes=")

    def test_split_subcommand(self, tmp_path, graph_files, capsys):
        g, edges, feats = graph_files
        rc = main(["split", "--graph", edges, "--out-prefix", str(tmp_path / "sp")])
        assert rc == 0
        counts = {
            line.split("\t")[0]: int(line.split("\t")[1])
            for line in capsys.readouterr().out.strip().split("\n")
        }
        n_pos = counts["message"] + counts["supervision_pos"] + counts["val_pos"] + counts["test_pos"]
        assert n_pos == g.num_edges
        assert counts["val_neg"] == counts["val_pos"]
        assert counts["test_neg"] == counts["test_pos"]

    def test_split_files_bytes_equal_to_loop_writer(self, tmp_path, graph_files):
        _g, edges, _feats = graph_files
        assert main(["split", "--graph", edges, "--seed", "4", "--out-prefix", str(tmp_path / "sp")]) == 0
        split = split_edges(load_graph(edges), rng_seed=4)
        for name in ("message_edges", "supervision_pos", "val_pos", "test_pos", "val_neg", "test_neg"):
            expected = "".join(f"{u} {v}\n" for u, v in getattr(split, name))
            written = tmp_path / f"sp.{name.replace('_edges', '')}.txt"
            assert written.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0\t1\n-1\t2\n", ":2: node id -1 is negative"),
            ("0\t1\n2.7\t2\n", ":2: expected node_id<TAB>value, got '2.7\\t2'"),
            ("# labels\n3\t1\n3\t2\n", ":3: node id 3 given twice"),
            ("0\t1\n30\t2\n", ":2: node id 30 is past the last node (29)"),
        ],
        ids=["negative", "fractional", "repeated", "past-the-end"],
    )
    def test_score_labels_bad_row(self, tmp_path, rng, capsys, rows, message):
        # np.loadtxt and int() read -1 as the last node and 2.7 as node 2
        edges, labels = tmp_path / "typed.txt", tmp_path / "labels.tsv"
        random_graph(30, 0.2, rng, typed=2).write_edge_list(edges)
        labels.write_text(rows)
        assert main(["score", "--graph", str(edges), "--labels", str(labels)]) == 1
        assert f"{labels}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("top_types", ["0", "-1"])
    def test_score_top_types_below_one_fails(self, tmp_path, rng, capsys, top_types):
        edges, labels = tmp_path / "typed.txt", tmp_path / "labels.tsv"
        random_graph(30, 0.2, rng, typed=2).write_edge_list(edges)
        labels.write_text("0\t1\n1\t2\n")
        assert main(["score", "--graph", str(edges), "--labels", str(labels), "--top-types", top_types]) == 1
        assert f"error [score] top_k_types must be at least 1, got {top_types}" in capsys.readouterr().err

    def test_score_labels_builds_and_scores_each_type_once(self, tmp_path, capsys, monkeypatch):
        # selection and the summed scores are one pass: no type is built or scored a second time
        g, imp = planted_heterogeneous_graph(n=200, planted_edges=600, noise_edges=300, seed=9)
        g = build_graph(  # and a fourth type of 2 edges, too small to split
            g.num_nodes, np.append(g.edge_src, [0, 1]), np.append(g.edge_dst, [1, 2]), g.features,
            edge_type=np.append(g.edge_type, [3, 3]),
        )
        edges, feats, labels = tmp_path / "typed.txt", tmp_path / "feats.csv", tmp_path / "labels.tsv"
        g.write_edge_list(edges)
        np.savetxt(feats, g.features, delimiter=",")
        labels.write_text("".join(f"{v}\t{float(imp[v])!r}\n" for v in range(0, 200, 2)))
        calls = {}

        def record(owner, name):
            inner, results = getattr(owner, name), calls.setdefault(name, [])
            monkeypatch.setattr(owner, name, lambda *a, **k: results.append(inner(*a, **k)) or results[-1])

        for name in ("subgraph_by_edge_type", "train", "score_graph"):
            record(pine_score, name)
        record(cli, "select_edge_types")
        args = ["score", "--graph", str(edges), "--features", str(feats), "--labels", str(labels), "--hidden", "4"]
        assert main(args) == 0
        [result] = calls["select_edge_types"]
        assert result.selected and result.skipped == [3]  # 4 types tried, 3 trained
        counts = {name: len(results) for name, results in calls.items()}
        assert counts == {"subgraph_by_edge_type": 4, "train": 3, "score_graph": 3, "select_edge_types": 1}
        assert capsys.readouterr().out == "".join(result.scores.tsv_lines())

    def test_component_subcommand(self, tmp_path, rng, capsys):
        # two weak components: a 4-cycle and an edge pair
        edges = tmp_path / "two.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n4 5\n")
        rc = main(["component", "--graph", str(edges), "--out", str(tmp_path / "cc.txt")])
        assert rc == 0
        out = dict(l.split("\t") for l in capsys.readouterr().out.strip().split("\n"))
        assert out["nodes"] == "4"
        assert out["edges"] == "4"

    def test_flag_defaults_are_config_defaults(self, tmp_path, graph_files, monkeypatch):
        # with no optional flag, each subcommand builds its config class's defaults
        _g, edges, _feats = graph_files
        seeds, labels = tmp_path / "seeds.txt", tmp_path / "labels.tsv"
        seeds.write_text("0\n")
        labels.write_text("0\t1\n")
        built = {}

        def capture(command, position=None, keywords=()):
            def stub(*args, **kwargs):
                built[command] = tuple(kwargs[k] for k in keywords) if keywords else args[position]
                raise RuntimeError("config captured")

            return stub

        monkeypatch.setattr(cli, "train_and_test_auc", capture("train", position=1))
        monkeypatch.setattr(cli, "select_edge_types", capture("score", keywords=("config", "top_k_types")))
        monkeypatch.setattr(cli, "influence_spread", capture("simulate", position=1))
        monkeypatch.setattr(cli, "compute_method_scores", capture("centrality", position=2))
        assert main(["train", "--graph", edges, "--out", str(tmp_path / "model.npz")]) == 1
        assert main(["score", "--graph", edges, "--labels", str(labels)]) == 1
        assert main(["simulate", "--graph", edges, "--model", "sir", "--seeds", str(seeds)]) == 1
        assert main(["centrality", "--graph", edges, "--method", "pagerank"]) == 1
        assert built == {
            "train": TrainConfig(),
            "score": (TrainConfig(), TOP_K_TYPES),
            "simulate": DiffusionConfig(model="sir"),
            "centrality": PipelineConfig(edges=edges),
        }

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["centrality", "--graph", str(tmp_path / "nope.txt"), "--method", "degree"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_score_layer_and_calibrate_flags(self, tmp_path, graph_files):
        g, edges, feats = graph_files
        model_path, out, expected = tmp_path / "model.bin", tmp_path / "cli.tsv", tmp_path / "expected.tsv"
        model = gat.init_model(g.feature_dim, 4, 2, np.random.default_rng(0))
        gat.save_model(model, model_path)
        args = ["score", "--graph", edges, "--features", feats, "--model", str(model_path), "--out", str(out)]
        assert main(args + ["--layer", "1", "--calibrate", "log-degree"]) == 0
        calibrate_by_out_degree(score_graph(load_graph(edges, feats), model, 1), g).write_tsv(expected)
        assert out.read_text() == expected.read_text()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("score", ["--model", "m", "--calibrate", "foo"], "argument --calibrate: invalid calibration value: 'foo'"),
            ("centrality", ["--method", "katz", "--damping", "2"], "argument --damping: invalid"),
            ("centrality", ["--method", "pagerank", "--tuning", "nan"], "argument --tuning: invalid"),
        ],
        ids=["calibrate", "damping", "tuning-nan"],
    )
    def test_flag_fails_by_its_config_rule_before_load(self, tmp_path, capsys, command, flags, message):
        # --calibrate used to list its choices by hand; centrality values failed only
        # in the function that uses them, after the graph loaded, or never
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(tmp_path / "missing.txt")] + flags)
        assert exc.value.code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (
                "centrality",
                ["--method", "katz", "--damping", "2"],
                "--damping: invalid damping value: '2': damping must lie in (0, 1), not 2.0",
            ),
            (
                "centrality",
                ["--method", "katz", "--attenuation", "0"],
                "--attenuation: invalid attenuation value: '0': attenuation must be positive and finite, not 0.0",
            ),
            (
                "centrality",
                ["--method", "pagerank", "--tuning", "nan"],
                "--tuning: invalid tuning value: 'nan': tuning must lie in [0, 1], not nan",
            ),
            (
                "score",
                ["--model", "m", "--calibrate", "foo"],
                "--calibrate: invalid calibration value: 'foo': choose from ('none', 'log-degree')",
            ),
        ],
        ids=["damping", "attenuation", "tuning-nan", "calibrate"],
    )
    def test_flag_error_gives_its_rule(self, tmp_path, capsys, command, flags, message):
        # the parser's own words follow argparse's "invalid <parser> value: '<raw>'"
        with pytest.raises(SystemExit) as exc:
            main([command, "--graph", str(tmp_path / "missing.txt")] + flags)
        assert exc.value.code == 2 and capsys.readouterr().err.endswith(f"error: argument {message}\n")

    def test_score_help_names_the_calibrations(self, capsys):
        with pytest.raises(SystemExit):
            main(["score", "-h"])
        assert "one of none, log-degree" in capsys.readouterr().out

    def test_simulate_zero_steps_reaches_the_seeds_alone(self, tmp_path, graph_files, capsys):
        _g, edges, feats = graph_files
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0\n1\n2\n")
        args = ["simulate", "--graph", edges, "--features", feats, "--model", "sir", "--seeds", str(seeds)]
        assert main(args + ["--runs", "7", "--max-steps", "0", "--per-run"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == ["3"] * 7

    def test_score_rejects_zero_layer_model_naming_path(self, tmp_path, graph_files, capsys):
        _g, edges, feats = graph_files
        model_path = tmp_path / "empty_model.bin"
        model_path.write_bytes(gat.MAGIC_MODEL + bytes(8))  # a layer count of 0
        assert main(["score", "--graph", edges, "--features", feats, "--model", str(model_path)]) == 1
        assert f"{model_path}: layer count is 0" in capsys.readouterr().err

    def test_seed_on_empty_graph_says_it_has_no_nodes(self, tmp_path, capsys):
        # the message used to read "node id 0 is past the last node (-1)"
        edges, seeds = tmp_path / "empty.txt", tmp_path / "seeds0.txt"
        edges.write_text("")
        seeds.write_text("0\n")
        assert main(["simulate", "--graph", str(edges), "--model", "ltp", "--seeds", str(seeds)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [simulate] {seeds}:1: node id 0 names no node: the graph has no nodes\n"

    def test_score_needs_model_or_labels(self, graph_files, capsys):
        _g, edges, feats = graph_files
        with pytest.raises(SystemExit) as exc:
            main(["score", "--graph", edges, "--features", feats])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--labels" in err


# text, then the nodes and edges left once the loader drops self-loops
DEGENERATE_EDGE_LISTS = {
    "empty": ("", 0, 0),
    "self-loop": ("1 1\n", 1, 0),
    "one-edge": ("0 1\n", 2, 1),
    "3-cycle": ("0 1\n1 2\n2 0\n", 3, 3),
}
DEGENERATE_COMMANDS = [f"centrality:{m}" for m in METHODS if m != "pine"] + [
    "train", "score:model", "score:labels", "simulate:ltp", "simulate:icp", "simulate:sir",
    "evaluate", "pipeline", "bench", "split", "component",
]
TOO_SMALL = "graph with M={m} edges is too small to split into nonempty parts"
NO_NODES = ":1: node id 0 names no node: the graph has no nodes"
NOT_EMPTY = ["self-loop", "one-edge", "3-cycle"]
ALL_ZERO = "NDCG undefined: ground-truth importance is all zero"
# the message of each run that exits 1, by subcommand and edge list; every other run exits 0
DEGENERATE_ERRORS = {
    **{name: dict.fromkeys(DEGENERATE_EDGE_LISTS, f"error [{name}] {TOO_SMALL}") for name in ("train", "split")},
    "bench": dict.fromkeys(DEGENERATE_EDGE_LISTS, f"error [bench] {TOO_SMALL}"),
    "pipeline": {
        "empty": "error [simulate:ltp] graph has no nodes",
        **dict.fromkeys(NOT_EMPTY, f"error [pine] {TOO_SMALL}"),
    },
    "score:labels": {
        "empty": "labels.tsv" + NO_NODES,
        **dict.fromkeys(NOT_EMPTY, "error [score] graph has no edge types"),
    },
    **{f"simulate:{model}": {"empty": "seeds.txt" + NO_NODES} for model in ("ltp", "icp", "sir")},
    "evaluate": dict.fromkeys(["empty", "self-loop"], f"error [evaluate] {ALL_ZERO}"),
}


class TestDegenerateEdgeLists:
    """Every subcommand on an empty edge list, a lone self-loop, one edge and a
    3-cycle: it exits 0 with output sized by the graph, or exits 1 with one
    ``error [...]`` line that names the input or the property that fails."""

    @staticmethod
    def arguments(tmp_path, command, text, features=None):
        """``command``'s arguments on an edge list of ``text``, with ``features`` as its feature file if given."""
        edges, scores = tmp_path / "edges.txt", str(tmp_path / "scores.tsv")
        edges.write_text(text)
        (tmp_path / "seeds.txt").write_text("0\n")
        (tmp_path / "labels.tsv").write_text("0\t1\n")
        gat.save_model(gat.init_model(1, 4, 2, np.random.default_rng(0)), tmp_path / "model.bin")
        config = tmp_path / "conf.ini"
        config.write_text(
            f"[graph]\nedges = {edges}\n" + (f"features = {features}\n" if features else "")
            + "[pipeline]\nmethods = out_degree, pine\nmodels = ltp\n"
            "[diffusion]\nruns = 5\n[train]\nhidden = 4\nmax_epochs = 2\n"
        )
        name, _, option = command.partition(":")
        graph = [name, "--graph", str(edges)] + (["--features", str(features)] if features else [])
        return {
            "centrality": [*graph, "--method", option, "--out", scores],
            "train": [*graph, "--hidden", "4", "--max-epochs", "2", "--out", str(tmp_path / "trained.bin")],
            "score": [*graph, f"--{option}", str(tmp_path / ("model.bin" if option == "model" else "labels.tsv"))],
            "simulate": [*graph, "--model", option, "--seeds", str(tmp_path / "seeds.txt"), "--runs", "5"],
            "evaluate": [name, "--scores", scores, "--truth", scores],
            "pipeline": [name, str(config)],
            "bench": [name, str(config)],
            "split": [*graph, "--out-prefix", str(tmp_path / "split")],
            "component": [*graph, "--out", str(tmp_path / "component.txt")],
        }[name]

    @pytest.mark.parametrize("edge_list", DEGENERATE_EDGE_LISTS)
    @pytest.mark.parametrize("command", DEGENERATE_COMMANDS)
    def test_output_or_named_error(self, tmp_path, capsys, command, edge_list):
        text, n, m = DEGENERATE_EDGE_LISTS[edge_list]
        args = self.arguments(tmp_path, command, text)
        if command == "evaluate":  # the graph's degrees, as truth and as prediction
            assert main(self.arguments(tmp_path, "centrality:degree", text)) == 0
        rc = main(args)
        out, err = capsys.readouterr()
        error = DEGENERATE_ERRORS.get(command, {}).get(edge_list)
        if error is not None:
            assert (rc, out) == (1, "") and err.startswith("error [") and err.count("\n") == 1, err
            assert error.format(m=m) in err
            return
        assert (rc, err) == (0, "")
        name = command.partition(":")[0]
        if name in ("centrality", "score"):
            written = Path(args[-1]).read_text() if name == "centrality" else out
            rows = [line.split("\t") for line in written.splitlines()]
            assert sorted(int(node) for node, _value in rows) == list(range(n))
            assert all(np.isfinite(float(value)) for _node, value in rows)
        elif name == "simulate":
            header, row = out.splitlines()
            assert header == "mean_spread\tstd_spread\truns" and row.endswith("\t5")
        elif name == "evaluate":
            assert [line.split("\t")[0] for line in out.splitlines()] == ["ndcg@100", "spearman", "precision@100"]
        else:
            assert out == f"nodes\t{n}\nedges\t{m}\n"


def pinef1(rows, extra=b""):
    """A PINEF1 feature file of ``rows`` as bytes, then ``extra``."""
    rows = np.asarray(rows, dtype="<f4")
    return MAGIC_FEATURES + struct.pack("<QQ", *rows.shape) + rows.tobytes() + extra


# a broken feature file of 3 rows for the 3-cycle: its name, bytes and the message after "<path>: "
BROKEN_FEATURES = {
    "nan-csv": ("feats.csv", b"1,2\nnan,0\n3,4\n", "feature row 2 holds a NaN or infinite value"),
    "nan-pinef1": ("feats.bin", pinef1([[1, 2], [3, 4], [np.nan, 0]]), "feature row 3 holds a NaN or infinite value"),
    "truncated-pinef1": ("feats.bin", pinef1([[1, 2], [3, 4], [5, 6]])[:-1], "PINEF1 file cut short"),
    "trailing-pinef1": (
        "feats.bin", pinef1([[1, 2], [3, 4], [5, 6]], b"\0" * 5), "5 trailing bytes after the 3 x 2 PINEF1 rows"
    ),
    "zero-columns-pinef1": ("feats.bin", pinef1(np.zeros((3, 0))), "PINEF1 rows have 0 columns"),
}

# the commands that cast features beyond float32 into the GAT's input, by their one error line
FLOAT32_ERRORS = {
    "train": "error [train] {}",
    "score:model": "error [score] {}",
    "score:labels": "error [score] graph has no edge types",
    "pipeline": "error [pine] {}",
    "bench": "error [bench] {}",
}


class TestDegenerateFeatureAndModelFiles:
    """Every subcommand that reads ``--features`` or ``[graph] features`` on a
    feature file with a NaN row (CSV and PINEF1), cut short, with trailing
    bytes or with 0 columns, and ``score --model`` on a model file cut short: each exits 1 with
    one ``error [...]`` line that names the file and what is wrong with it.  On a finite feature
    that float32 cannot hold, each command that trains or runs the GAT names the row."""

    @pytest.mark.parametrize("case", BROKEN_FEATURES)
    @pytest.mark.parametrize("command", [command for command in DEGENERATE_COMMANDS if command != "evaluate"])
    def test_broken_feature_file_named(self, tmp_path, capsys, command, case):
        name, data, message = BROKEN_FEATURES[case]
        features = tmp_path / name
        features.write_bytes(data)
        assert main(TestDegenerateEdgeLists.arguments(tmp_path, command, "0 1\n1 2\n2 0\n", features)) == 1
        stage = "load" if command in ("pipeline", "bench") else command.partition(":")[0]
        assert capsys.readouterr() == ("", f"error [{stage}] {features}: {message}\n")

    @pytest.mark.parametrize("command", [command for command in DEGENERATE_COMMANDS if command != "evaluate"])
    def test_feature_beyond_float32_named_where_the_gat_casts_it(self, tmp_path, capsys, command):
        # finite features that float32 cannot hold: the GAT's float32 input names the row, and every
        # other command gives what it gives on the same rows at scale 1, as a cosine does not see scale
        features, scores = tmp_path / "feats.csv", tmp_path / "scores.tsv"
        edges = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 2\n1 3\n2 4\n3 5\n"

        def run(rows):
            features.write_text("\n".join(rows) + "\n")
            scores.unlink(missing_ok=True)
            rc = main(TestDegenerateEdgeLists.arguments(tmp_path, command, edges, features))
            return rc, *capsys.readouterr(), scores.read_text() if scores.exists() else None

        got = run(["1", "2", "-1e200", "3", "1e-200", "5"])
        if command in FLOAT32_ERRORS:
            message = FLOAT32_ERRORS[command].format("feature row of node 2 holds -1e+200, beyond float32's range")
            assert got == (1, "", message + "\n", None)
        else:
            assert got[0] == 0 and got == run(["1", "2", "-1", "3", "1", "5"])

    def test_truncated_model_file_named(self, tmp_path, capsys):
        args = TestDegenerateEdgeLists.arguments(tmp_path, "score:model", "0 1\n1 2\n2 0\n")
        model = tmp_path / "model.bin"
        model.write_bytes(model.read_bytes()[:-3])  # the last layer's attention vector loses 3 bytes
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error [score] {model}: layer 2 is truncated (13 of 16 bytes)\n")


TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


@pytest.fixture()
def benchmark_tracer(monkeypatch):
    """The benchmark's Tracer, installed; every attribute it wraps is put
    back when the test ends."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, path, _label in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        if hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    return tracer.Tracer().install()


@pytest.fixture()
def benchmark_worker(monkeypatch):
    """The benchmark's worker module; the ``influence_spread`` it swaps in
    and the ``tracer`` module it imports are undone when the test ends."""
    monkeypatch.setattr(pp, "influence_spread", pp.influence_spread)
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    spec = importlib.util.spec_from_file_location("benchmark_worker", TRACER_PATH.with_name("worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    yield worker
    sys.modules.pop("tracer", None)


class TestBenchmarkTracer:
    def test_every_method_layer_is_traced(self, tmp_path, graph_files, benchmark_tracer):
        _g, edges, feats = graph_files
        path = tmp_path / "all.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            f"[pipeline]\nmethods = {', '.join(METHODS)}\nmodels = ltp, icp, sir\n"
            "[diffusion]\nruns = 5\n"
            "[train]\nhidden = 4\nmax_epochs = 2\npatience = 1\nlr = 0.01\n"
        )
        pp.run_pipeline(path)
        assert benchmark_tracer.missing_targets == []
        names = [span["name"] for span in benchmark_tracer.spans]
        assert {f"centrality.{m}" for m in METHODS if m != "pine"} <= set(names)
        assert {"split.split_edges", "train.train", "pine_score.score_graph"} <= set(names)
        for model in ("ltp", "icp", "sir"):
            assert names.count(f"diffusion.{model}") == len(METHODS)
        # the weights are seed-independent: one computation per pipeline run
        assert names.count("diffusion.influence_weights") == 1

    def test_pipeline_runs_under_benchmark_worker(self, tmp_path, graph_files, benchmark_worker):
        # the worker records seed sets by replacing pine.pipeline.influence_spread
        # with a function of exactly (g, dconf, seeds)
        _g, edges, feats = graph_files
        config = write_config(tmp_path, edges, feats)
        expected = run_pipeline(config)
        result = benchmark_worker.pipeline(config, False)
        assert result["report"] == expected
        assert len(result["seed_sets"]) == 3 * 3
