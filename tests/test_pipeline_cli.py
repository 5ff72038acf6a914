import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import pine.cli as cli
import pine.pipeline as pp
from pine.cli import main
from pine.diffusion import DiffusionConfig, influence_spread
from pine.graph import EmptyGraphError, load_graph
from pine.pine_score import TOP_K_TYPES
from pine.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineError,
    benchmark,
    compute_method_scores,
    load_config,
    run_pipeline,
)
from pine.scores import ScoreFileError, ScoreVector, read_score_tsv
from pine.split import split_edges
from pine.train import TrainConfig

from conftest import random_graph


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
        ],
        ids=["negative", "duplicate", "past-the-end", "fractional"],
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

    def test_evaluate_reports_bad_row(self, tmp_path, capsys):
        truth, pred = tmp_path / "truth.tsv", tmp_path / "pred.tsv"
        truth.write_text("0\t1\n1\t2\n")
        pred.write_text("0\t1\n2\t2\n")
        assert main(["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "spearman"]) == 1
        assert f"{pred}:2: node id 2 is past the last node (1)" in capsys.readouterr().err


class TestTopFraction:
    def test_floor_of_fraction(self):
        sv = ScoreVector(np.arange(10.0), "x")
        assert sv.top_fraction(0.25).size == 2

    def test_highest_scores_selected(self):
        sv = ScoreVector(np.array([5.0, 1.0, 9.0, 3.0]), "x")
        assert set(sv.top_fraction(0.5)) == {0, 2}

    def test_boundary_tie_by_id(self):
        sv = ScoreVector(np.array([1.0, 2.0, 2.0, 2.0]), "x")
        assert list(sv.top_fraction(0.5)) == [1, 2]

    def test_zero_when_tiny_fraction(self):
        sv = ScoreVector(np.arange(5.0), "x")
        assert sv.top_fraction(0.1).size == 0


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
        monkeypatch.setenv("PINE_THREADS", "8")
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
        ScoreVector(g.out_degrees().astype(float), "t").write_tsv(truth)
        ScoreVector(g.out_degrees().astype(float), "p").write_tsv(pred)
        rc = main(
            ["evaluate", "--scores", str(pred), "--truth", str(truth), "--metrics", "spearman,ndcg@10"]
        )
        assert rc == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().split("\n"))
        assert float(lines["spearman"]) == pytest.approx(1.0)
        assert float(lines["ndcg@10"]) == pytest.approx(1.0)

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

    def test_score_needs_model_or_labels(self, graph_files, capsys):
        _g, edges, feats = graph_files
        with pytest.raises(SystemExit) as exc:
            main(["score", "--graph", edges, "--features", feats])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--labels" in err


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
