import importlib.util
from pathlib import Path

import numpy as np
import pytest

import pine.pipeline as pp
from pine.cli import main
from pine.graph import load_graph
from pine.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineError,
    benchmark,
    compute_method_scores,
    load_config,
    run_pipeline,
)
from pine.scores import ScoreVector, read_score_tsv

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
        assert config.runs == 1000
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

    def test_component_subcommand(self, tmp_path, rng, capsys):
        # two weak components: a 4-cycle and an edge pair
        edges = tmp_path / "two.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n4 5\n")
        rc = main(["component", "--graph", str(edges), "--out", str(tmp_path / "cc.txt")])
        assert rc == 0
        out = dict(l.split("\t") for l in capsys.readouterr().out.strip().split("\n"))
        assert out["nodes"] == "4"
        assert out["edges"] == "4"

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


class TestBenchmarkTracer:
    def test_every_method_layer_is_traced(self, tmp_path, graph_files, benchmark_tracer):
        _g, edges, feats = graph_files
        path = tmp_path / "all.ini"
        path.write_text(
            f"[graph]\nedges = {edges}\nfeatures = {feats}\n"
            f"[pipeline]\nmethods = {', '.join(METHODS)}\nmodels = ltp\n"
            "[diffusion]\nruns = 5\n"
            "[train]\nhidden = 4\nmax_epochs = 2\npatience = 1\nlr = 0.01\n"
        )
        pp.run_pipeline(path)
        assert benchmark_tracer.missing_targets == []
        names = {span["name"] for span in benchmark_tracer.spans}
        assert {f"centrality.{m}" for m in METHODS if m != "pine"} <= names
        assert {"split.split_edges", "train.train", "pine_score.score_graph"} <= names
