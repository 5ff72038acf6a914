"""The GAT's column blocks and its one worker thread.

Trained parameters and pine scores are the same bits whether the second
block runs on the worker thread or inline, and on one CPU or two.  The
functions that ``benchmark/tracer.py`` wraps run on the main thread only, as
often as the epochs ask, and no thread beyond the one worker is left behind.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import pine
from pine import gat, pipeline, split, train

from conftest import random_graph

SRC = str(Path(pine.__file__).resolve().parents[1])

# sha256 of the trained parameters and of the pine scores, on a 400-node graph
# with binary features; TRAINED_DIGESTS.format(layers=...) runs as a script
TRAINED_DIGESTS = """
import hashlib
import numpy as np
from pine.graph import build_graph
from pine.pine_score import score_graph
from pine.split import split_edges
from pine.train import TrainConfig, train

rng = np.random.default_rng(3)
n = 400
g = build_graph(n, rng.integers(0, n, 2400), rng.integers(0, n, 2400), (rng.random((n, 64)) < 0.1) * 1.0)
config = TrainConfig(hidden_size=16, num_layers={layers}, max_epochs=6, patience=6, learning_rate=0.01, rng_seed=1)
model, _log = train(g, split_edges(g, rng_seed=1), config)
params = b"".join(p.tobytes() for p in model.parameters())
scores = score_graph(g, model, {layers} - 1).values.tobytes()
print(hashlib.sha256(params).hexdigest(), hashlib.sha256(scores).hexdigest())
"""


def trained_digests(layers, capsys) -> str:
    exec(TRAINED_DIGESTS.format(layers=layers), {})
    return capsys.readouterr().out


class Inline:
    """An executor that runs each call as it is submitted, on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class Recording:
    """The worker thread, noting the thread each submitted call runs on."""

    def __init__(self, worker):
        self.worker, self.threads = worker, []

    def submit(self, fn, *args):
        def run():
            self.threads.append(threading.current_thread())
            return fn(*args)

        return self.worker.submit(run)


@pytest.mark.parametrize("layers", [1, 2])
def test_worker_thread_gives_the_bits_of_inline_blocks(layers, monkeypatch, capsys):
    recording = Recording(gat._WORKER)
    monkeypatch.setattr(gat, "_WORKER", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock between the threads as often as it can go
    try:
        on_worker = trained_digests(layers, capsys)
    finally:
        sys.setswitchinterval(interval)
    assert recording.threads and threading.main_thread() not in recording.threads
    monkeypatch.setattr(gat, "_WORKER", Inline())
    inline = trained_digests(layers, capsys)
    assert len(on_worker.split()) == 2 and inline == on_worker


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("layers", [1, 2])
def test_one_cpu_gives_the_bits_of_two(layers):
    # the affinity is set before numpy loads, so OpenBLAS sizes its thread pool by it too
    cpus = sorted(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": SRC}
    out = []
    for count in (1, 2):
        pin = f"import os\nos.sched_setaffinity(0, {cpus[:count]})\nassert len(os.sched_getaffinity(0)) == {count}\n"
        script = pin + TRAINED_DIGESTS.format(layers=layers)
        out.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout)
    assert len(out[0].split()) == 2 and out[0] == out[1]


def test_in_blocks_returns_in_order_and_raises_after_every_call_ended():
    assert gat.in_blocks(lambda x: (x, threading.current_thread() is threading.main_thread()), [3, 4]) == [
        (3, True), (4, False)]
    ended = []

    def fail_first(x):
        if x == 0:
            raise ValueError("block 0")
        time.sleep(0.05)
        ended.append(x)

    with pytest.raises(ValueError, match="block 0"):
        gat.in_blocks(fail_first, [0, 1])
    assert ended == [1]  # the worker's call had ended when the caller's error was raised
    with pytest.raises(KeyError):
        gat.in_blocks(lambda x: {}[x], [0, 1])


def blocks_in_child():
    assert gat.in_blocks(lambda x: x + 1, [0, 1]) == [1, 2]


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_starts_its_own_worker():
    # a fork copies the executor but not its thread: without a fresh executor the child's
    # first block would wait forever for a worker that is not there
    gat.in_blocks(lambda x: x, [0, 1])  # the worker thread runs before the fork
    child = multiprocessing.get_context("fork").Process(target=blocks_in_child)
    child.start()
    child.join(30)
    if child.exitcode is None:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("width, blocks", [(1, [(0, 1)]), (2, [(0, 1), (1, 2)]), (3, [(0, 2), (2, 3)]),
                                           (512, [(0, 256), (256, 512)])])
def test_blocks_are_fixed_by_the_width(width, blocks):
    assert [(c.start, c.stop) for c in gat._blocks(width)] == blocks


# what benchmark/tracer.py wraps, by the module attribute the pipeline calls through
TRACED = [
    (gat, "forward"), (gat, "loss_and_gradients"), (train.Adam, "step"), (train, "evaluate_auc"),
    (split, "sample_negatives"), (train, "sample_negatives"), (pipeline, "score_graph"),
]


def test_traced_functions_run_on_the_main_thread(workloads, tmp_path, monkeypatch):
    calls = []  # (name, thread, inside train)
    inside = []

    def wrap(owner, name, label):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append((label, threading.current_thread(), bool(inside)))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in TRACED:
        wrap(owner, name, name)
    original_train = pipeline.train

    def traced_train(*args, **kwargs):
        inside.append(True)
        try:
            return original_train(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(pipeline, "train", traced_train)
    generated = workloads.write_workload(workloads.WORKLOADS["cora-train"], 7, str(tmp_path))
    pipeline.run_pipeline(generated.config)
    assert {thread for _name, thread, _inside in calls} == {threading.main_thread()}
    count = lambda name, in_train=(False, True): sum(n == name and i in in_train for n, _t, i in calls)  # noqa: E731
    assert count("forward") == 42 and count("forward", [True]) == 41  # one more for the scores
    assert count("sample_negatives", [True]) == 40
    assert count("loss_and_gradients") == count("step") == count("evaluate_auc") == 40
    assert count("score_graph") == 1
    assert threading.active_count() <= 2


def test_pipeline_command_exits_in_a_subprocess(tmp_path):
    # the worker thread, idle once training ends, does not keep the interpreter from exiting
    g = random_graph(40, 0.1, np.random.default_rng(2), d=5)
    g.write_edge_list(tmp_path / "edges.txt")
    np.savetxt(tmp_path / "feats.csv", g.features, delimiter=",")
    config = tmp_path / "conf.ini"
    config.write_text(
        f"[graph]\nedges = {tmp_path / 'edges.txt'}\nfeatures = {tmp_path / 'feats.csv'}\n"
        "[pipeline]\nmethods = out_degree, pine\nmodels = ltp\n[diffusion]\nruns = 20\n"
        "[train]\nhidden = 8\nmax_epochs = 5\npatience = 5\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "pine.cli", "pipeline", str(config)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "\npine\tltp\t" in proc.stdout
