"""The seed-7 ``pine pipeline`` reports of the benchmark's three workloads,
byte for byte.

``data/<workload>-seed7.tsv`` holds each report as ``run_pipeline`` wrote it
with numpy 2.4, scipy 1.17 and OpenBLAS.  Another BLAS may move the float32
sums of the GAT, and with them the cora-train and scale-500k reports.  A
change that moves a report on purpose (an RNG-stream change, say) rewrites
its file in the same change.
"""

import difflib
from pathlib import Path

import pytest

from pine.pipeline import run_pipeline

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", ["cora-train", "cora-spread", "scale-500k"])
def test_report_is_byte_identical(name, workloads, tmp_path):
    generated = workloads.write_workload(workloads.WORKLOADS[name], 7, str(tmp_path))
    expected = (HERE / "data" / f"{name}-seed7.tsv").read_bytes()
    got = run_pipeline(generated.config).encode("utf-8")
    diff = difflib.unified_diff(
        expected.decode("utf-8").splitlines(keepends=True), got.decode("utf-8").splitlines(keepends=True),
        f"data/{name}-seed7.tsv", "run_pipeline",
    )
    assert got == expected, "".join(diff)
