"""`report` and `export-gates` bytes at benchmark sizes.

Rebuilds a dozen fixed shapes of the benchmark's report grid (N = 512 to
4096, every readout, b = 1 and 2) from the benchmark's own config and table
generators and checks both outputs against the digests the benchmark
recorded in ``perfbench/reference.json``. The reference file is only read.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from qlut.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SHAPES = [
    (512, 512, 512, 1, "SingleBit"),
    (512, 8, 2, 2, "ParallelMultiBit"),
    (512, 32, 4, 2, "SequentialMultiBit"),
    (1024, 64, 8, 1, "SingleBit"),
    (1024, 32, 32, 1, "ParallelMultiBit"),
    (1024, 1024, 4, 1, "SequentialMultiBit"),
    (2048, 16, 16, 1, "SingleBit"),
    (2048, 128, 4, 2, "SequentialMultiBit"),
    (2048, 2048, 1, 2, "ParallelMultiBit"),
    (4096, 64, 8, 1, "SingleBit"),
    (4096, 4096, 64, 1, "SingleBit"),
    (4096, 256, 256, 2, "ParallelMultiBit"),
]


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())["report"]


@pytest.mark.parametrize("shape", SHAPES, ids=workloads.shape_key)
def test_report_and_gate_digests_match_benchmark_reference(shape, reference, tmp_path, capsys):
    N, _, _, b, _ = shape
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workloads.config(shape, workloads.table_words(N, b, "report"))))
    want = reference[workloads.shape_key(shape)]
    assert main(["report", "--config", str(cfg)]) == 0
    assert workloads.digest(capsys.readouterr().out.encode()) == want["report"]
    gates = tmp_path / "gates.txt"
    assert main(["export-gates", "--config", str(cfg), "--out", str(gates)]) == 0
    assert workloads.digest(gates.read_bytes()) == want["gates_digest"]
