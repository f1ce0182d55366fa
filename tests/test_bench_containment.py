"""The benchmark's ``containment`` workload, checked call by call.

Builds the workload from ``perfbench/workloads.py`` and runs every unified
chunk at every address, every first-order chunk, and the first and last
bucket-brigade chunk at every address, each through the workload's own
``run`` and ``check`` against ``perfbench/reference.json``. The benchmark
files are only read.
"""
import json

import pytest

import qlut
from conftest import PERFBENCH, workloads


@pytest.fixture(scope="module")
def containment():
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    return workloads.Containment(qlut, 0, None, reference)


def _items():
    c = workloads.Containment
    for a in range(16):
        for chunk in (0, c.BB_CHUNKS - 1):
            yield "bb", a, chunk
        for chunk in range(c.UNI_CHUNKS):
            yield "uni", a, chunk
    for shape in range(len(c.FO_SHAPES)):
        for chunk in range(c.FO_CHUNKS):
            yield "fo", shape, chunk


def test_containment_workload_calls_match_benchmark_reference(containment):
    failed = [item for item in _items()
              if not containment.check(item, containment.run(item))[0]]
    assert failed == []
