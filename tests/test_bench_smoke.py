"""The benchmark's workloads still run against this package: one op of each, checked."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", ["reduce_sweep", "ensemble_heated", "ensemble_transient"])
def test_first_op_of_in_process_workload(name, tmp_path):
    workload = WORKLOADS[name](SEED, ROOT, str(tmp_path))
    assert workload.run(workload.inputs[0], 0, Tracer(False)) is None
    if name == "reduce_sweep":
        # the per-point radiometry probes take one call per grid when the functions take arrays
        assert set(workload.details()["radiometry_probe_mode"].values()) == {"array"}


def test_first_cli_oneshot_op_of_each_command(tmp_path):
    workload = WORKLOADS["cli_oneshot"](SEED, ROOT, str(tmp_path))
    first = workload.inputs[: len(workload.commands)]
    assert [inp["command"] for inp in first] == list(workload.commands)
    for inp in first:
        assert workload.run(inp, 0, Tracer(False)) is None, inp["command"]
