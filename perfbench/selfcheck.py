"""Checks of the benchmark itself: failure accounting, metric names, parsing, tracing.

    python3 perfbench/selfcheck.py        # about a minute; exit 1 on any failure
    python3 -m pytest perfbench/selfcheck.py

Not named test_*.py, so the repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from provenance import BenchmarkError, check_copy  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CliOneshot, ReduceSweep, digest  # noqa: E402


def _expectations() -> dict:
    with open(os.path.join(HERE, "expectations.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _workdir(name: str) -> str:
    path = os.path.join(ROOT, run.OUT_DIR, f"selfcheck-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_wrong_reference_counts_as_failed():
    workdir = _workdir("reduce")
    try:
        workload = ReduceSweep(1, ROOT, workdir)
        workload.inputs[0]["expect"]["T_K"] *= 1.05
        loop = run.measure(workload, 0.5, Tracer(False))
    finally:
        shutil.rmtree(workdir)
    metrics, _ = run.end_to_end(loop)
    assert loop["errors"][0] is not None, "the op with a wrong reference passed its check"
    assert all(e is None for e in loop["errors"][1:]), loop["errors"]
    failed = sum(e is not None for e in loop["errors"])
    assert failed / len(loop["errors"]) > 0.0
    assert abs(metrics["ops_per_s"] * loop["wall_s"] - (len(loop["errors"]) - failed)) < 1e-9


class _Stub:
    """A workload of millisecond ops whose first input fails its check."""

    in_process = True
    block = 4
    inputs = [{"bad": i == 0} for i in range(block)]

    def run(self, inp: dict, pass_index: int, tr) -> str | None:
        time.sleep(0.001)
        return "wrong reference" if inp["bad"] else None


def test_blocks_count_only_completed_ops():
    loop = run.measure(_Stub(), 0.2, Tracer(False))
    metrics, _ = run.end_to_end(loop)
    assert len(loop["blocks"]) > 2 and all(ops == 4 and done == 3 for ops, done, _, _ in loop["blocks"])
    rates = sorted(done / wall for _, done, wall, _ in loop["blocks"])
    assert rates[0] <= metrics["ops_per_s"] <= rates[-1]


def test_wrong_reference_counts_as_failed_in_a_child():
    workdir = _workdir("cli")
    try:
        workload = CliOneshot(1, ROOT, workdir)
        rate = workload.inputs[0]
        assert rate["command"] == "rate"
        rate["expect"]["phonon_rate_per_s"] *= 1.0 + 1e-6
        error = workload.run(rate, 0, Tracer(False))
    finally:
        shutil.rmtree(workdir)
    assert error is not None and "phonon_rate_per_s" in error
    assert workload.child_cpu_s > 0.0 and workload.child_peak_rss_kb > 0


def test_no_failed_ops_and_every_end_to_end_metric():
    spec = run.SPEC
    names = [w["name"] for w in spec["workloads"]]
    result = _run("--workload", "all", "--seed", "11", "--seconds", "2", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(names)
    wanted = {f"{w}.{m['name']}" for w in names for m in spec["end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_gives_every_per_layer_metric_and_the_seed_shape():
    spec = run.SPEC
    result = _run("--workload", "all", "--seed", "12", "--seconds", "1", "--trace", "1")
    assert result["correct"]
    names = [w["name"] for w in spec["workloads"]]
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in names for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # the shape of the seed code: import dominates a CLI op, fitting a reduction,
    # simulation a heated ensemble
    slowest = max(m[f"cli_oneshot.cli.main_ms.{c}"] for c in run.CLI_COMMANDS)
    assert m["cli_oneshot.cli.import_ms"] > slowest + m["cli_oneshot.op.self_ms"]
    others = sum(v for k, v in m.items() if k.startswith(("reduce_sweep.data_pipeline.", "reduce_sweep.spectra."))
                 and k.endswith("_ms") and k != "reduce_sweep.data_pipeline.fit_temperature_ms")
    assert m["reduce_sweep.data_pipeline.fit_temperature_ms"] > others
    assert m["ensemble_heated.cooling_sim.simulate_ensemble_ms"] > (
        m["ensemble_heated.cooling_sim.ensemble_stats_ms"] + m["ensemble_heated.op.self_ms"]
        + m["ensemble_heated.acceptance.markov_steady_state_occupation_ms"])
    assert m["reduce_sweep.data_pipeline.fit_temperature.iterations"] > 0
    assert m["ensemble_transient.cooling_sim.events"] > 0
    assert all(0.5 < m[f"{w}.trace.overhead_ratio"] < 2.0 for w in names)


def test_expectations_cover_benchmark_json():
    expect = _expectations()
    workloads = set(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == workloads == set(expect["workloads"])
    assert set(expect["per_layer"]) == set(run.PER_LAYER)
    e2e = set(run.END_TO_END) | {"failed_ops_ratio"}
    for metric, entry in expect["per_layer"].items():
        assert set(entry["moves"]) <= e2e, metric
        assert set(entry["workloads"]) <= set(workloads), metric


def test_a_copy_outside_the_checkout_is_refused():
    check_copy(ROOT, os.path.join(ROOT, "src", "thermolight", "__init__.py"))
    try:
        check_copy(ROOT, os.path.join(ROOT, "site-packages", "thermolight", "__init__.py"))
    except BenchmarkError:
        return
    raise AssertionError("an installed copy was accepted")


def test_inputs_repeat_for_a_seed():
    workdir = _workdir("digest")
    try:
        digests = []
        for seed in (5, 5, 6):
            workload = ReduceSweep(seed, ROOT, workdir)
            digests.append(digest(workload.inputs, workload.files))
    finally:
        shutil.rmtree(workdir)
    assert digests[0] == digests[1] != digests[2]


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        750 |   scipy.optimize",
        "import time:        10 |        760 |   thermolight.radiometry",
        "import time:        20 |         20 |   scipy.special",
        "import time:        30 |         50 |   thermolight.spectra",
    ] + [f"import time:         1 |          1 |   thermolight.{m}" for m in ("data_pipeline", "acceptance", "cli")]
      + ["import time:         5 |        900 | thermolight"])
    out = run.parse_importtime(stderr)
    assert abs(out["import.scipy_ms"] - 0.77) < 1e-12  # scipy.optimize (which holds scipy) + scipy.special
    assert out["import.thermolight_ms"] == 0.9
    assert out["import.cumulative_ms.radiometry"] == 0.76


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "op": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "op": 0, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "op": 0, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
    ]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS  {name}")
            except Exception as exc:  # report every check, then exit non-zero
                failures += 1
                print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
