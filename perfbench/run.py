"""thermolight benchmark: run one workload for a fixed time, check every op, print the metrics.

    python3 perfbench/run.py --workload reduce_sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20     # all four, one after another

Each workload is a closed loop with one client: the next op starts when
the previous one ends. Ops cycle through inputs drawn from --seed until
--seconds have passed. Every op's outputs are checked; an op that raises,
exits non-zero or fails its check counts as failed.

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from spans around the benchmark's calls into thermolight's modules.
Lines before it give the same numbers by name and unit, with the run's
provenance. Results and spans are also written under .perfbench_out/.
Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from provenance import BenchmarkError, check_copy, checkout_init, child_env, provenance, steal_ticks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench_out"  # relative to ROOT, so paths in the inputs match across checkouts
SETUP_REPEATS = 5
# counts are totals over the first COUNTED inputs, which a traced run always completes;
# in bit-reversed order they spread evenly over each workload's cost range
COUNTED = 8

# one fresh interpreter's set-up: the package import and its bundled data; the
# untimed import of thermolight.cli afterwards puts the CLI's modules in -X importtime
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import thermolight
thermolight.load_ion("ba138p")
thermolight.ReferenceSolarSpectrum.load_bundled()
t1 = time.perf_counter()
import thermolight.cli
print(json.dumps({"file": thermolight.__file__, "setup_s": t1 - t0}))
"""

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

IMPORT_MODULES = ("radiometry", "spectra", "data_pipeline", "acceptance", "cli")
CLI_COMMANDS = ("rate", "virtual-temp", "spectrum", "reduce")
# the per-layer metrics not read under their own name: spans are read as "<span name>_ms"
SOURCES = {
    "op.self_ms": "op_ms",
    "data_pipeline.response_from_csv_ms": "data_pipeline.InstrumentResponse.from_csv_ms",
    **{f"cli.main_ms.{c}": f"cli.main.{c}_ms" for c in CLI_COMMANDS},
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics in ms from `python -X importtime` output.

    The output lists each module after the modules it imported, indented
    two spaces per level. scipy's cost is the cumulative time of every
    scipy module whose importer is not itself a scipy module.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    cumulative = {}
    scipy_ms = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, ms in reversed(entries):  # importers now come before what they imported
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            scipy_ms += ms
        ancestors.append((depth, name))
        cumulative.setdefault(name, ms)
    out = {"import.thermolight_ms": cumulative["thermolight"], "import.scipy_ms": scipy_ms}
    for module in IMPORT_MODULES:
        out[f"import.cumulative_ms.{module}"] = cumulative[f"thermolight.{module}"]
    return out


def setup_sample(importtime: bool) -> tuple[float, dict[str, float]]:
    """One fresh interpreter's set-up time, and its import metrics if asked."""
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", SETUP_CODE]
    proc = subprocess.run(argv, env=child_env(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up interpreter failed: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    check_copy(ROOT, result["file"])
    return result["setup_s"], parse_importtime(proc.stderr) if importtime else {}


def one_op(workload, inp: dict, pass_index: int, tracer, op_id: int) -> tuple[float, str | None]:
    tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            error = workload.run(inp, pass_index, tracer)
    except BenchmarkError:
        raise
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def measure(workload, seconds: float, tracer) -> dict:
    """Run ops until `seconds` have passed (at least one op).

    Inputs are taken in blocks of `workload.block`, each of which spans
    the workload's cost range evenly; every completed block gives one
    throughput and one CPU-per-op sample.

    A traced run also completes the first COUNTED inputs, and runs every
    input twice in a row, once traced and once not, alternating which goes
    first, so that the two latencies give the tracing overhead on
    identical work.
    """
    inputs = workload.inputs
    latencies, errors = [], []
    paired: dict[bool, list[float]] = {False: [], True: []}
    setups: list[tuple[float, dict]] = []
    marks: list[tuple[int, int, float, float]] = []  # (ops, completed ops, wall, cpu) at block starts
    trace = tracer.enabled
    probe = getattr(workload, "probe", None)
    paused = paused_cpu = 0.0  # time spent on set-up interpreters, left out of the loop's time
    cpu0, start = time.process_time(), time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def cpu_used() -> float:
        if workload.in_process:
            return time.process_time() - cpu0 - paused_cpu
        return workload.child_cpu_s

    def mark() -> None:
        marks.append((len(errors), errors.count(None), elapsed(), cpu_used()))

    i = 0
    while i == 0 or elapsed() < seconds or (trace and i < COUNTED):
        # set-up samples are spread over the run so that they see the same machine as the ops
        if len(setups) < SETUP_REPEATS and elapsed() >= len(setups) * seconds / SETUP_REPEATS:
            t0, c0 = time.perf_counter(), time.process_time()
            setups.append(setup_sample(trace))
            paused += time.perf_counter() - t0
            paused_cpu += time.process_time() - c0
            continue
        if i % workload.block == 0:
            mark()
        inp, pass_index = inputs[i % len(inputs)], i // len(inputs)
        tracer.counting = i < COUNTED
        for traced in ((i % 2 == 0, i % 2 == 1) if trace else (False,)):
            tracer.enabled = traced
            latency, error = one_op(workload, inp, pass_index, tracer, len(latencies))
            latencies.append(latency)
            errors.append(error)
            paired[traced].append(latency)
            if traced and probe:
                probe(inp, tracer)
        i += 1
    tracer.enabled = trace
    if i % workload.block == 0:
        mark()
    wall, cpu = elapsed(), cpu_used()
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(trace))
    if workload.in_process:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_rss_kb = workload.child_peak_rss_kb
    blocks = [tuple(b - a for a, b in zip(m0, m1)) for m0, m1 in zip(marks, marks[1:])]
    return {"latencies": latencies, "errors": errors, "paired": paired, "wall_s": wall,
            "cpu_s": cpu, "blocks": blocks, "peak_rss_kb": peak_rss_kb,
            "setup_s": [t for t, _ in setups], "imports": [m for _, m in setups]}


def end_to_end(loop: dict) -> tuple[dict, dict]:
    """(metrics, details): the end-to-end metrics and what the report prints beside them."""
    setup_times = loop["setup_s"]
    attempted = len(loop["latencies"])
    failed = sum(e is not None for e in loop["errors"])
    # a failed op misses any latency limit
    ms = sorted(math.inf if e is not None else l * 1e3 for l, e in zip(loop["latencies"], loop["errors"]))
    beyond = 10 if attempted > 10 else 0  # too few ops for any tail: the slowest one
    # throughput and CPU per op: medians over the run's completed blocks, so that a
    # burst of a slow machine moves one block's sample, not the run's figure; a run
    # too short for a whole block gives its totals
    blocks = loop["blocks"] or [(attempted, attempted - failed, loop["wall_s"], loop["cpu_s"])]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": ms[attempted - 1 - beyond],
        "ops_per_s": statistics.median(done / wall for _, done, wall, _ in blocks),
        "cpu_ms_per_op": statistics.median(cpu * 1e3 / ops for ops, _, _, cpu in blocks),
        "peak_rss_mb": loop["peak_rss_kb"] / 1024.0,
    }
    details = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "op_ms.p50": f"{attempted} ops",
        "op_ms.tail": f"p{100.0 * (attempted - beyond) / attempted:.1f}: {beyond} of {attempted} ops beyond it",
        "ops_per_s": f"median of {len(blocks)} blocks; {attempted - failed} completed in {loop['wall_s']:.2f} s",
        "cpu_ms_per_op": f"median of {len(blocks)} blocks",
    }
    return metrics, details


def per_layer(loop: dict, tracer) -> dict:
    """Every per-layer metric; a layer this workload never calls spends 0 ms in it and reads 0."""
    from tracing import per_op_medians

    imports = {k: statistics.median(m[k] for m in loop["imports"]) for k in loop["imports"][0]}
    found = {**per_op_medians(tracer), **tracer.counts, **imports}
    untraced, traced = (statistics.median(loop["paired"][t]) for t in (False, True))
    found["trace.overhead_ratio"] = traced / untraced
    return {name: found.get(SOURCES.get(name, name), 0.0) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, digest

    workdir = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = Tracer(trace)
    try:
        workload = WORKLOADS[name](seed, ROOT, workdir)
        inputs_digest = digest(workload.inputs, workload.files)
        ticks0 = steal_ticks()
        loop = measure(workload, seconds, tracer)
        ticks1 = steal_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e, details = end_to_end(loop)
    attempted = len(loop["latencies"])
    failures = [e for e in loop["errors"] if e is not None]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": len(workload.inputs), "inputs_digest": inputs_digest,
        "host_steal_share": (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1) if ticks0 and ticks1 else None,
        "attempted": attempted, "failed": len(failures), "failed_ops_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "end_to_end": {k: e2e[k] for k in END_TO_END}, "end_to_end_details": details,
        **(workload.details() if hasattr(workload, "details") else {}),
    }
    if trace:
        result["per_layer"] = per_layer(loop, tracer)
        tracer.write(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json"))
    return result


def print_report(result: dict) -> None:
    steal = result["host_steal_share"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']:g}  "
          f"trace {result['trace']}  inputs {result['inputs']}  digest {result['inputs_digest'][:16]}  "
          f"host steal {'n/a' if steal is None else f'{steal:.1%}'}")
    # a traced run's end-to-end figures include tracing and probes, so only the per-layer ones print
    rows = [] if result["trace"] else [(k, v, UNITS[k], result["end_to_end_details"].get(k, ""))
                                       for k, v in result["end_to_end"].items()]
    rows.append(("failed_ops_ratio", result["failed_ops_ratio"], "-",
                 f"{result['failed']} of {result['attempted']} ops"))
    if result["trace"]:
        rows += [(k, v, UNITS[k], "") for k, v in result["per_layer"].items()]
    for name, value, unit, note in rows:
        print(f"  {name:<58} {value:>14.6g} {unit:<6} {note}")
    if "largest_grid_kb" in result:
        caches = result["provenance"]["caches"]
        print(f"  largest grid {result['largest_grid_kb']:.0f} KB per float64 array; caches {caches}")
    for failure in result["failures"]:
        print(f"  failed op: {failure}")


def run_all(args) -> int:
    """Every workload in a child run of its own, one after another; metrics prefixed by workload.

    A child per workload keeps each in-process workload's peak_rss_mb its own.
    """
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # single-threaded BLAS and OpenMP, here and in every child: the workloads are meant to
    # have no worker threads, and idle pool threads on a shared 2-core machine add noise
    os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    # one CPU for this process and, by inheritance, every child it starts: no migrations
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    if not os.path.isfile(checkout_init(ROOT)):
        print("error: no thermolight sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import thermolight

        check_copy(ROOT, thermolight.__file__)
        machine = provenance(ROOT)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["provenance"] = machine
    print_report(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print("provenance " + json.dumps(machine))
    section = result["per_layer" if args.trace else "end_to_end"]
    # a failed op's latency is infinite; JSON has no infinity, so such a metric reads null
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": UNITS[k]} for k, v in section.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
