"""hoggsat benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload search|verify|nmr|cli|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the code under test is its ``src/``.
Every run measures with several fresh worker processes (worker.py) in
turn, each with one BLAS thread, and pools what they measured.  `--seconds`
(default: run_seconds of BENCHMARK.json) sets how many whole rounds of the
seeded operations each worker runs, from the nominal time of one round, so
that equal arguments always give the same operations.  Untraced,
it reports the end-to-end metrics, with the median set-up time of those
workers and of SETUP_PROBES more that only set up.  Traced, it reports
the per-layer metrics, including the interpreter and import split measured with
``python -X importtime`` in separate processes.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Metric
names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "verify", "nmr", "cli")
MEASURE_WORKERS = 4
SETUP_PROBES = 3
# Seconds one round of each workload takes on the reference machine (see
# README.md).  At run_seconds 20 every workload then does at least 100
# operations, so that its p90 has ten samples beyond it.
ROUND_S = {"search": 1.4, "verify": 1.2, "nmr": 0.5, "cli": 8.0}
STARTUP_PROBES = 5
RUN_BUDGET_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COUNTER_METRICS = {key for counters in tracing.COUNTERS.values() for key, _ in counters}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S} s")
    return left


def start_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return (seconds until READY, final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    watchdog_s = remaining(deadline)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(watchdog_s, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "READY":
            proc.wait()
            raise BenchError(f"worker did not get ready (exit {proc.returncode}): {first!r}")
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _wall_ms(cmd: list[str], deadline: float) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=remaining(deadline))
    return (time.perf_counter() - start) * 1e3


def _import_ms(code: str, module: str, deadline: float) -> float:
    """Cumulative import time of a top-level import, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, check=True,
                          timeout=remaining(deadline))
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2] == f" {module}":
            return int(fields[1]) / 1e3
    raise BenchError(f"no top-level import of {module} in -X importtime output")


def startup_metrics(deadline: float) -> dict[str, float]:
    def median_of(probe, *a):
        return statistics.median(probe(*a, deadline) for _ in range(STARTUP_PROBES))

    return {
        "startup.interpreter_ms": median_of(_wall_ms, [sys.executable, "-c", "pass"]),
        "startup.import_numpy_ms": median_of(_import_ms, "import numpy", "numpy"),
        "startup.import_hoggsat_ms": median_of(_import_ms, "import numpy; import hoggsat.cli",
                                               "hoggsat.cli"),
    }


def end_to_end(raw: dict, setup_samples: list[float]) -> dict[str, float]:
    lat = sorted(s * 1e3 for s in raw["latencies_s"])
    n = len(lat)
    return {
        "ops_per_s": raw["attempted"] / sum(raw["latencies_s"]),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": lat[math.ceil(0.9 * n) - 1],
        "cpu_ms_per_op": raw["cpu_s"] * 1e3 / raw["attempted"],
        "peak_rss_mb": raw["maxrss_kib"] / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(names: list[str], raw: dict, startup: dict[str, float]) -> dict[str, float]:
    ops = raw["attempted"]
    trace = raw["trace"]
    known = set(trace.get("names", ()))
    values = {}
    for name in names:
        if name in startup:
            values[name] = startup[name]
        elif name == "traced.latency_p50_ms":
            values[name] = statistics.median(raw["latencies_s"]) * 1e3
        elif name == "cli.output_bytes":
            values[name] = raw["output_bytes"] / ops
        elif name in COUNTER_METRICS:
            values[name] = trace.get("counters", {}).get(name, 0) / ops
        elif name.endswith((".self_ms", ".calls")):
            function, _, kind = name.rpartition(".")
            if function not in known:
                print(f"warning: {function} is not a public function of hoggsat; "
                      f"{name} reads 0", file=sys.stderr)
            if kind == "calls":
                values[name] = trace.get("calls", {}).get(function, 0) / ops
            else:
                values[name] = trace.get("self_ns", {}).get(function, 0) / 1e6 / ops
        else:
            raise BenchError(f"no measurement defined for per-layer metric {name}")
    return values


def pool(raws: list[dict]) -> dict:
    """Join the measurements of several workers into one."""
    out = {
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "errors": [e for r in raws for e in r["errors"]][:10],
        "error_count": sum(r["error_count"] for r in raws),
        "latencies_s": [x for r in raws for x in r["latencies_s"]],
        "cpu_s": sum(r["cpu_s"] for r in raws),
        "maxrss_kib": max(r["maxrss_kib"] for r in raws),
        "output_bytes": sum(r["output_bytes"] for r in raws),
    }
    if "trace" in raws[0]:
        out["trace"] = {}
        for r in raws:
            tracing.merge(out["trace"], r["trace"])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Measure with MEASURE_WORKERS fresh workers in turn, each running the
    same number of rounds, about an equal share of `seconds`.  Host load on
    a shared machine drifts over seconds, and each process has its own
    memory layout; pooling several workers spread over the run averages
    both.  Each worker's time to READY is one set-up sample, and
    SETUP_PROBES workers that only set up add more."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed)]
    startup = startup_metrics(deadline) if trace else {}
    rounds = max(1, round(seconds / MEASURE_WORKERS / ROUND_S[name]))
    args = [*common, "--rounds", str(rounds), "--trace", str(trace)]
    raws, setup_samples = [], []
    for _ in range(MEASURE_WORKERS):
        setup_s, raw = start_worker(args, deadline)
        setup_samples.append(setup_s)
        raws.append(raw)
    if not trace:
        for _ in range(SETUP_PROBES):
            setup_samples.append(start_worker([*common, "--setup-only"], deadline)[0])
    raw = pool(raws)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"raw-{name}-trace{trace}.json").write_text(
        json.dumps({"seed": seed, "setup_samples_s": setup_samples, **raw}))
    for message in raw["errors"]:
        print(f"check failed: {message}", file=sys.stderr)

    if trace:
        values = per_layer([m["name"] for m in spec["per_layer"]], raw, startup)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(raw, setup_samples)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": raw["error_count"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="about how long one run measures; sets the number of rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hoggsat" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a hoggsat checkout (needs src/hoggsat and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = results[name] = run_workload(name, args.seed, seconds, args.trace, spec)
            print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
                  f"outputs {'correct' if result['correct'] else 'WRONG'}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
