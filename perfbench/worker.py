"""One benchmark run of one workload, in a fresh interpreter.

    python perfbench/worker.py --workload W --seed N --rounds R --trace 0|1 [--setup-only]

Builds the seeded round, runs its first operations as a warm-up and prints
``READY``; `run.py` takes the time from process start to that line as one
set-up sample.  Then it runs the round `--rounds` times, one operation at a
time, and prints one JSON line of raw measurements.  Wall and CPU time are
taken around the hoggsat calls only, so the checks of the reports do not
count.  `run.py` sets the environment: one BLAS thread and ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COMMAND_TIMEOUT_S = 60


class InProcess:
    """Calls hoggsat.cli.main with stdout captured; CPU time is this
    process's."""

    def __init__(self):
        import hoggsat.cli

        self.cli = hoggsat.cli

    def __call__(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(argv))
        return rc, buf.getvalue()

    @staticmethod
    def cpu_s() -> float:
        return time.process_time()

    @staticmethod
    def maxrss_kib() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class FreshProcess:
    """Runs each command as ``python -m hoggsat``; when traced, through
    trace_child.py, whose span summaries are merged into `summary`.  CPU
    time and peak RSS are those of the child processes."""

    def __init__(self, scratch: Path, traced: bool):
        self.stats = scratch / "child-summary.json"
        self.traced = traced
        self.summary: dict = {}

    def __call__(self, argv) -> tuple[int, str]:
        if self.traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(self.stats), *argv]
        else:
            cmd = [sys.executable, "-m", "hoggsat", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        if self.traced:
            tracing.merge(self.summary, json.loads(self.stats.read_text()))
            self.stats.unlink()
        return proc.returncode, proc.stdout

    @staticmethod
    def cpu_s() -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    @staticmethod
    def maxrss_kib() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Paths in command lines are relative to the checkout and of fixed
    # length, so that report sizes do not depend on where it lies.
    os.chdir(ROOT)
    scratch = OUT.relative_to(ROOT) / f"tmp-{os.getpid():07d}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    wl = workloads.build(args.workload, args.seed, Path("."), scratch)
    tracer = tracing.Tracer() if args.trace and wl.in_process else None
    if tracer is not None:
        tracing.install(tracer)
    call = InProcess() if wl.in_process else FreshProcess(scratch, bool(args.trace))

    errors: list[str] = []

    def run_op(op) -> tuple[float, float, int, bool]:
        """(latency s, CPU s, stdout bytes, shows the known fault) of one
        operation."""
        elapsed, cpu, out_bytes, outputs = 0.0, 0.0, 0, []
        for command in op:
            cpu0, start = call.cpu_s(), time.perf_counter()
            rc, stdout = call(command.argv)
            elapsed += time.perf_counter() - start
            cpu += call.cpu_s() - cpu0
            out_bytes += len(stdout.encode())
            outputs.append((command, rc, stdout))
        verdicts = [command.check(rc, stdout) for command, rc, stdout in outputs]
        for command, verdict in zip(op, verdicts):
            if verdict not in (None, workloads.FAULT):
                errors.append(f"{' '.join(command.argv)}: {verdict}")
        return elapsed, cpu, out_bytes, workloads.FAULT in verdicts

    for op in wl.ops[:wl.warmup]:
        run_op(op)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.reset()
    if isinstance(call, FreshProcess):
        call.summary = {}
    latencies, cpu_s, failed, out_bytes = [], 0.0, 0, 0
    for _ in range(args.rounds):
        for op in wl.ops:
            elapsed, cpu, nbytes, fault = run_op(op)
            latencies.append(elapsed)
            cpu_s += cpu
            out_bytes += nbytes
            failed += fault

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:10],
        "error_count": len(errors),
        "latencies_s": latencies,
        "cpu_s": cpu_s,
        "maxrss_kib": call.maxrss_kib(),
        "output_bytes": out_bytes,
    }
    if args.trace:
        result["trace"] = tracer.summary() if tracer is not None else call.summary
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
