"""Smoke test of the benchmark's own output checks.

Builds the `nmr` round and the `cli` command list of `perfbench/workloads.py`
and runs every command in-process through `hoggsat.cli.main`, so the
benchmark oracle (index-map prep diagonals, product-state pulse verdicts,
shipped-vector deviations, stick lines) judges the reports in the normal
test run.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from hoggsat import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["nmr", "cli"])
def test_every_report_passes_its_check(name, tmp_path):
    round_ = workloads.build(name, seed=1, root=ROOT, scratch=tmp_path)
    failures = []
    for op in round_.ops:
        for command in op:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(command.argv))
            verdict = command.check(rc, out.getvalue())
            if verdict is not None:
                failures.append((command.argv, verdict))
    assert failures == []
