"""Golden CLI output: exit code, stdout and stderr of fixed command lines.

`tests/golden_cli.json` records each line of `COMMANDS`, with and without
``--json``, replayed in-process from the repository root.  A number of
magnitude below 1e-12 compares as one token, so rounding noise of another
machine's SIMD or BLAS does not fail the test; every other byte must match.

Regenerate the file, after an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from hoggsat.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_cli.json"

COMMANDS = (
    # the README examples
    ("solve", "v1 & !v2 & v3"),
    ("solve", "!v2", "--n", "3"),
    ("verify", "--all", "--max-n", "6"),
    ("verify", "3", "3"),
    ("prep", "3"),
    ("prep", "3", "--scheme", "demos/data/three_spin.scheme"),
    ("compare", "demos/data/measured_prep_diag.csv", "--ideal-index", "000", "--threshold", "0.06"),
    ("compare", "demos/data/measured_final_nv1_v2_v3.csv",
     "--ideal-formula", "!v1 & v2 & v3", "--bit-order", "lsb-v1", "--threshold", "0.10"),
    ("pulse", "verify", "v1 & v2 & v3", "(XY~X)1(XY~X)2(XY~X)3"),
    ("pulse", "verify", "v1", "X1^2 Y2 Y3"),
    ("pulse", "compile-R", "v1 & v2 & v3"),
    ("pulse", "compile-gamma", "3", "--n", "3"),
    ("pulse", "lower"),
    ("spectrum", "pseudo-pure", "--spin", "2"),
    # edges: a zero-tolerance listing, a non-factorable diagonal, the
    # formula cap past the dense cap, and a count past the formula cap
    ("solve", "v1 & !v2", "--tolerance", "0"),
    ("pulse", "compile-r", "v1 & v2"),
    ("pulse", "compile-gamma", "0", "--n", "16"),
    ("verify", "17", "1"),
    # the built-in four-spin scheme and a prep-state spectrum
    ("prep", "4"),
    ("spectrum", "prep", "--spin", "1"),
    # solve on a repeated literal (a false UNSAT), a contradiction (UNSAT)
    # and the lsb-v1 display order
    ("solve", "v1 & v1 & v1 & v2"),
    ("solve", "v1 & !v1"),
    ("solve", "v1 & !v2 & v3", "--bit-order", "lsb-v1"),
    # repeated literals at odd and even m, and a zero-tolerance listing of one
    ("solve", "v1 & v1 & v2"),
    ("solve", "v2 & v2 & !v3 & v1", "--n", "4"),
    ("solve", "v1 & v1 & v1 & v2", "--tolerance", "0"),
)

# a decimal number: signed after a digit (the imaginary part of ``1-0i``),
# otherwise standing alone; never a bit string such as ``000``
_NUMBER_RE = re.compile(r"(?:(?<=\d)[-+]|(?<![\w.])-?)(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?"
                        r"(?![\d.]|[a-hj-zA-Z_])")


def _tokens(text: str) -> str:
    """The text with every number of magnitude below 1e-12 as one token."""
    return _NUMBER_RE.sub(lambda m: "<~0>" if abs(float(m[0])) < 1e-12 else m[0], text)


def _argvs():
    return [list(command) + flags for command in COMMANDS for flags in ([], ["--json"])]


def replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one command line, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_the_commands():
    assert [record["argv"] for record in RECORDS] == _argvs()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_output_is_unchanged(record):
    got = replay(record["argv"])
    assert got["exit"] == record["exit"]
    assert _tokens(got["stdout"]) == _tokens(record["stdout"])
    assert _tokens(got["stderr"]) == _tokens(record["stderr"])


def test_tiny_numbers_compare_as_one_token():
    assert _tokens("error 2.22e-16, phase 1-0i") == _tokens("error 0, phase 1+1.5e-17i")
    assert _tokens('"re": -0.0') == _tokens('"re": 0') != _tokens('"re": 1e-12')
    assert _tokens("000 : 0.500000000000, v10") == "000 : 0.500000000000, v10"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([replay(argv) for argv in _argvs()], indent=1) + "\n")
    print(f"wrote {len(COMMANDS) * 2} records to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
