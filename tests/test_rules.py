"""Each package-wide rule has one owner in `formula`: the bit order
(`spin_bit`) and the qubit cap (`check_qubit_count`)."""

import ast
import re
from pathlib import Path

import pytest

import hoggsat
from hoggsat.cli import main
from hoggsat.formula import parse_formula, solutions, spin_bit
from hoggsat.spin_sim import Flip, gate_image

SRC = Path(hoggsat.__file__).parent
#: A hand-written bit-order shift: a spin or variable index subtracted from n.
SHIFT_RE = re.compile(r"(<<|>>) \((f\.)?n -")


def test_bit_order_shifts_live_only_in_spin_bit():
    tree = ast.parse((SRC / "formula.py").read_text())
    (owner,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "spin_bit"]
    owned, elsewhere = [], []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if SHIFT_RE.search(line):
                inside = path.name == "formula.py" and owner.lineno <= lineno <= owner.end_lineno
                (owned if inside else elsewhere).append(f"{path.name}:{lineno}: {line.strip()}")
    assert owned, "the guard's pattern no longer matches spin_bit itself"
    assert elsewhere == []


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_bit_agrees_with_formulas_and_gates(n):
    for k in range(1, n + 1):
        bit = spin_bit(k, n)
        assert bit == min(solutions(parse_formula(f"v{k}", n=n)))
        assert bit == gate_image(Flip(k), n)[0]


@pytest.mark.parametrize("argv,scheme,message", [
    (("prep", "3"), "CN19\n", "gate CN19 out of range for n=3"),
    (("prep", "3"), "TIP9\n", "TIP9 out of range for n=3"),
    (("spectrum", "thermal", "--spin", "4"), None, "spin 4 out of range for n=3"),
    (("solve", "v17"), None, "qubit count must be in [1, 16], got 17"),
    (("solve", "v1", "--n", "17"), None, "qubit count must be in [1, 16], got 17"),
    (("verify", "17", "1"), None, "qubit count must be in [1, 16], got 17"),
    (("prep", "17"), None, "qubit count must be in [1, 16], got 17"),
])
def test_range_errors_exit_2_with_the_owner_message(capsys, tmp_path, argv, scheme, message):
    if scheme is not None:
        path = tmp_path / "bad.scheme"
        path.write_text(scheme)
        argv = (*argv, "--scheme", str(path))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
