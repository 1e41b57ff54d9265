"""Each package-wide rule has one owner: the bit order (`spin_bit`), its one
flip (`reverse_bits`) and the qubit cap (`check_qubit_count`) in `formula`,
the ``--bit-order`` flag in `cli._ordered`, the per-variable literal
counts in `formula.literal_counts`, the gate types, with their index maps
and lowering, in `spin_sim`, and the search verdict in `hogg.solve`.  Pulse-program elements render and multiply themselves."""

import ast
import re
from pathlib import Path

import pytest

import hoggsat
from hoggsat.cli import main
from hoggsat.formula import parse_formula, solutions, spin_bit
from hoggsat.spin_sim import Flip

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


def test_bit_order_flag_is_read_only_in_one_helper():
    tree = ast.parse((SRC / "cli.py").read_text())
    (owner,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_ordered"]
    compares = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and {"msb-v1", "lsb-v1"} & {getattr(c, "value", None) for c in ast.walk(node)}]
    flips = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reverse_bits"]
    assert compares and flips, "the guard no longer finds the helper's own test and flip"
    assert [line for line in compares + flips if not owner.lineno <= line <= owner.end_lineno] == []


def test_no_function_takes_a_reverse_flag():
    # a `reverse` parameter would be a second implementation of the flip
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.arg) and node.arg == "reverse"]
    assert found == []


def isinstance_checks(types):
    """`file:line` of each isinstance call in the package that names one of `types`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(name, "id", getattr(name, "attr", None)) for name in ast.walk(node.args[-1])}
                if names & types:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_gate_types_are_dispatched_only_in_spin_sim():
    found = isinstance_checks({"CNot", "Flip"})
    assert [at for at in found if at.startswith("spin_sim.py:")], "the guard no longer finds spin_sim's own check"
    assert [at for at in found if not at.startswith("spin_sim.py:")] == []


def test_pulse_program_elements_are_not_dispatched_on():
    assert isinstance_checks({"Pulse", "JDelay"}) == []


def test_verdict_literals_live_only_in_hogg():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in ("SAT", "UNSAT")]
    assert [at for at in found if at.startswith("hogg.py:")], "the guard no longer finds solve's verdict"
    assert [at for at in found if not at.startswith("hogg.py:")] == []


def clause_iterations(path):
    """Line of each loop or comprehension in `path` that iterates a `.clauses`."""
    return [node.iter.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.For, ast.comprehension))
            and any(getattr(inner, "attr", None) == "clauses" for inner in ast.walk(node.iter))]


def called_names(tree, function):
    """Names called in the body of the top-level function `function`."""
    (node,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    return {getattr(call.func, "id", None) for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_literal_counts_live_only_in_formula():
    assert clause_iterations(SRC / "formula.py"), "the guard no longer finds literal_counts' own loop"
    assert clause_iterations(SRC / "hogg.py") == []
    tree = ast.parse((SRC / "hogg.py").read_text())
    # solve reads the state and the conflicts through literal_counts, the
    # state by way of the per-qubit factors of U R W
    assert {"state_halves", "conflict_halves"} <= called_names(tree, "solve")
    assert "search_factors" in called_names(tree, "state_halves")
    assert "literal_counts" in called_names(tree, "search_factors")


def test_cli_leaves_the_search_check_to_solve():
    names = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "solve" in names, "the guard no longer reads the names in cli"
    assert names & {"conflict_counts", "measure_distribution", "run_pipeline", "argmax"} == set()


def pulse_imports():
    """Each module pulse imports from, and each `module.name` it imports."""
    imported = []
    for node in ast.walk(ast.parse((SRC / "pulse.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported.extend(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert "formula" in imported, "the guard no longer reads pulse's imports"
    return imported


def test_pulse_imports_nothing_from_spin_sim():
    assert [name for name in pulse_imports() if "spin_sim" in name] == []


def test_pulse_imports_only_the_search_factors_from_hogg():
    # U R W has one form, the per-qubit factors; no butterfly or diagonal
    assert [name for name in pulse_imports() if name.startswith("hogg.")] == ["hogg.search_factors"]


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_bit_agrees_with_formulas_and_gates(n):
    for k in range(1, n + 1):
        bit = spin_bit(k, n)
        assert bit == min(solutions(parse_formula(f"v{k}", n=n)))
        assert bit == Flip(k).image(n)[0]


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
