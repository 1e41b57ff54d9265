import argparse
import json
import math
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import hoggsat
from hoggsat import cli, formula, hogg, linalg, pulse, spin_sim
from hoggsat.cli import main
from hoggsat.pulse import THREE_SPIN_TABLE
from hoggsat.spin_sim import MEASURED_PREP_DIAG, MEASURED_SEARCH_DIAGS

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
PREP_CSV = str(DATA / "measured_prep_diag.csv")
ALANINE_SPINS = str(DATA / "alanine.spins")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """Exit status of a command line, usage errors from the parser included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` under every hoggsat name bound to it; return the
    list that records the calling function's name once per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for namespace in (hoggsat, cli, formula, hogg, linalg, pulse, spin_sim):
        for key, value in list(vars(namespace).items()):
            if value is original:
                monkeypatch.setattr(namespace, key, counted)
    return calls


class TestSolve:
    def test_unique_solution(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "v1 & v2 & v3")
        assert code == 0
        assert "top assignment: 111" in out
        assert "probability 1.000000000000" in out
        assert "verdict: SAT" in out

    def test_contradiction_is_unsat(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "v1 & !v1")
        assert code == 0
        assert "verdict: UNSAT" in out
        assert "conflicts of top assignment: 1" in out

    def test_single_clause_with_padding(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "!v2", "--n", "3")
        assert code == 0
        assert out.count(" : 0.250000000000") == 4

    def test_bit_order_flag_reverses_display(self, capsys):
        _, msb, _ = run_cli(capsys, "solve", "v1 & v2 & !v3")
        _, lsb, _ = run_cli(capsys, "solve", "v1 & v2 & !v3", "--bit-order", "lsb-v1")
        assert "top assignment: 110" in msb
        assert "top assignment: 011" in lsb

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "v1 & nonsense")
        assert code == 2
        assert "error" in err

    def test_zero_tolerance_lists_only_solutions(self, capsys):
        # unsupported entries are exact zeros, not rounding noise
        code, out, _ = run_cli(capsys, "solve", "v1 & !v2", "--tolerance", "0")
        assert code == 0
        assert out.splitlines()[2:4] == ["  10 : 1.000000000000", "top assignment: 10   probability 1.000000000000"]

    @pytest.mark.parametrize("text,walsh,counts", [
        # one route for distinct and repeated variables: no butterfly, and
        # the conflicts counted once
        ("v1 & !v4 & v9 & !v16", [], ["solve"]),
        ("v1 & v2 & v1", [], ["solve"]),
    ])
    def test_route_at_the_formula_cap(self, capsys, monkeypatch, text, walsh, counts):
        walsh_calls = count_calls(monkeypatch, hogg, "walsh_apply")
        conflict_calls = count_calls(monkeypatch, formula, "conflict_counts")
        code, _, _ = run_cli(capsys, "solve", text, "--n", "16")
        assert code == 0
        assert walsh_calls == walsh
        assert conflict_calls == counts

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "solve", "!v1 & v3", "--json")
        _, second, _ = run_cli(capsys, "solve", "!v1 & v3", "--json")
        assert first == second
        report = json.loads(first)
        assert report["verdict"] == "SAT"
        assert report["tool"]["name"] == "hoggsat"


class TestVerify:
    def test_single_pair(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "3", "3")
        assert code == 0
        assert "all passed" in out

    def test_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--max-n", "5")
        assert code == 0
        assert out.count("-> pass") == 15

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "1", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["checks"][0]["wgw_error"] <= 1e-12

    def test_json_checks_are_the_library_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "3", "3", "--json")
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check == cli._jsonable(asdict(hogg.verify_wgw(3, 3)))

    def test_builds_no_dense_operator(self, capsys, monkeypatch):
        # the dense operators live in the tests' reference module only, and
        # every butterfly verify runs transforms one vector
        for module, name in ((hogg, "walsh_hadamard"), (hogg, "mixing_matrix"),
                             (linalg, "is_unitary"), (spin_sim, "z_product")):
            assert not hasattr(module, name) and not hasattr(hoggsat, name), name
        original = hogg.walsh_apply
        shapes = []

        def recorded(vec):
            shapes.append(np.shape(vec))
            return original(vec)

        monkeypatch.setattr(hogg, "walsh_apply", recorded)
        code, _, _ = run_cli(capsys, "verify", "3", "3")
        assert code == 0
        assert shapes and set(shapes) == {(8,)}

    def test_sweep_reaches_formula_cap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--max-n", "16")
        assert code == 0
        assert out.count("-> pass") == 16 * 17 // 2
        assert "all passed" in out

    def test_formula_cap_needs_no_dense_matrix(self, capsys):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "verify", "16", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # one dense 2**16 x 2**16 complex matrix takes 64 GiB
        assert peak < 16 * 4**16 / 1024

    @pytest.mark.parametrize("n,m", [("3", "0"), ("2", "5")])
    def test_zero_and_excess_clause_counts_pass(self, capsys, n, m):
        code, out, _ = run_cli(capsys, "verify", n, m)
        assert code == 0
        assert f"n={n} m={m} " in out and "all passed" in out

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_rejects_max_n_below_one(self, capsys, max_n):
        code, out, err = run_cli(capsys, "verify", "--all", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert f"--max-n must be at least 1, got {max_n}" in err


class TestPrep:
    def test_builtin_three_spin(self, capsys):
        code, out, _ = run_cli(capsys, "prep", "3")
        assert code == 0
        assert "4I1zI2zI3z + 2I2zI3z - I3z" in out
        assert "2I1zI2z + 2I1zI3z + I3z" in out
        assert "max residual vs pseudo-pure target: 0 " in out

    def test_builtin_four_spin(self, capsys):
        code, out, _ = run_cli(capsys, "prep", "4")
        assert code == 0
        assert "pass" in out

    def test_identity_scheme_fails_residual(self, capsys, tmp_path):
        scheme = tmp_path / "identity.scheme"
        scheme.write_text("E\n")
        code, out, _ = run_cli(capsys, "prep", "3", "--scheme", str(scheme))
        assert code == 1
        assert "max residual vs pseudo-pure target: 2 " in out

    def test_lint_flags_slow_gate(self, capsys, tmp_path):
        scheme = tmp_path / "slow.scheme"
        scheme.write_text("CN13\n")
        code, out, _ = run_cli(capsys, "prep", "3", "--scheme", str(scheme))
        assert "lint: CN13" in out

    def test_json_report(self, capsys):
        _, out, _ = run_cli(capsys, "prep", "3", "--json")
        report = json.loads(out)
        assert report["passed"] is True
        assert report["experiments"][1]["coefficients"] == {"1,2,3": 1.0, "2,3": 1.0, "3": -1.0}

    def test_json_keeps_one_coefficient_per_term(self, capsys, tmp_path):
        # spin subsets (1, 3) and (13,) get distinct keys
        scheme = tmp_path / "cn13.scheme"
        scheme.write_text("CN13\n")
        _, text, _ = run_cli(capsys, "prep", "13", "--scheme", str(scheme))
        _, out, _ = run_cli(capsys, "prep", "13", "--scheme", str(scheme), "--json")
        (line,) = [line for line in text.splitlines() if line.startswith("experiment 1 ")]
        terms = line.split(": ", 1)[1].replace(" - ", " + ").split(" + ")
        coefficients = json.loads(out)["experiments"][0]["coefficients"]
        assert len(coefficients) == len(terms) == 13
        assert coefficients["1,3"] == 1.0 and coefficients["13"] == 1.0

    def test_runs_each_experiment_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, spin_sim, "run_experiment")
        code, _, _ = run_cli(capsys, "prep", "3")
        assert code == 0
        assert len(calls) == len(spin_sim.builtin_prep_scheme(3).experiments)

    def test_one_walsh_transform_per_experiment(self, capsys, monkeypatch):
        # the z-product decomposition is one Walsh transform, not a popcount per term
        calls = count_calls(monkeypatch, hogg, "walsh_apply")
        code, _, _ = run_cli(capsys, "prep", "3")
        assert code == 0
        assert calls == ["z_product_decomposition"] * len(spin_sim.builtin_prep_scheme(3).experiments)


    @pytest.mark.parametrize("gradient", ["on", "off"])
    @pytest.mark.parametrize("line", ["CN12 TIP0", "CN12 TIP9", "CN14"])
    def test_out_of_range_spin_exits_2(self, capsys, tmp_path, line, gradient):
        scheme = tmp_path / "bad.scheme"
        scheme.write_text(f"@gradient {gradient}\n{line}\n")
        code, out, err = run_cli(capsys, "prep", "3", "--scheme", str(scheme))
        assert code == 2
        assert out == ""
        assert "out of range" in err and "Traceback" not in err

    def test_gradient_on_reaches_the_formula_cap(self, capsys, tmp_path):
        scheme = tmp_path / "tip.scheme"
        scheme.write_text("CN12 TIP9 TIP9\nN3 TIP1\n")
        code, out, _ = run_cli(capsys, "prep", "16", "--scheme", str(scheme), "--json")
        assert code == 1
        report = json.loads(out)
        assert len(report["sum_diagonal"]) == 2**16
        assert report["sum_off_diagonal_max"] == 0.0
        code, _, err = run_cli(capsys, "prep", "17", "--scheme", str(scheme))
        assert code == 2
        assert "qubit count must be in [1, 16], got 17" in err
        code, _, err = run_cli(capsys, "prep", "17")
        assert code == 2
        assert "qubit count must be in [1, 16], got 17" in err

    def test_gradient_off_is_dense_capped(self, capsys, tmp_path):
        scheme = tmp_path / "off.scheme"
        scheme.write_text("@gradient off\nCN12 TIP3\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "prep", "13", "--scheme", str(scheme))
        assert code == 2
        assert out == ""
        assert "n=13 needs a dense 2**13 x 2**13 complex matrix" in err
        assert time.perf_counter() - start < 1.0

    def test_gradient_off_reports_coherences(self, capsys, tmp_path):
        scheme = tmp_path / "off.scheme"
        scheme.write_text("@gradient off\nE\nCN12 TIP3\n")
        code, out, _ = run_cli(capsys, "prep", "3", "--scheme", str(scheme))
        assert code == 1
        assert "sum off-diagonal content: max |entry| 0.5" in out
        assert "experiment 2 (CN12 TIP3): 2I1zI2z + I1z" in out


class TestCompare:
    @pytest.fixture
    def prep_csv(self, tmp_path):
        path = tmp_path / "prep.csv"
        path.write_text("\n".join(str(v) for v in MEASURED_PREP_DIAG))
        return str(path)

    def test_pass_at_six_percent(self, capsys, prep_csv):
        code, out, _ = run_cli(capsys, "compare", prep_csv,
                               "--ideal-index", "000", "--threshold", "0.06")
        assert code == 0
        assert "max deviation: 0.0535" in out
        assert "PASS" in out

    def test_fail_at_five_percent(self, capsys, prep_csv):
        code, out, _ = run_cli(capsys, "compare", prep_csv,
                               "--ideal-index", "000", "--threshold", "0.05")
        assert code == 1
        assert "FAIL" in out

    def test_ideal_formula_with_reversed_bit_order(self, capsys, tmp_path):
        path = tmp_path / "search.csv"
        path.write_text(",".join(str(v) for v in MEASURED_SEARCH_DIAGS["v1 & v2 & v3"]))
        code, out, _ = run_cli(capsys, "compare", str(path),
                               "--ideal-formula", "v1 & v2 & v3",
                               "--bit-order", "lsb-v1", "--threshold", "0.09")
        assert code == 0
        assert "max deviation: 0.08" in out

    def test_ideal_vs_itself(self, capsys, prep_csv):
        code, out, _ = run_cli(capsys, "compare", prep_csv, "--ideal-file", prep_csv)
        assert code == 0
        assert "max deviation: 0" in out

    @pytest.mark.parametrize("argv", [("{dir}", "--ideal-index", "0"), (PREP_CSV, "--ideal-file", "")])
    def test_unreadable_file_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, "compare", *(a.format(dir=tmp_path) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("token,index", [("9", 9), ("-1", -1), ("0010", 10)])
    def test_ideal_index_range_is_checked_before_the_bit_order(self, capsys, token, index):
        for order in ("msb-v1", "lsb-v1"):
            result = run_cli(capsys, "compare", PREP_CSV, "--ideal-index", token, "--bit-order", order)
            assert result == (2, "", f"error: basis index {index} out of range for n=3\n")

    def test_malformed_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1, 2, three, 4")
        code, _, err = run_cli(capsys, "compare", str(path), "--ideal-index", "0")
        assert code == 2
        assert "malformed" in err


class TestPulse:
    @pytest.mark.parametrize("row", THREE_SPIN_TABLE, ids=lambda row: row.formula_text)
    def test_verify_catalog_row(self, capsys, row):
        # n is the larger of the formula's and the sequence's, so the
        # single-clause rows run on three spins
        code, out, _ = run_cli(capsys, "pulse", "verify", row.formula_text, row.sequence_text)
        assert code == 0
        assert "action on |000>: equivalent" in out

    def test_verify_builds_no_embedded_pulse(self, capsys, monkeypatch):
        # the sequence unitary is one Kronecker product of per-spin factors
        calls = count_calls(monkeypatch, linalg, "kron_all")
        code, _, _ = run_cli(capsys, "pulse", "verify", "v1 & !v2 & v3 & !v4 & v5 & v6",
                             "(XY~X)1 (XY~X~)2 (XY~X)3 (XY~X~)4 (XY~X)5 (XY~X)6")
        assert code == 0
        assert calls == ["sequence_to_unitary"]

    def test_verify_empty_sequence_fails(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "verify", "v1", "")
        assert code == 1
        assert "NOT equivalent" in out

    def test_compile_r(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "compile-R", "v1 & v2 & v3")
        assert code == 0
        assert "Z~1 Z~2 Z~3" in out

    def test_compile_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "compile-gamma", "3", "--n", "3")
        assert code == 0
        assert "Z1 Z2 Z3" in out

    @pytest.mark.parametrize("argv,compiled", [
        (("compile-gamma", "3", "--n", "16"), " ".join(f"Z{k}" for k in range(1, 17))),
        (("compile-r", "v1 & v8 & v16"), "Z~1 Z~8 Z~16"),
    ])
    def test_compile_reaches_the_formula_cap(self, capsys, argv, compiled):
        # the round trip joins the factors' diagonals, no 2**16 x 2**16 matrix
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "pulse", *argv)
        assert code == 0
        assert f"compiled sequence: {compiled}\n" in out
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [("compile-r", "v1 & v2 & v3"), ("compile-gamma", "3", "--n", "3"),
                                      ("compile-r", "v1 & v2")])
    def test_compile_checks_once(self, capsys, monkeypatch, argv):
        calls = count_calls(monkeypatch, linalg, "kron_all")
        run_cli(capsys, "pulse", *argv)
        assert calls == ["compile_diagonal"]

    @pytest.mark.parametrize("argv,diag", [
        (("compile-R", "v1 & v2 & v3"), lambda: hogg.phase_matrix(formula.parse_formula("v1 & v2 & v3"))),
        (("compile-gamma", "3", "--n", "3"), lambda: hogg.gamma_matrix(3, 3)),
    ])
    def test_compile_json_is_the_library_report(self, capsys, argv, diag):
        code, out, _ = run_cli(capsys, "pulse", *argv, "--json")
        assert code == 0
        report = json.loads(out)
        compiled = pulse.compile_diagonal(diag())
        assert report["compiled"] == compiled.sequence.to_text()
        assert report["round_trip_error"] == cli._jsonable(compiled.round_trip_error)
        assert report["global_phase"] == cli._jsonable(compiled.global_phase)

    def test_compile_r_even_m_falls_back(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "compile-r", "v1 & v2")
        assert code == 1
        assert "fall back to dense simulation" in out

    def test_no_dense_fallback_past_the_dense_cap(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "compile-gamma", "0", "--n", "16")
        assert code == 1
        assert "fall back" not in out
        assert out.endswith(f"no dense fallback: dense routes stop at n={linalg.MAX_DENSE_QUBITS}\n")

    def test_lower(self, capsys):
        code, out, _ = run_cli(capsys, "pulse", "lower")
        assert code == 0
        assert "delay[1/(2*J12)]" in out
        assert out.count("(pass)") == 3


class TestSpectrum:
    def test_pseudo_pure_line(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "pseudo-pure", "--spin", "2")
        assert code == 0
        assert "44.3750" in out

    def test_thermal_multiplet_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "thermal", "--spin", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report["lines"]) == 4

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "two.spins"
        path.write_text("n 2\nshift 1 0.0\nshift 2 100.0\nj 1 2 10.0\n")
        code, out, _ = run_cli(capsys, "spectrum", "thermal", "--spin", "1",
                               "--params", str(path))
        assert code == 0
        assert "5.0000" in out and "-5.0000" in out

    def test_reads_lines_from_the_diagonal(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, linalg, "kron_all")
        code, _, _ = run_cli(capsys, "spectrum", "prep", "--spin", "2")
        assert code == 0
        assert calls == []

    def test_prepared_state_matches_ideal_target(self, capsys):
        # the built-in scheme prepares the exact pseudo-pure state, so its
        # spectrum equals the ideal one
        _, prepared, _ = run_cli(capsys, "spectrum", "prep", "--spin", "2")
        _, ideal, _ = run_cli(capsys, "spectrum", "pseudo-pure", "--spin", "2")
        assert prepared.splitlines()[1:] == ideal.splitlines()[1:]


@pytest.mark.parametrize("argv", [
    ("verify", "17", "1"),
    ("verify", "--all", "--max-n", "17"),
    ("pulse", "verify", "v16", ""),
    # compile-r reaches n=16, but checking its output against U R W is dense
    ("pulse", "verify", "v1 & v8 & v16", "Z~1 Z~8 Z~16"),
])
def test_dense_cap_rejects_before_allocating(capsys, monkeypatch, argv):
    # verify has no dense route: it stops at the formula cap before any pair runs
    pairs = count_calls(monkeypatch, hogg, "verify_wgw")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    if argv[0] == "verify":
        assert "qubit count must be in [1, 16], got 17" in err
        assert pairs == []
    else:
        assert "n=16 needs a dense 2**16 x 2**16 complex matrix" in err
    assert time.perf_counter() - start < 1.0


def test_parser_is_built_once(capsys, monkeypatch):
    run_cli(capsys, "verify", "1", "1")
    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
    code, _, _ = run_cli(capsys, "verify", "1", "1")
    assert code == 0
    assert built == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hoggsat" in capsys.readouterr().out


# The options each command reads, with a command line it accepts; the words
# after the command's name go after any inserted option.
COMMANDS = {
    "": ((), set()),
    "solve": (("v1",), {"--json", "--tolerance", "--bit-order", "--n"}),
    "verify": (("1", "1"), {"--json", "--tolerance", "--all", "--max-n"}),
    "prep": (("3",), {"--json", "--tolerance", "--params", "--scheme"}),
    "compare": ((PREP_CSV, "--ideal-index", "0"),
                {"--json", "--bit-order", "--ideal-file", "--ideal-index", "--ideal-formula", "--threshold"}),
    "pulse": (("verify", "v1", "X1^2 Y2 Y3"), set()),
    "pulse verify": (("v1", "X1^2 Y2 Y3"), {"--json", "--tolerance"}),
    "pulse compile-r": (("v1",), {"--json"}),
    "pulse compile-gamma": (("1", "--n", "1"), {"--json", "--n"}),
    "pulse lower": ((), {"--json"}),
    "spectrum": (("thermal", "--spin", "1"), {"--json", "--params", "--spin"}),
}
SHARED_OPTIONS = {"--json": (), "--tolerance": ("1",), "--bit-order": ("msb-v1",), "--params": ("x",)}
REMOVED = [(command, option, SHARED_OPTIONS[option])
           for command, (_, kept) in COMMANDS.items() if command
           for option in SHARED_OPTIONS if option not in kept]
REMOVED.append(("pulse lower", "--n", ("3",)))


def option_matrix(parser, path=()):
    """{command path: its option names}, leaving out -h and --version."""
    matrix = {" ".join(path): {a.option_strings[-1] for a in parser._actions
                               if a.option_strings and a.dest not in ("help", "version")}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            first_names = {}
            for name, subparser in action.choices.items():  # aliases follow their command
                first_names.setdefault(subparser, name)
            for subparser, name in first_names.items():
                matrix |= option_matrix(subparser, (*path, name))
    return matrix


def test_each_command_takes_only_the_options_it_reads():
    matrix = option_matrix(cli._build_parser())
    assert matrix == {command: kept for command, (_, kept) in COMMANDS.items()}
    assert sum(map(len, matrix.values())) == 27
    assert len(REMOVED) == 24


@pytest.mark.parametrize("command,option,value", [pytest.param(*r, id=f"{r[0]} {r[1]}") for r in REMOVED])
def test_removed_option_is_a_usage_error(capsys, command, option, value):
    rest, _ = COMMANDS[command]
    assert exit_code(capsys, *command.split(), *rest) == 0
    assert exit_code(capsys, *command.split(), option, *value, *rest) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "3", "3", "--all"),
    ("verify", "3", "--all"),
    ("verify", "3", "3", "--max-n", "9"),
    ("compare", PREP_CSV, "--ideal-index", "0", "--ideal-formula", "v1 & v2 & v3"),
    ("compare", PREP_CSV, "--ideal-file", PREP_CSV, "--ideal-index", "0"),
    ("compare", PREP_CSV),
])
def test_ignored_input_is_a_usage_error(capsys, argv):
    assert exit_code(capsys, *argv) == 2


@pytest.mark.parametrize("argv,message", [
    (("verify", "3", "3", "--all"), "verify: give N and M, or --all, not both"),
    (("verify", "--all", "--max-n", "0"), "verify: --max-n must be at least 1, got 0"),
    (("verify", "3", "3", "--max-n", "9"), "verify: give N and M, or --all [--max-n K]"),
    (("compare", PREP_CSV, "--ideal-formula", "v1"),
     "compare: formula v1 has 4 solutions; an ideal population vector needs exactly one"),
])
def test_usage_errors_inside_commands_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_every_tolerance_is_read(capsys, tmp_path):
    assert exit_code(capsys, "verify", "3", "3") == 0
    assert exit_code(capsys, "verify", "3", "3", "--tolerance", "0") == 1
    assert exit_code(capsys, "pulse", "verify", "v1", "X1^2 Y2 Y3") == 0
    assert exit_code(capsys, "pulse", "verify", "v1", "X1^2 Y2 Y3", "--tolerance", "0") == 1
    scheme = tmp_path / "identity.scheme"
    scheme.write_text("E\n")  # residual 2; the built-in scheme's is exactly 0
    assert exit_code(capsys, "prep", "3", "--scheme", str(scheme)) == 1
    assert exit_code(capsys, "prep", "3", "--scheme", str(scheme), "--tolerance", "100") == 0
    _, out, _ = run_cli(capsys, "solve", "!v2", "--n", "3", "--json")
    assert len(json.loads(out)["distribution"]) == 4
    _, out, _ = run_cli(capsys, "solve", "!v2", "--n", "3", "--tolerance", "1", "--json")
    assert json.loads(out)["distribution"] == []


def test_prep_reads_params(capsys, tmp_path):
    path = tmp_path / "uncoupled.spins"
    path.write_text("n 3\nshift 1 0.0\nshift 2 100.0\nshift 3 200.0\n")
    _, default, _ = run_cli(capsys, "prep", "3")
    _, uncoupled, _ = run_cli(capsys, "prep", "3", "--params", str(path))
    assert "uncoupled" not in default
    assert "lint: CN21: spins 1 and 2 are uncoupled" in uncoupled


@pytest.mark.parametrize("command,argv", [
    ("prep", ("prep", "3")),
    ("spectrum", ("spectrum", "thermal", "--spin", "1")),
    ("pulse lower", ("pulse", "lower")),
    ("pulse compile-r", ("pulse", "compile-R", "v1")),
])
def test_reports_without_bit_order_are_msb_v1(capsys, command, argv):
    _, out, _ = run_cli(capsys, *argv, "--json")
    report = json.loads(out)
    assert report["command"] == command
    assert report["bit_order"] == "msb-v1"


def test_jsonable_rounds_numpy_scalars():
    # numpy's float64 and complex128 subclass float and complex
    report = cli._jsonable({"x": [np.float64(0.1) + np.float64(0.2)], "z": np.complex128(1 / 3 + 2j / 3)})
    assert report == {"x": [0.3], "z": {"im": 0.666666666667, "re": 0.333333333333}}
    assert type(report["x"][0]) is float


def test_json_never_prints_nan():
    with pytest.raises(ValueError, match="JSON"):
        cli._emit({"x": math.nan}, [], True)


@pytest.mark.parametrize("line,message", [
    ("j 2 1 10", "error: line 16: repeated j 1 2 (first on line 7)"),
    ("shift 7 99", "error: line 16: spin 7 out of range for n=3"),
    ("j 2 2 5", "error: line 16: bad coupling pair (2, 2)"),
    ("j 1 4 3", "error: line 16: bad coupling pair (1, 4)"),
])
def test_spin_system_misreads_exit_2(capsys, tmp_path, line, message):
    path = tmp_path / "alanine.spins"
    path.write_text(Path(ALANINE_SPINS).read_text() + line + "\n")
    for argv in (("spectrum", "thermal", "--spin", "1"), ("prep", "3")):
        code, out, err = run_cli(capsys, *argv, "--params", str(path))
        assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("old,new,line", [("t2 2 0.41", "t2 2 -0.41", 14), ("t1 3 1.5", "t1 3 0", 12)])
def test_non_positive_relaxation_time_exits_2(capsys, tmp_path, old, new, line):
    path = tmp_path / "alanine.spins"
    path.write_text(Path(ALANINE_SPINS).read_text().replace(old, new))
    message = f"error: line {line}: {new.split()[0]} must be positive in {new!r}"
    for argv in (("spectrum", "thermal", "--spin", "1"), ("prep", "3")):
        code, out, err = run_cli(capsys, *argv, "--params", str(path))
        assert (code, out, err) == (2, "", message + "\n")


def test_lint_reads_the_size_of_a_negative_coupling(capsys, tmp_path):
    scheme = tmp_path / "slow.scheme"
    scheme.write_text("CN13\n")
    outputs = []
    for j13 in ("1.21", "-1.21"):
        path = tmp_path / "alanine.spins"
        path.write_text(Path(ALANINE_SPINS).read_text().replace("j 1 3 1.21", f"j 1 3 {j13}"))
        _, out, _ = run_cli(capsys, "prep", "3", "--scheme", str(scheme), "--params", str(path))
        outputs.append(out)
    assert "lint: CN13: coupling evolution 1/(2*J) = 0.413 s" in outputs[0]
    assert outputs[1] == outputs[0]


def test_prep_rejects_a_spin_system_of_another_size(capsys):
    code, out, err = run_cli(capsys, "prep", "4", "--params", ALANINE_SPINS)
    assert (code, out) == (2, "")
    assert err == "error: the spin system has 3 spins but the scheme runs on 4\n"


def test_second_gradient_directive_exits_2(capsys, tmp_path):
    scheme = tmp_path / "two.scheme"
    scheme.write_text("@gradient on\nE\n@gradient off\nCN21 TIP1\n")
    code, out, err = run_cli(capsys, "prep", "3", "--scheme", str(scheme))
    assert (code, out) == (2, "")
    assert err == "error: line 3: @gradient must come once, before the first experiment\n"


def test_non_finite_input_exits_2(capsys, tmp_path):
    vector = tmp_path / "nan.csv"
    vector.write_text("nan\n" + "0\n" * 7)
    spins = tmp_path / "nan.spins"
    spins.write_text(Path(ALANINE_SPINS).read_text().replace("shift 1 -4320.0", "shift 1 nan"))
    code, out, err = run_cli(capsys, "compare", str(vector), "--ideal-index", "000", "--json")
    assert (code, out, err) == (2, "", "error: malformed value in vector: non-finite value 'nan'\n")
    code, out, err = run_cli(capsys, "spectrum", "thermal", "--spin", "1", "--params", str(spins), "--json")
    assert (code, out, err) == (2, "", "error: line 4: malformed value in 'shift 1 nan'\n")
    for argv in (("prep", "3", "--tolerance", "nan"), ("solve", "v1", "--tolerance", "inf"),
                 ("compare", PREP_CSV, "--ideal-index", "000", "--threshold", "nan")):
        assert exit_code(capsys, *argv, "--json") == 2
