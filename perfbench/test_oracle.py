"""Tests of the benchmark's oracle and output checks.

    PYTHONPATH=src python -m pytest -q perfbench/test_oracle.py

The oracle must agree with hoggsat where hoggsat is right, and each check
must reject a report with one value perturbed.
"""

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hoggsat as hs  # noqa: E402
from hoggsat import cli  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def to_oracle_scheme(scheme):
    return [
        (tuple(("CN", g.control, g.target) if isinstance(g, hs.CNot) else ("N", g.spin)
               for g in e.gates), e.tip_spins)
        for e in scheme.experiments
    ]


def same_up_to_phase(a, b, tol=1e-10) -> bool:
    err, _ = hs.linalg.phase_aligned_error(np.asarray(a), np.asarray(b))
    return err <= tol


# ---------------------------------------------------------------------------
# oracle against the package
# ---------------------------------------------------------------------------

def test_catalog_transcription_matches_package_table():
    assert wl.THREE_SPIN_CATALOG == tuple((r.formula_text, r.sequence_text) for r in hs.THREE_SPIN_TABLE)


@pytest.mark.parametrize("row", hs.THREE_SPIN_TABLE, ids=lambda r: r.formula_text)
def test_catalog_rows(row):
    literals = wl.parse_literals(row.formula_text)
    assert oracle.solution_set(literals, 3) == row.solution_assignments()
    pulses = oracle.parse_pulses(row.sequence_text)
    assert oracle.equivalent_to_search(pulses, literals, 3)
    unitary = hs.sequence_to_unitary(hs.parse_pulse_sequence(row.sequence_text), 3)
    assert same_up_to_phase(oracle.product_state(pulses, 3), unitary[:, 0])


def test_solution_sets_match_brute_force():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        literals = [(rng.randint(1, n), rng.random() < 0.5) for _ in range(rng.randint(1, 6))]
        f = hs.parse_formula(" & ".join(("!" if neg else "") + f"v{v}" for v, neg in literals), n=n)
        assert oracle.solution_set(literals, n) == hs.solutions(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_state_matches_dense_search(n):
    for size in range(1, n + 1):
        for variables in itertools.combinations(range(1, n + 1), size):
            for signs in itertools.product((False, True), repeat=size):
                literals = list(zip(variables, signs))
                text = " & ".join(("!" if neg else "") + f"v{v}" for v, neg in literals)
                target = hs.search_unitary(hs.parse_formula(text, n=n))[:, 0]
                assert same_up_to_phase(oracle.search_state(literals, n), target), text


def test_product_state_matches_sequence_unitary():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 4)
        text = " ".join(
            f"({''.join(rng.choice(('X', 'X~', 'Y', 'Y~', 'Z', 'Z~')) for _ in range(3))}){k}"
            for k in range(1, n + 1))
        unitary = hs.sequence_to_unitary(hs.parse_pulse_sequence(text), n)
        assert same_up_to_phase(oracle.product_state(oracle.parse_pulses(text), n), unitary[:, 0]), text


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_forms(n):
    assert np.allclose(oracle.pseudo_pure_diagonal(n), np.diagonal(hs.target_pseudo_pure(n)).real)
    assert np.allclose(oracle.thermal_diagonal(n), np.diagonal(hs.thermal_state(n)).real)


@pytest.mark.parametrize("n", [3, 4])
def test_prep_diagonal_matches_builtin_schemes(n):
    scheme = hs.builtin_prep_scheme(n)
    total = np.diagonal(hs.run_prep_scheme(scheme, n)).real
    assert np.allclose(oracle.prep_diagonal(to_oracle_scheme(scheme), n), total, atol=1e-12)
    assert oracle.prep_passes(oracle.prep_diagonal(to_oracle_scheme(scheme), n), n) == bool(
        np.abs(hs.run_prep_scheme(scheme, n) - hs.target_pseudo_pure(n)).max() <= 1e-12)


def test_three_spin_scheme_transcription_prepares_pseudo_pure():
    assert oracle.THREE_SPIN_SCHEME == tuple(to_oracle_scheme(hs.builtin_prep_scheme(3)))
    assert oracle.prep_passes(oracle.prep_diagonal(oracle.THREE_SPIN_SCHEME, 3), 3)


def test_prep_diagonal_matches_generated_schemes_with_tips(tmp_path):
    workload = wl.nmr(random.Random(3), ROOT, tmp_path)
    for index in range(3):
        scheme = hs.parse_prep_scheme((tmp_path / f"nmr-{index}.scheme").read_text())
        assert any(e.tip_spins for e in scheme.experiments)
        total = np.diagonal(hs.run_prep_scheme(scheme, wl.NMR_N)).real
        assert np.allclose(oracle.prep_diagonal(to_oracle_scheme(scheme), wl.NMR_N), total, atol=1e-12)
    assert len(workload.ops) == 10


@pytest.mark.parametrize("state", ["pseudo-pure", "thermal"])
@pytest.mark.parametrize("spin", [1, 2, 3])
def test_stick_lines_match_package(state, spin):
    rho = hs.target_pseudo_pure(3) if state == "pseudo-pure" else hs.thermal_state(3)
    want = [(line.frequency_hz, line.amplitude) for line in hs.stick_spectrum(rho, spin, hs.ALANINE)]
    assert np.allclose(oracle.stick_lines(np.diagonal(rho).real, spin), want)


# ---------------------------------------------------------------------------
# each check accepts the program's report and rejects a perturbed one
# ---------------------------------------------------------------------------

def perturbed(stdout: str, edit) -> str:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


def test_solve_check():
    text = "v2 & !v5 & v9 & v11 & !v12 & v13 & v14 & !v16"
    rc, out = run_cli("solve", text, "--n", "16", "--json")
    check = wl._solve(text, 16, "--n", "16").check
    assert check(rc, out) is None
    assert check(rc, perturbed(out, lambda r: r["distribution"][0].update(probability=0.5)))
    assert check(rc, perturbed(out, lambda r: r["distribution"].pop()))
    assert check(rc, perturbed(out, lambda r: r.update(verdict="UNSAT"))) not in (None, wl.FAULT)
    assert check(rc, perturbed(out, lambda r: r["brute_force_solutions"].pop()))
    assert check(1, out)


def test_repeated_literal_formulas_fail_only_by_verdict():
    outcomes = []
    for text in wl.REPEATED_LITERAL_FORMULAS:
        rc, out = run_cli("solve", text, "--n", "16", "--json")
        outcomes.append(wl.check_solve(wl.expect_solve(text, 16), rc, out))
    assert outcomes == [None, None, wl.FAULT, wl.FAULT]


def test_verify_check():
    rc, out = run_cli("verify", "3", "2", "--json")
    assert wl.check_verify(3, 2, rc, out) is None
    assert wl.check_verify(3, 2, rc, perturbed(out, lambda r: r["checks"][0].update(wgw_error=1e-6)))
    assert wl.check_verify(3, 2, rc, perturbed(
        out, lambda r: r["checks"][0].update(wgw_phase={"re": 0.9, "im": 0.0})))
    assert wl.check_verify(3, 1, rc, out)


def test_prep_check():
    diag = oracle.prep_diagonal(oracle.THREE_SPIN_SCHEME, 3)
    rc, out = run_cli("prep", "3", "--json")
    assert wl.check_prep(3, diag, True, rc, out) is None
    assert wl.check_prep(3, diag, True, rc, perturbed(out, lambda r: r["sum_diagonal"].__setitem__(1, 0.25)))
    assert wl.check_prep(3, diag, True, rc, perturbed(out, lambda r: r.update(passed=False)))
    assert wl.check_prep(3, diag, False, rc, out)


def test_pulse_check():
    formula, sequence = wl.THREE_SPIN_CATALOG[6]
    rc, out = run_cli("pulse", "verify", formula, sequence, "--json")
    assert wl.check_pulse(True, rc, out) is None
    assert wl.check_pulse(True, rc, perturbed(out, lambda r: r["verification"].update(state_equivalent=False)))
    assert wl.check_pulse(False, rc, out)


def test_nmr_operations_pass_their_checks(tmp_path):
    workload = wl.nmr(random.Random(5), ROOT, tmp_path)
    for op in workload.ops[:4]:
        for command in op:
            assert command.check(*run_cli(*command.argv)) is None


def test_compare_and_spectrum_checks(tmp_path):
    workload = wl.cli(random.Random(0), ROOT, tmp_path)
    by_command = {c.argv[0]: c for (c,) in workload.ops}
    for name, field in (("compare", "per_entry"), ("spectrum", "lines")):
        command = by_command[name]
        rc, out = run_cli(*command.argv)
        assert command.check(rc, out) is None
        assert command.check(rc, perturbed(out, lambda r: r[field].pop()))
