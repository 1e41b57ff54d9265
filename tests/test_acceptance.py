"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np

from hoggsat.formula import (
    grover_success_probability,
    parse_formula,
    reverse_bits,
    solutions,
)
from hoggsat.hogg import (
    gamma_matrix,
    phase_matrix,
    solve,
    verify_wgw,
)
from hoggsat.pulse import THREE_SPIN_TABLE, parse_pulse_sequence, verify_table_sequence
from hoggsat.spin_sim import (
    MEASURED_PREP_DIAG,
    MEASURED_SEARCH_DIAGS,
    CNot,
    Flip,
    builtin_prep_scheme,
    error_metrics,
    ideal_population_vector,
    parse_measured_vector,
    run_experiment,
    run_prep_scheme,
    target_pseudo_pure,
    z_product_decomposition,
)
from reference import (
    is_unitary,
    listed_distribution,
    mixing_matrix,
    negate_variable,
    one_sat_formulas,
    walsh_hadamard,
)

PHASE_FIXTURE = np.array([-1j, -1, -1, 1j, -1, 1j, 1j, 1])
GAMMA_FIXTURE = np.array([1, 1j, 1j, -1, 1j, -1, -1, -1j])

EXPERIMENT_TERMS = [
    {(1,): 1.0, (2,): 1.0, (3,): 1.0},
    {(1, 2, 3): 1.0, (2, 3): 1.0, (3,): -1.0},
    {(1, 3): 1.0, (1, 2): 1.0, (3,): 1.0},
]

# per-row maximum absolute off-target entry, read from the tabulated data
EXPECTED_ROW_DEVIATIONS = {
    "v1 & v2 & v3": 0.0800,
    "!v1 & v2 & v3": 0.0959,
    "v1 & !v2 & v3": 0.0716,
    "v1 & v2 & !v3": 0.0881,
    "!v1 & !v2 & v3": 0.157,
    "!v1 & v2 & !v3": 0.0606,
    "v1 & !v2 & !v3": 0.0594,
    "!v1 & !v2 & !v3": 0.0535,
}


def announce(number, passed, detail):
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def test_criterion_01_three_clause_table_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for row in THREE_SPIN_TABLE:
        f = parse_formula(row.formula_text, n=3)
        if f.m != 3:
            continue
        (expected,) = row.solution_assignments()
        probs = listed_distribution(solve(f), f.n)
        worst = max(worst, abs(probs[expected] - 1.0))
        others = np.delete(probs, expected)
        worst = max(worst, float(others.max()))
    elapsed = time.perf_counter() - start
    announce(1, worst <= 1e-10,
             f"8 three-clause runs land on the tabulated assignment "
             f"(worst deviation {worst:.2e}, {elapsed * 1e3:.1f} ms)")


def test_criterion_02_single_clause_table_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for row in THREE_SPIN_TABLE:
        f = parse_formula(row.formula_text, n=3)
        if f.m != 1:
            continue
        expected = row.solution_assignments()
        assert expected == solutions(f)
        probs = listed_distribution(solve(f), f.n)
        for a in range(8):
            target = 0.25 if a in expected else 0.0
            worst = max(worst, abs(probs[a] - target))
    elapsed = time.perf_counter() - start
    announce(2, worst <= 1e-10,
             f"6 single-clause runs uniform at 0.25 over the tabulated solutions "
             f"(bit-order reversal documented; worst deviation {worst:.2e}, "
             f"{elapsed * 1e3:.1f} ms)")


def test_criterion_03_operator_fixtures():
    phase_err = float(np.abs(phase_matrix(parse_formula("v1 & v2 & v3")) - PHASE_FIXTURE).max())
    g = gamma_matrix(3, 3)
    gamma_err = float(np.abs(g / g[0] - GAMMA_FIXTURE).max())
    announce(3, phase_err <= 1e-12 and gamma_err <= 1e-12,
             f"conflict-phase diagonal error {phase_err:.2e}, "
             f"normalized mixing-phase diagonal error {gamma_err:.2e}")


def test_criterion_04_factorization_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for m in range(1, n + 1):
            report = verify_wgw(n, m)
            worst = max(worst, report.wgw_error)
    elapsed = time.perf_counter() - start
    announce(4, worst < 1e-10 and elapsed < 10.0,
             f"U = W Gamma W over 1<=m<=n<=6: max aligned error {worst:.2e} "
             f"in {elapsed:.2f} s")


def test_criterion_05_one_sat_completeness():
    worst = 0.0
    checked = 0
    for n in range(1, 7):
        for f in one_sat_formulas(n):
            sols = solutions(f)
            if not sols:
                continue
            probs = listed_distribution(solve(f), f.n)
            weight = 2.0 ** -(n - f.m)
            total = sum(probs[a] for a in sols)
            worst = max(worst, abs(total - 1.0))
            for a in sols:
                worst = max(worst, abs(probs[a] - weight))
            checked += 1
    announce(5, worst <= 1e-10,
             f"{checked} soluble 1-SAT instances (n<=6): solution probability 1, "
             f"uniform per-solution weight (worst deviation {worst:.2e})")


def test_criterion_06_pseudo_pure_preparation():
    scheme = builtin_prep_scheme(3)
    residual = float(np.abs(run_prep_scheme(scheme, 3) - target_pseudo_pure(3)).max())
    coeff_err = 0.0
    for experiment, expected in zip(scheme.experiments, EXPERIMENT_TERMS):
        coeffs, _ = z_product_decomposition(run_experiment(experiment, 3))
        found = coeffs
        assert set(found) == set(expected)
        coeff_err = max(coeff_err,
                        max(abs(found[k] - expected[k]) for k in expected))
    announce(6, residual < 1e-12 and coeff_err < 1e-12,
             f"scheme sum equals the pseudo-pure target (residual {residual:.2e}); "
             f"per-experiment product-operator coefficients exact "
             f"(max deviation {coeff_err:.2e})")


def test_criterion_07_error_metric_reproduction():
    prep = parse_measured_vector("\n".join(str(v) for v in MEASURED_PREP_DIAG))
    prep_metric = error_metrics(prep, ideal_population_vector(3, 0)).max_abs_dev
    ok = abs(prep_metric - 0.0535) <= 1e-12 and prep_metric < 0.06

    row_values = {}
    exceeding = []
    for text, vector in MEASURED_SEARCH_DIAGS.items():
        measured = parse_measured_vector(",".join(str(v) for v in vector))
        (solution,) = solutions(parse_formula(text))
        target = reverse_bits(solution, 3)  # tabulated vectors use reversed order
        assert int(np.argmax(measured)) == target
        metric = error_metrics(measured, ideal_population_vector(3, target)).max_abs_dev
        expected = max(abs(v) for i, v in enumerate(vector) if i != target)
        ok = ok and abs(metric - expected) <= 1e-12
        ok = ok and abs(metric - EXPECTED_ROW_DEVIATIONS[text]) <= 1e-12
        row_values[text] = metric
        if metric >= 0.09:
            exceeding.append(text)
    first_row = row_values["v1 & v2 & v3"]
    ok = ok and abs(first_row - 0.0800) <= 1e-12 and first_row < 0.09
    ok = ok and min(row_values.values()) == 0.0535 and max(row_values.values()) == 0.157
    ok = ok and exceeding == ["!v1 & v2 & v3", "!v1 & !v2 & v3"]
    listing = ", ".join(f"{v:.4f}" for v in row_values.values())
    duplicate = MEASURED_SEARCH_DIAGS["!v1 & !v2 & !v3"] == MEASURED_PREP_DIAG
    announce(7, ok,
             f"prepared-state metric 0.0535 (<6%); per-row metrics {listing} "
             f"(range 0.0535-0.157; rows above 0.09 carry that in the data itself)"
             + ("; the !v1 & !v2 & !v3 row equals the prepared-state readout entry for "
                "entry, an unconfirmed possible transcription duplicate kept in the gate"
                if duplicate else ""))


def test_criterion_08_unstructured_search_comparison():
    value = grover_success_probability(3, 2)
    announce(8, abs(value - 0.945) <= 0.005,
             f"two-iteration unstructured-search success probability {value:.6f} "
             f"(near 95%) vs single-step structured search at 100%")


def test_criterion_09_pulse_sequence_verification():
    worst = 0.0
    for row in THREE_SPIN_TABLE:
        f = parse_formula(row.formula_text, n=3)
        report = verify_table_sequence(f, parse_pulse_sequence(row.sequence_text), tol=1e-8)
        assert report.state_equivalent, row.formula_text
        worst = max(worst, report.state_max_error)
    announce(9, worst <= 1e-8,
             f"all 14 reduced sequences realize U R W on the prepared state "
             f"(worst aligned error {worst:.2e}; frozen rotation convention, "
             f"no global flip was needed)")


def test_criterion_10_property_suites():
    # unitarity of constructed operators, n <= 6
    unitary_ok = True
    for n in range(1, 7):
        unitary_ok &= is_unitary(walsh_hadamard(n), tol=1e-10)
        for m in range(1, n + 1):
            unitary_ok &= is_unitary(mixing_matrix(n, m), tol=1e-10)
            unitary_ok &= bool(np.abs(np.abs(gamma_matrix(n, m)) - 1).max() <= 1e-10)
    for f in one_sat_formulas(4):
        unitary_ok &= bool(np.abs(np.abs(phase_matrix(f)) - 1).max() <= 1e-10)

    # gate conjugation of a diagonal state permutes its populations: the
    # trace and the spectrum (the sorted populations) are preserved
    rng = np.random.default_rng(2026)
    conjugation_ok = True
    for n in (2, 3, 4):
        populations = rng.normal(size=2**n)
        populations -= populations.mean()
        out = populations
        for gate in (CNot(1, n), Flip(1), CNot(n, 1), Flip(n)):
            image = gate.image(n)
            conjugation_ok &= bool(np.array_equal(np.sort(image), np.arange(2**n)))
            out = out[image]
        conjugation_ok &= bool(abs(out.sum()) <= 1e-10)
        conjugation_ok &= bool(np.array_equal(np.sort(out), np.sort(populations)))

    # Walsh-Hadamard involution
    involution_ok = all(
        np.abs(walsh_hadamard(n) @ walsh_hadamard(n) - np.eye(2**n)).max() <= 1e-10
        for n in range(1, 7)
    )

    # permutation equivariance under variable negation, exhaustive n <= 4
    equivariance_ok = True
    for n in range(1, 5):
        for f in one_sat_formulas(n):
            base = listed_distribution(solve(f), n)
            for k in range(1, n + 1):
                mask = 1 << (n - k)
                flipped = listed_distribution(solve(negate_variable(f, k)), n)
                permuted = np.array([base[a ^ mask] for a in range(2**n)])
                equivariance_ok &= bool(np.abs(flipped - permuted).max() <= 1e-10)

    announce(10, unitary_ok and conjugation_ok and involution_ok and equivariance_ok,
             f"unitarity {unitary_ok}, conjugation invariants {conjugation_ok}, "
             f"involution {involution_ok}, negation equivariance {equivariance_ok}")
