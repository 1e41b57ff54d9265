import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hoggsat.spin_sim import (
    ALANINE,
    CNot,
    Experiment,
    Flip,
    MEASURED_PREP_DIAG,
    MEASURED_SEARCH_DIAGS,
    NoPopulationContrast,
    PrepScheme,
    SchemeParseError,
    SpinSystem,
    SpinSystemParseError,
    apply_gate,
    diag_tomography,
    error_metrics,
    experiment_unitary,
    format_z_terms,
    four_spin_prep_scheme,
    gate_unitary,
    ideal_population_vector,
    lint_scheme,
    parse_measured_vector,
    parse_prep_scheme,
    parse_spin_system,
    run_experiment,
    run_prep_scheme,
    significant_terms,
    stick_spectrum,
    target_pseudo_pure,
    thermal_state,
    three_spin_prep_scheme,
    z_product_decomposition,
    zero_off_diagonal,
)
from reference import z_product

# frozen product-operator decompositions of the three temporal-averaging
# experiments (coefficients of 2**(|S|-1) * prod I_kz terms)
EXPERIMENT_TERMS = [
    {(1,): 1.0, (2,): 1.0, (3,): 1.0},
    {(1, 2, 3): 1.0, (2, 3): 1.0, (3,): -1.0},
    {(1, 3): 1.0, (1, 2): 1.0, (3,): 1.0},
]


def random_deviation_matrix(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / 2**n * np.eye(2**n)


class TestReferenceStates:
    def test_thermal_single_spin(self):
        assert np.allclose(thermal_state(1), np.diag([0.5, -0.5]), atol=1e-14)

    def test_thermal_three_spin_diagonal(self):
        expected = np.array([3, 1, 1, -1, 1, -1, -1, -3]) / 2
        assert np.allclose(np.diagonal(thermal_state(3)).real, expected, atol=1e-14)

    def test_traceless_and_hermitian(self):
        for n in range(1, 5):
            for rho in (thermal_state(n), target_pseudo_pure(n)):
                assert abs(np.trace(rho)) < 1e-12
                assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_target_single_spin(self):
        assert np.allclose(target_pseudo_pure(1), z_product((1,), 1), atol=1e-14)

    def test_target_equals_projector_form(self):
        # sum of all z-products = 2**(n-1) (|0..0><0..0| - I/2**n)
        for n in range(1, 6):
            projector = np.zeros((2**n, 2**n), dtype=complex)
            projector[0, 0] = 1.0
            expected = 2 ** (n - 1) * (projector - np.eye(2**n) / 2**n)
            assert np.abs(target_pseudo_pure(n) - expected).max() < 1e-12

    def test_closed_forms_equal_z_product_sums(self):
        for n in range(1, 7):
            spins = range(1, n + 1)
            zero = np.zeros((2**n, 2**n), dtype=complex)
            thermal = sum((z_product((k,), n) for k in spins), zero)
            target = sum((z_product(subset, n) for size in spins
                          for subset in itertools.combinations(spins, size)), zero)
            assert np.array_equal(thermal_state(n), thermal)
            assert np.array_equal(target_pseudo_pure(n), target)

    def test_target_diag_normalizes_to_single_population(self):
        values = diag_tomography(target_pseudo_pure(3)).values
        assert np.allclose(values, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_spin_count_bounds(self):
        with pytest.raises(ValueError):
            thermal_state(0)
        with pytest.raises(ValueError):
            thermal_state(9)


class TestGates:
    def test_cnot_is_permutation(self):
        g = gate_unitary(CNot(1, 2), 2)
        # spin 1 is the high bit: |10> -> |11>, |11> -> |10>
        assert np.allclose(g @ np.eye(4)[:, 2], np.eye(4)[:, 3], atol=1e-14)
        assert np.allclose(g @ np.eye(4)[:, 0], np.eye(4)[:, 0], atol=1e-14)

    def test_flip_involution(self):
        rho = thermal_state(3)
        once = apply_gate(rho, Flip(2))
        assert np.abs(apply_gate(once, Flip(2)) - rho).max() < 1e-13

    def test_second_experiment_terms(self):
        # application order: N3, CN21, CN32 (written right to left: CN32 CN21 N3)
        rho = thermal_state(3)
        for gate in (Flip(3), CNot(2, 1), CNot(3, 2)):
            rho = apply_gate(rho, gate)
        coeffs, residual = z_product_decomposition(rho)
        assert residual < 1e-12
        assert significant_terms(coeffs) == pytest.approx(EXPERIMENT_TERMS[1])

    def test_third_experiment_terms(self):
        rho = thermal_state(3)
        for gate in (CNot(3, 2), CNot(1, 2), CNot(2, 1)):
            rho = apply_gate(rho, gate)
        coeffs, residual = z_product_decomposition(rho)
        assert residual < 1e-12
        assert significant_terms(coeffs) == pytest.approx(EXPERIMENT_TERMS[2])

    def test_conjugation_preserves_structure(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            rho = random_deviation_matrix(rng, n)
            eigs = np.sort(np.linalg.eigvalsh(rho))
            gates = [CNot(1, n), Flip(n), CNot(n, 1)]
            out = rho
            for g in gates:
                out = apply_gate(out, g)
            assert np.abs(out - out.conj().T).max() < 1e-10
            assert abs(np.trace(out)) < 1e-10
            assert np.abs(np.sort(np.linalg.eigvalsh(out)) - eigs).max() < 1e-10

    def test_index_map_matches_loop(self):
        for n in range(1, 6):
            spins = range(1, n + 1)
            gates = [Flip(k) for k in spins] + [CNot(c, t) for c, t in itertools.permutations(spins, 2)]
            for gate in gates:
                assert np.array_equal(gate_unitary(gate, n), reference.gate_unitary(gate, n)), gate

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            gate_unitary(CNot(1, 1), 2)
        with pytest.raises(ValueError):
            gate_unitary(CNot(1, 3), 2)
        with pytest.raises(ValueError):
            gate_unitary(Flip(0), 2)


class TestPrepSchemes:
    def test_three_spin_scheme_is_exact(self):
        rho = run_prep_scheme(three_spin_prep_scheme(), 3)
        assert np.abs(rho - target_pseudo_pure(3)).max() < 1e-12

    def test_three_spin_per_experiment_decompositions(self):
        for experiment, expected in zip(three_spin_prep_scheme().experiments, EXPERIMENT_TERMS):
            coeffs, _ = z_product_decomposition(run_experiment(experiment, 3))
            assert significant_terms(coeffs) == pytest.approx(expected)

    def test_three_spin_experiment_count_is_minimal(self):
        scheme = three_spin_prep_scheme()
        assert len(scheme.experiments) == -(-(2**3 - 1) // 3)

    def test_four_spin_scheme_with_gradient_is_exact(self):
        rho = run_prep_scheme(four_spin_prep_scheme(), 4)
        assert np.abs(rho - target_pseudo_pure(4)).max() < 1e-12

    def test_four_spin_surplus_without_tips(self):
        # without the transverse tip the sum carries one extra I3z term
        scheme = four_spin_prep_scheme()
        stripped = PrepScheme(
            tuple(Experiment(e.gates) for e in scheme.experiments), scheme.gradient)
        rho = run_prep_scheme(stripped, 4)
        surplus = rho - target_pseudo_pure(4)
        assert np.abs(surplus - z_product((3,), 4)).max() < 1e-12

    def test_four_spin_reading_is_unique(self):
        # among the candidate readings of the ambiguous final NOT token,
        # only a plain N1 leaves a single surplus term
        scheme = four_spin_prep_scheme()
        base = [Experiment(e.gates) for e in scheme.experiments[:4]]
        last = scheme.experiments[4].gates[:-1]
        candidates = {
            "N1": (Flip(1),),
            "N3": (Flip(3),),
            "N3N1": (Flip(3), Flip(1)),
            "CN31": (CNot(3, 1),),
        }
        surviving = []
        for name, tail in candidates.items():
            trial = PrepScheme(tuple(base + [Experiment(last + tail)]), gradient=True)
            residual = run_prep_scheme(trial, 4) - target_pseudo_pure(4)
            coeffs, _ = z_product_decomposition(residual)
            if len(significant_terms(coeffs)) == 1:
                surviving.append(name)
        assert surviving == ["N1"]

    def test_identity_scheme_returns_thermal(self):
        scheme = PrepScheme((Experiment(),))
        assert np.abs(run_prep_scheme(scheme, 3) - thermal_state(3)).max() < 1e-14

    def test_gradient_idempotent(self):
        rng = np.random.default_rng(3)
        rho = random_deviation_matrix(rng, 3)
        once = zero_off_diagonal(rho)
        assert np.abs(zero_off_diagonal(once) - once).max() == 0.0

    def test_experiment_unitary_matches_stepwise(self):
        experiment = three_spin_prep_scheme().experiments[1]
        g = experiment_unitary(experiment, 3)
        rho = thermal_state(3)
        for gate in experiment.gates:
            rho = apply_gate(rho, gate)
        assert np.abs(g @ thermal_state(3) @ g.conj().T - rho).max() < 1e-12

    def test_round_trip_decomposition(self):
        # expand the second experiment's terms to a matrix and re-project
        rho = sum(c * z_product(s, 3) for s, c in EXPERIMENT_TERMS[1].items())
        coeffs, residual = z_product_decomposition(rho)
        assert residual < 1e-12
        assert significant_terms(coeffs) == pytest.approx(EXPERIMENT_TERMS[1])

    def test_format_terms(self):
        text = format_z_terms(EXPERIMENT_TERMS[1])
        assert text == "4I1zI2zI3z + 2I2zI3z - I3z"


class TestSchemeParsing:
    def test_rebuild_three_spin_scheme(self):
        text = """
        # application order, first gate first
        E
        N3 CN21 CN32
        CN32 CN12 CN21
        """
        scheme = parse_prep_scheme(text)
        assert scheme == three_spin_prep_scheme()

    def test_identity_only(self):
        scheme = parse_prep_scheme("E\n")
        assert scheme.experiments == (Experiment(),)

    def test_gradient_directive(self):
        assert parse_prep_scheme("@gradient off\nE\n").gradient is False

    def test_tip_token(self):
        scheme = parse_prep_scheme("CN12 TIP3\n")
        assert scheme.experiments[0].tip_spins == (3,)

    def test_error_reports_line(self):
        with pytest.raises(SchemeParseError) as exc:
            parse_prep_scheme("E\nCN12 XX\n")
        assert exc.value.line == 2

    def test_e_must_stand_alone(self):
        with pytest.raises(SchemeParseError):
            parse_prep_scheme("E N3\n")


class TestTomography:
    def test_ideal_target(self):
        result = diag_tomography(target_pseudo_pure(3))
        assert result.values == pytest.approx((1, 0, 0, 0, 0, 0, 0, 0), abs=1e-14)
        assert not result.low_contrast

    def test_thermal_flags_low_contrast(self):
        assert diag_tomography(thermal_state(3)).low_contrast

    def test_degenerate_diagonal_raises(self):
        with pytest.raises(NoPopulationContrast):
            diag_tomography(np.zeros((4, 4)))

    def test_metadata_recovers_raw_diagonal(self):
        result = diag_tomography(target_pseudo_pure(3))
        raw = np.array(result.values) * result.scale + result.background
        assert np.allclose(raw, np.diagonal(target_pseudo_pure(3)).real, atol=1e-12)


class TestErrorMetrics:
    def test_prep_vector(self):
        metrics = error_metrics(MEASURED_PREP_DIAG, ideal_population_vector(3, 0))
        assert metrics.max_abs_dev == pytest.approx(0.0535, abs=1e-12)

    def test_search_vector_all_positive(self):
        measured = MEASURED_SEARCH_DIAGS["v1 & v2 & v3"]
        metrics = error_metrics(measured, ideal_population_vector(3, 7))
        assert metrics.max_abs_dev == pytest.approx(0.0800, abs=1e-12)

    def test_identical_vectors(self):
        ideal = ideal_population_vector(3, 0)
        assert error_metrics(ideal, ideal).max_abs_dev == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_metrics([1, 0], [1, 0, 0, 0])

    def test_measured_data_targets_use_reversed_bit_order(self):
        # the dominant entry of each tabulated vector sits at the
        # bit-reversed solution index
        from hoggsat.formula import parse_formula, reverse_bits, solutions

        for text, vector in MEASURED_SEARCH_DIAGS.items():
            (solution,) = solutions(parse_formula(text))
            assert int(np.argmax(vector)) == reverse_bits(solution, 3)


class TestVectorIngestion:
    def test_one_per_line(self):
        vec = parse_measured_vector("1.0\n0.5\n-0.5\n0.0\n")
        assert np.allclose(vec, [1, 0.5, -0.5, 0])

    def test_comma_row(self):
        assert parse_measured_vector("1, 2, 3, 4").tolist() == [1, 2, 3, 4]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_measured_vector("1, 2, 3")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_measured_vector("1, x")


class TestSpinSystem:
    def test_alanine_coupling_lookup(self):
        assert ALANINE.coupling(3, 1) == pytest.approx(1.21)
        assert ALANINE.coupling(1, 2) == pytest.approx(34.94)

    def test_parse_round_trip(self):
        text = """
        n 3
        shift 1 -4320.0
        shift 2 0.0
        shift 3 15793.0
        j 1 2 34.94
        j 2 3 53.81
        j 1 3 1.21
        t1 1 20.3
        t1 2 2.8
        t1 3 1.5
        t2 1 1.3
        t2 2 0.41
        t2 3 0.81
        """
        assert parse_spin_system(text) == ALANINE

    def test_missing_shift(self):
        with pytest.raises(SpinSystemParseError):
            parse_spin_system("n 2\nshift 1 0.0\n")

    def test_error_reports_line(self):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system("n 2\nshift 1 0.0\nbogus line\n")
        assert exc.value.line == 3


class TestStickSpectrum:
    def test_pseudo_pure_single_line(self):
        lines = stick_spectrum(target_pseudo_pure(3), 2, ALANINE)
        assert len(lines) == 1
        (line,) = lines
        assert line.frequency_hz == pytest.approx(34.94 / 2 + 53.81 / 2, abs=1e-9)
        assert line.amplitude > 0

    def test_thermal_full_multiplet(self):
        lines = stick_spectrum(thermal_state(3), 1, ALANINE)
        assert len(lines) == 4
        amplitudes = {round(l.amplitude, 9) for l in lines}
        assert len(amplitudes) == 1
        expected = [-4320 + sa * 34.94 / 2 + sb * 1.21 / 2
                    for sa in (-1, 1) for sb in (-1, 1)]
        assert sorted(l.frequency_hz for l in lines) == pytest.approx(sorted(expected))

    def test_zero_matrix_is_silent(self):
        assert stick_spectrum(np.zeros((8, 8)), 1, ALANINE) == []

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            stick_spectrum(thermal_state(3), 4, ALANINE)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            stick_spectrum(bad, 1, ALANINE)


class TestLint:
    def test_slow_coupling_flagged(self):
        scheme = PrepScheme((Experiment((CNot(1, 3),)),))
        warnings = lint_scheme(scheme, ALANINE)
        assert len(warnings) == 1
        assert "CN13" in warnings[0]

    def test_reversed_pair_also_flagged(self):
        scheme = PrepScheme((Experiment((CNot(3, 1),)),))
        assert lint_scheme(scheme, ALANINE)

    def test_builtin_scheme_clean(self):
        assert lint_scheme(three_spin_prep_scheme(), ALANINE) == []

    def test_uncoupled_pair(self):
        system = SpinSystem(2, (0.0, 100.0), ())
        warnings = lint_scheme(PrepScheme((Experiment((CNot(1, 2),)),)), system)
        assert "uncoupled" in warnings[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_gate_chains_preserve_deviation_invariants(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    rho = random_deviation_matrix(rng, n)
    eigs = np.sort(np.linalg.eigvalsh(rho))
    n_gates = data.draw(st.integers(1, 5))
    out = rho
    for _ in range(n_gates):
        if data.draw(st.booleans()):
            spins = data.draw(st.permutations(range(1, n + 1)))
            out = apply_gate(out, CNot(spins[0], spins[1]))
        else:
            out = apply_gate(out, Flip(data.draw(st.integers(1, n))))
    assert np.abs(out - out.conj().T).max() < 1e-10
    assert abs(np.trace(out)) < 1e-10
    assert np.abs(np.sort(np.linalg.eigvalsh(out)) - eigs).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_decomposition_matches_dense_reference(n, off_diagonal, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    diag = rng.normal(size=2**n)
    diag += rng.uniform(0.5, 2.0) - diag.mean()  # nonzero trace
    rho = np.diag(diag).astype(complex)
    if off_diagonal:
        h = random_deviation_matrix(rng, n)
        rho += h - np.diag(np.diagonal(h))
    coeffs, residual = z_product_decomposition(rho)
    expected, expected_residual = reference.z_product_decomposition(rho)
    assert list(coeffs) == list(expected)
    assert max(abs(coeffs[s] - expected[s]) for s in expected) <= 1e-12
    assert abs(residual - expected_residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_stick_spectrum_matches_rotated_reference(n, off_diagonal, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    rho = np.diag(rng.normal(size=2**n)).astype(complex)
    if off_diagonal:
        h = random_deviation_matrix(rng, n)
        rho += h - np.diag(np.diagonal(h))
    couplings = tuple((i, j, float(rng.uniform(-60, 60)))
                      for i, j in itertools.combinations(range(1, n + 1), 2))
    system = SpinSystem(n, tuple(rng.uniform(-2e4, 2e4, size=n)), couplings)
    for spin in range(1, n + 1):
        lines = stick_spectrum(rho, spin, system)
        expected = reference.stick_spectrum(rho, spin, system)
        assert len(lines) == len(expected) == 2 ** (n - 1)
        for line, ref in zip(lines, expected):
            assert abs(line.frequency_hz - ref.frequency_hz) <= 1e-12 * max(1.0, abs(ref.frequency_hz))
            assert abs(line.amplitude - ref.amplitude) <= 1e-12
