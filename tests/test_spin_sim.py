import itertools
from dataclasses import replace
from pathlib import Path

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
    builtin_prep_scheme,
    diag_tomography,
    error_metrics,
    format_z_terms,
    ideal_population_vector,
    lint_scheme,
    parse_measured_vector,
    parse_prep_scheme,
    parse_spin_system,
    prep_report,
    pseudo_pure_populations,
    run_experiment,
    run_prep_scheme,
    stick_spectrum,
    target_pseudo_pure,
    thermal_populations,
    thermal_state,
    z_product_decomposition,
)
from reference import z_product

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
ALANINE_SPINS = (DATA / "alanine.spins").read_text()

# frozen product-operator decompositions of the three temporal-averaging
# experiments (coefficients of 2**(|S|-1) * prod I_kz terms)
EXPERIMENT_TERMS = [
    {(1,): 1.0, (2,): 1.0, (3,): 1.0},
    {(1, 2, 3): 1.0, (2, 3): 1.0, (3,): -1.0},
    {(1, 3): 1.0, (1, 2): 1.0, (3,): 1.0},
]

# a tipped six-spin scheme whose dense route left -2.22e-16 in its sum
SIX_SPIN_SCHEME = """@gradient on
CN12 N3 CN45 TIP6
CN61 CN23
E
N4 CN56 TIP2
CN31 CN64 N5
"""


def random_deviation_matrix(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    h = (a + a.conj().T) / 2
    return h - np.trace(h) / 2**n * np.eye(2**n)


def dense_populations(experiment, n):
    """Diagonal of the dense reference experiment after the crusher."""
    return np.diagonal(reference.zero_off_diagonal(reference.run_experiment(experiment, n))).real


def apply_gates(populations, gates, n):
    for gate in gates:
        populations = populations[gate.image(n)]
    return populations


class TestReferenceStates:
    def test_thermal_single_spin(self):
        assert np.allclose(thermal_state(1), np.diag([0.5, -0.5]), atol=1e-14)

    def test_thermal_three_spin_diagonal(self):
        expected = np.array([3, 1, 1, -1, 1, -1, -1, -3]) / 2
        assert np.allclose(np.diagonal(thermal_state(3)).real, expected, atol=1e-14)

    def test_traceless_and_hermitian(self):
        # populations are real and sum to 0; the density matrices are their
        # diagonal matrices, so Hermitian and traceless
        for n in range(1, 5):
            for populations, rho in ((thermal_populations(n), thermal_state(n)),
                                     (pseudo_pure_populations(n), target_pseudo_pure(n))):
                assert populations.dtype == float and populations.shape == (2**n,)
                assert abs(populations.sum()) < 1e-12
                assert np.array_equal(rho, np.diag(populations))

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
        # populations share the formula model's cap, density matrices the dense cap
        with pytest.raises(ValueError):
            thermal_state(0)
        with pytest.raises(ValueError, match=r"qubit count must be in \[1, 16\], got 17"):
            thermal_populations(17)
        assert thermal_populations(16).shape == (2**16,)
        for dense in (thermal_state, target_pseudo_pure):
            with pytest.raises(ValueError, match="dense routes are capped at n=12"):
                dense(13)


class TestGates:
    def test_cnot_is_permutation(self):
        image = CNot(1, 2).image(2)
        # spin 1 is the high bit: |10> -> |11>, |11> -> |10>
        assert image.tolist() == [0, 1, 3, 2]

    def test_flip_involution(self):
        populations = thermal_populations(3)
        once = apply_gates(populations, [Flip(2)], 3)
        assert not np.array_equal(once, populations)
        assert np.array_equal(apply_gates(once, [Flip(2)], 3), populations)

    def test_second_experiment_terms(self):
        # application order: N3, CN21, CN32 (written right to left: CN32 CN21 N3)
        populations = apply_gates(thermal_populations(3), [Flip(3), CNot(2, 1), CNot(3, 2)], 3)
        coeffs, residual = z_product_decomposition(populations)
        assert residual == 0.0
        assert coeffs == pytest.approx(EXPERIMENT_TERMS[1])

    def test_third_experiment_terms(self):
        populations = apply_gates(thermal_populations(3), [CNot(3, 2), CNot(1, 2), CNot(2, 1)], 3)
        coeffs, residual = z_product_decomposition(populations)
        assert residual == 0.0
        assert coeffs == pytest.approx(EXPERIMENT_TERMS[2])

    def test_conjugation_preserves_structure(self):
        # conjugating a diagonal state by a permutation gate permutes its
        # populations: the trace and the sorted values (the spectrum) stay
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            populations = rng.normal(size=2**n)
            out = apply_gates(populations, [CNot(1, n), Flip(n), CNot(n, 1)], n)
            assert out.sum() == pytest.approx(populations.sum(), abs=1e-12)
            assert np.array_equal(np.sort(out), np.sort(populations))

    def test_index_map_matches_loop(self):
        for n in range(1, 6):
            spins = range(1, n + 1)
            gates = [Flip(k) for k in spins] + [CNot(c, t) for c, t in itertools.permutations(spins, 2)]
            for gate in gates:
                image = gate.image(n)
                dense = np.zeros((2**n, 2**n), dtype=complex)
                dense[image, np.arange(2**n)] = 1.0
                assert np.array_equal(dense, reference.gate_unitary(gate, n)), gate

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            CNot(1, 1).image(2)
        with pytest.raises(ValueError, match="out of range"):
            CNot(1, 3).image(2)
        with pytest.raises(ValueError, match="out of range"):
            Flip(0).image(2)

    @pytest.mark.parametrize("spin", [0, 4, 9])
    def test_tip_out_of_range(self, spin):
        for gradient in (True, False):
            scheme = PrepScheme((Experiment((CNot(1, 2),), (spin,)),), gradient)
            with pytest.raises(ValueError, match="out of range"):
                prep_report(scheme, 3)


class TestTips:
    def test_two_tips_swap_the_pair(self):
        # CN12 TIP3 TIP3: a pi rotation of spin 3 swaps its level pairs
        gated = run_experiment(Experiment((CNot(1, 2),)), 3)
        swapped = run_experiment(Experiment((CNot(1, 2),), (3, 3)), 3)
        assert np.array_equal(swapped, gated[np.arange(8) ^ 1])

    def test_four_tips_are_the_identity(self):
        gates = (Flip(1), CNot(1, 3))
        assert np.array_equal(run_experiment(Experiment(gates, (2, 2, 2, 2)), 3),
                              run_experiment(Experiment(gates), 3))

    def test_odd_tips_average_the_pair_exactly(self):
        gated = run_experiment(Experiment((CNot(1, 2),)), 3)
        for tips in ((2,), (2, 2, 2)):
            populations = run_experiment(Experiment((CNot(1, 2),), tips), 3)
            assert np.array_equal(populations, (gated + gated[np.arange(8) ^ 2]) / 2)

    def test_six_spin_sum_is_exact(self):
        # the averages are exact halves, so the sum holds no rounding noise
        total = prep_report(parse_prep_scheme(SIX_SPIN_SCHEME), 6).sum_diagonal
        assert total[17] == 0.0
        assert np.array_equal(total * 2, np.round(total * 2))


class TestPrepSchemes:
    def test_three_spin_scheme_is_exact(self):
        rho = run_prep_scheme(builtin_prep_scheme(3), 3)
        assert np.abs(rho - target_pseudo_pure(3)).max() < 1e-12
        report = prep_report(builtin_prep_scheme(3), 3)
        assert np.array_equal(report.sum_diagonal, pseudo_pure_populations(3))
        assert np.array_equal(rho, np.diag(report.sum_diagonal))

    def test_three_spin_per_experiment_decompositions(self):
        for experiment, expected in zip(builtin_prep_scheme(3).experiments, EXPERIMENT_TERMS):
            coeffs, _ = z_product_decomposition(run_experiment(experiment, 3))
            assert coeffs == pytest.approx(expected)

    def test_three_spin_experiment_count_is_minimal(self):
        scheme = builtin_prep_scheme(3)
        assert len(scheme.experiments) == -(-(2**3 - 1) // 3)

    def test_four_spin_scheme_with_gradient_is_exact(self):
        report = prep_report(builtin_prep_scheme(4), 4)
        assert report.max_residual == 0.0
        assert np.array_equal(report.sum_diagonal, pseudo_pure_populations(4))
        assert np.abs(run_prep_scheme(builtin_prep_scheme(4), 4) - target_pseudo_pure(4)).max() < 1e-12

    def test_four_spin_surplus_without_tips(self):
        # without the transverse tip the sum carries one extra I3z term
        scheme = builtin_prep_scheme(4)
        stripped = PrepScheme(
            tuple(Experiment(e.gates) for e in scheme.experiments), scheme.gradient)
        rho = run_prep_scheme(stripped, 4)
        surplus = rho - target_pseudo_pure(4)
        assert np.abs(surplus - z_product((3,), 4)).max() < 1e-12

    def test_four_spin_reading_is_unique(self):
        # among the candidate readings of the ambiguous final NOT token,
        # only a plain N1 leaves a single surplus term
        scheme = builtin_prep_scheme(4)
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
            if len(coeffs) == 1:
                surviving.append(name)
        assert surviving == ["N1"]

    def test_identity_scheme_returns_thermal(self):
        scheme = PrepScheme((Experiment(),))
        assert np.abs(run_prep_scheme(scheme, 3) - thermal_state(3)).max() < 1e-14

    def test_gradient_idempotent(self):
        # a gradient-on contribution is already crushed: as a diagonal
        # matrix the dense crusher leaves it unchanged, and it equals the
        # crushed dense experiment
        experiment = Experiment((CNot(1, 2), Flip(3)), (2, 3))
        populations = run_experiment(experiment, 3)
        assert np.array_equal(reference.zero_off_diagonal(np.diag(populations)), np.diag(populations))
        assert np.abs(populations - dense_populations(experiment, 3)).max() < 1e-12

    def test_gradient_off_keeps_coherences(self):
        # without the crusher a tip leaves off-diagonal content
        experiment = Experiment((CNot(1, 2),), (3,))
        rho = reference.run_experiment(experiment, 3)
        off_diagonal = np.abs(rho - reference.zero_off_diagonal(rho)).max()
        report = prep_report(PrepScheme((experiment,), gradient=False), 3)
        assert report.sum_off_diagonal_max == pytest.approx(off_diagonal, abs=1e-12) and off_diagonal > 0.1
        assert report.experiments[0][1] == pytest.approx(off_diagonal, abs=1e-12)
        assert report.max_residual >= report.sum_off_diagonal_max
        assert np.abs(report.sum_diagonal - np.diagonal(rho).real).max() < 1e-12
        assert np.abs(run_prep_scheme(PrepScheme((experiment,), gradient=False), 3) - rho).max() < 1e-12

    def test_gradient_off_is_dense_capped(self):
        scheme = PrepScheme((Experiment((CNot(1, 2),)),), gradient=False)
        with pytest.raises(ValueError, match="dense routes are capped at n=12"):
            prep_report(scheme, 13)

    def test_decomposition_keeps_only_nonzero_terms(self):
        assert z_product_decomposition(thermal_populations(3))[0] == {(1,): 1.0, (2,): 1.0, (3,): 1.0}

    def test_round_trip_decomposition(self):
        # expand the second experiment's terms to a matrix and re-project
        rho = sum(c * z_product(s, 3) for s, c in EXPERIMENT_TERMS[1].items())
        coeffs, residual = z_product_decomposition(rho)
        assert residual < 1e-12
        assert coeffs == pytest.approx(EXPERIMENT_TERMS[1])

    def test_format_terms(self):
        text = format_z_terms(EXPERIMENT_TERMS[1])
        assert text == "4I1zI2zI3z + 2I2zI3z - I3z"

    def test_experiment_label(self):
        assert str(Experiment()) == "E"
        assert str(Experiment((CNot(1, 2), Flip(3)), (6, 6))) == "CN12 N3 TIP6 TIP6"
        assert str(Experiment((), (1,))) == "E TIP1"


class TestSchemeParsing:
    def test_rebuild_three_spin_scheme(self):
        text = """
        # application order, first gate first
        E
        N3 CN21 CN32
        CN32 CN12 CN21
        """
        for source in (text, (DATA / "three_spin.scheme").read_text()):
            assert parse_prep_scheme(source) == builtin_prep_scheme(3)

    def test_identity_only(self):
        scheme = parse_prep_scheme("E\n")
        assert scheme.experiments == (Experiment(),)

    def test_gradient_directive(self):
        assert parse_prep_scheme("@gradient off\nE\n").gradient is False

    @pytest.mark.parametrize("text,line", [
        ("@gradient on\nE\n@gradient off\nCN21 TIP1\n", 3),  # would re-flag experiment 1
        ("E\n@gradient off\n", 2),
        ("@gradient off\n@gradient off\nE\n", 2),
    ])
    def test_gradient_directive_once_before_the_experiments(self, text, line):
        with pytest.raises(SchemeParseError, match="@gradient must come once, before the first experiment") as exc:
            parse_prep_scheme(text)
        assert exc.value.line == line

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

    def test_populations_equal_their_density_matrix(self):
        assert diag_tomography(pseudo_pure_populations(3)) == diag_tomography(target_pseudo_pure(3))

    def test_not_a_state_rejected(self):
        with pytest.raises(ValueError, match="needs 2\\*\\*n populations"):
            diag_tomography(np.ones(3))


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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_is_malformed(self, token):
        with pytest.raises(ValueError, match=f"malformed value in vector: non-finite value '{token}'"):
            parse_measured_vector(f"1, {token}")

    def test_shipped_csv_files_are_the_measured_constants(self):
        expected = {"measured_prep_diag.csv": MEASURED_PREP_DIAG}
        for formula, vector in MEASURED_SEARCH_DIAGS.items():
            stem = "_".join(literal.replace("!", "n") for literal in formula.split(" & "))
            expected[f"measured_final_{stem}.csv"] = vector
        assert sorted(path.name for path in DATA.glob("measured_*.csv")) == sorted(expected)
        for name, vector in expected.items():
            assert tuple(parse_measured_vector((DATA / name).read_text())) == vector, name


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

    @pytest.mark.parametrize("line,first,entry", [
        ("n 3", 3, "n"),
        ("shift 2 5", 5, "shift 2"),
        ("j 2 1 10", 7, "j 1 2"),  # either spin order names the same coupling
        ("j 1 2 34.94", 7, "j 1 2"),
        ("t1 3 1.5", 12, "t1 3"),
        ("t2 1 9", 13, "t2 1"),
    ])
    def test_repeated_entry_is_an_error(self, line, first, entry):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system(ALANINE_SPINS + line + "\n")
        assert (exc.value.line, exc.value.reason) == (16, f"repeated {entry} (first on line {first})")

    @pytest.mark.parametrize("line,spin", [("shift 7 99", 7), ("t1 0 1", 0), ("t2 4 1", 4)])
    def test_out_of_range_spin_is_an_error(self, line, spin):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system(ALANINE_SPINS + line + "\n")
        assert (exc.value.line, exc.value.reason) == (16, f"spin {spin} out of range for n=3")

    def test_spin_range_waits_for_a_late_count(self):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system("shift 1 1\nshift 2 2\nn 2\nshift 3 3\n")
        assert (exc.value.line, exc.value.reason) == (4, "spin 3 out of range for n=2")

    @pytest.mark.parametrize("line,pair", [("j 2 2 5", (2, 2)), ("j 1 4 3", (1, 4)), ("j 3 0 1", (0, 3))])
    def test_bad_coupling_pair_names_its_line(self, line, pair):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system(ALANINE_SPINS + line + "\n")
        assert (exc.value.line, exc.value.reason) == (16, f"bad coupling pair {pair}")

    def test_bad_coupling_pair_waits_for_earlier_faults(self):
        with pytest.raises(SpinSystemParseError, match="missing chemical shift for spin"):
            parse_spin_system("n 2\nshift 1 0\nj 2 2 5\n")
        with pytest.raises(SpinSystemParseError, match="incomplete relaxation data"):
            parse_spin_system("n 2\nshift 1 0\nshift 2 1\nj 1 3 5\nt2 1 -1\n")

    @pytest.mark.parametrize("old,new,line", [
        ("t2 2 0.41", "t2 2 -0.41", 14), ("t1 3 1.5", "t1 3 0", 12), ("t1 1 20.3", "t1 1 -0.0", 10),
    ])
    def test_non_positive_relaxation_names_its_line(self, old, new, line):
        with pytest.raises(SpinSystemParseError) as exc:
            parse_spin_system(ALANINE_SPINS.replace(old, new))
        assert (exc.value.line, exc.value.reason) == (line, f"{new.split()[0]} must be positive in {new!r}")

    @pytest.mark.parametrize("fields,message", [
        ({"couplings_hz": ((2, 2, 5.0),)}, r"bad coupling pair \(2, 2\)"),
        ({"couplings_hz": ((1, 4, 3.0),)}, r"bad coupling pair \(1, 4\)"),
        ({"t1_s": (20.3, 0.0, 1.5)}, "t1 must be positive"),
        ({"t2_s": (1.3, -0.41, 0.81)}, "t2 must be positive"),
        ({"t2_s": (1.3, float("nan"), 0.81)}, "t2 must be positive"),
    ])
    def test_spin_system_rejects_what_the_parser_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            replace(ALANINE, **fields)

    @pytest.mark.parametrize("old,new", [
        ("shift 1 -4320.0", "shift 1 nan"), ("j 1 3 1.21", "j 1 3 inf"), ("t2 2 0.41", "t2 2 -nan"),
    ])
    def test_non_finite_value_is_malformed(self, old, new):
        with pytest.raises(SpinSystemParseError, match=f"malformed value in '{new}'"):
            parse_spin_system(ALANINE_SPINS.replace(old, new))


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

    def test_spin_count_mismatch(self):
        with pytest.raises(ValueError, match="state is for 2 spins"):
            stick_spectrum(thermal_populations(2), 1, ALANINE)

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
        assert lint_scheme(builtin_prep_scheme(3), ALANINE) == []

    def test_sign_of_j_does_not_hide_a_slow_gate(self):
        negative = replace(ALANINE, couplings_hz=((1, 2, 34.94), (1, 3, -1.21), (2, 3, -53.81)))
        scheme = PrepScheme((Experiment((CNot(1, 3), CNot(2, 3))),))
        assert lint_scheme(scheme, negative) == lint_scheme(scheme, ALANINE) != []

    def test_uncoupled_pair(self):
        system = SpinSystem(2, (0.0, 100.0), ())
        warnings = lint_scheme(PrepScheme((Experiment((CNot(1, 2),)),)), system)
        assert "uncoupled" in warnings[0]


def draw_gate(data, n):
    if n > 1 and data.draw(st.booleans()):
        control, target = data.draw(st.permutations(range(1, n + 1)))[:2]
        return CNot(control, target)
    return Flip(data.draw(st.integers(1, n)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_gate_chains_preserve_deviation_invariants(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    populations = rng.normal(size=2**n)
    gates = [draw_gate(data, n) for _ in range(data.draw(st.integers(1, 5)))]
    out = apply_gates(populations, gates, n)
    assert abs(out.sum() - populations.sum()) < 1e-10
    assert np.array_equal(np.sort(out), np.sort(populations))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_population_route_matches_dense_reference(n, data):
    # gradient on: each experiment's populations equal the crushed dense
    # conjugation, for random gates and 0-4 tips with repeats
    experiments = []
    for _ in range(data.draw(st.integers(1, 3))):
        gates = tuple(draw_gate(data, n) for _ in range(data.draw(st.integers(0, 4))))
        tips = tuple(data.draw(st.lists(st.integers(1, n), max_size=4)))
        experiments.append(Experiment(gates, tips))
    report = prep_report(PrepScheme(tuple(experiments)), n)
    expected = [dense_populations(e, n) for e in experiments]
    for experiment, want in zip(experiments, expected):
        assert np.abs(run_experiment(experiment, n) - want).max() <= 1e-12
    assert np.abs(report.sum_diagonal - sum(expected)).max() <= 1e-12
    assert report.sum_off_diagonal_max == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_gradient_off_route_matches_dense_reference(n, data):
    # gradient off: T diag(p) T^H with one y rotation per spin equals the
    # dense product of gate and single-tip matrices, for random gates and
    # 1-5 tips on each of several spins
    experiments = []
    for _ in range(data.draw(st.integers(1, 3))):
        gates = tuple(draw_gate(data, n) for _ in range(data.draw(st.integers(0, 4))))
        spins = data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        tips = tuple(spin for spin in spins for _ in range(data.draw(st.integers(1, 5))))
        experiments.append(Experiment(gates, tips))
    scheme = PrepScheme(tuple(experiments), gradient=False)
    dense = [reference.run_experiment(e, n) for e in experiments]
    total = sum(dense)
    report = prep_report(scheme, n)
    assert np.abs(run_prep_scheme(scheme, n) - total).max() <= 1e-12
    assert np.abs(report.sum_diagonal - np.diagonal(total).real).max() <= 1e-12
    assert abs(report.sum_off_diagonal_max - np.abs(total - np.diag(np.diagonal(total))).max()) <= 1e-12
    for (coeffs, residual), rho in zip(report.experiments, dense):
        expected, expected_residual = reference.z_product_decomposition(rho)
        assert max(abs(coeffs.get(s, 0.0) - expected[s]) for s in expected) <= 1e-12
        assert abs(residual - expected_residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_decomposition_matches_dense_reference(n, off_diagonal, data):
    # a matrix's coherences enter the residual; its populations alone give
    # the same coefficients
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    diag = rng.normal(size=2**n)
    diag += rng.uniform(0.5, 2.0) - diag.mean()  # nonzero trace
    rho = np.diag(diag).astype(complex)
    if off_diagonal:
        h = random_deviation_matrix(rng, n)
        rho += h - np.diag(np.diagonal(h))
    coeffs, residual = z_product_decomposition(rho)
    expected, expected_residual = reference.z_product_decomposition(rho)
    assert set(coeffs) == {s for s, c in expected.items() if abs(c) > 1e-9}
    assert max(abs(coeffs.get(s, 0.0) - expected[s]) for s in expected) <= 1e-12
    assert abs(residual - expected_residual) <= 1e-12
    assert z_product_decomposition(diag)[0] == coeffs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_stick_spectrum_matches_rotated_reference(n, off_diagonal, data):
    # the lines read from the populations equal those of the rotated dense
    # matrix, whose coherences do not enter
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
        assert stick_spectrum(np.diagonal(rho).real, spin, system) == lines
        expected = reference.stick_spectrum(rho, spin, system)
        assert len(lines) == len(expected) == 2 ** (n - 1)
        for line, ref in zip(lines, expected):
            assert abs(line.frequency_hz - ref.frequency_hz) <= 1e-12 * max(1.0, abs(ref.frequency_hz))
            assert abs(line.amplitude - ref.amplitude) <= 1e-12
