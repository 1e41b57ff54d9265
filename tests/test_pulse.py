import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hoggsat.formula import parse_formula, solutions
from hoggsat.hogg import gamma_matrix, phase_matrix
from hoggsat.linalg import AXES, phase_aligned_error
from hoggsat.pulse import (
    NotTensorFactorable,
    Pulse,
    PulseParseError,
    PulseSequence,
    THREE_SPIN_TABLE,
    compile_diagonal,
    parse_pulse_sequence,
    program_unitary,
    reduce_sequence,
    search_unitary,
    sequence_factors,
    sequence_to_unitary,
    verify_table_sequence,
)
from hoggsat.spin_sim import builtin_prep_scheme, lowering_errors
from reference import is_unitary, one_sat_formulas

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
PHASE_FIXTURE = np.array([-1j, -1, -1, 1j, -1, 1j, 1j, 1])


class TestParsing:
    def test_single_pulse(self):
        seq = parse_pulse_sequence("X1")
        assert seq.pulses == (Pulse(1, "x", np.pi / 2),)

    def test_barred_axis(self):
        seq = parse_pulse_sequence("X~1")
        assert seq.pulses == (Pulse(1, "-x", np.pi / 2),)

    def test_exponent_equals_repetition(self):
        squared = parse_pulse_sequence("X1^2")
        repeated = parse_pulse_sequence("X1 X1")
        u1 = sequence_to_unitary(squared, 1)
        u2 = sequence_to_unitary(repeated, 1)
        assert np.abs(u1 - u2).max() < 1e-12

    def test_group_expansion(self):
        seq = parse_pulse_sequence("(XY~X)2")
        assert seq.pulses == (
            Pulse(2, "x", np.pi / 2),
            Pulse(2, "-y", np.pi / 2),
            Pulse(2, "x", np.pi / 2),
        )

    def test_whitespace_insignificant(self):
        assert parse_pulse_sequence(" X1  Y~2 ") == parse_pulse_sequence("X1Y~2")

    def test_empty_text(self):
        assert parse_pulse_sequence("") == PulseSequence(())

    def test_error_positions(self):
        with pytest.raises(PulseParseError) as exc:
            parse_pulse_sequence("X1 Q2")
        assert exc.value.position == 3
        with pytest.raises(PulseParseError) as exc:
            parse_pulse_sequence("X")
        assert exc.value.position == 1
        with pytest.raises(PulseParseError) as exc:
            parse_pulse_sequence("(XY")
        assert exc.value.position == 0
        with pytest.raises(PulseParseError) as exc:
            parse_pulse_sequence("(XY)")
        assert exc.value.position == 4

    def test_exponent_before_the_spin_takes_its_digits(self):
        # X^21 reads as 21 quarter turns with no spin left to name
        with pytest.raises(PulseParseError) as exc:
            parse_pulse_sequence("X^21")
        assert (exc.value.position, exc.value.reason) == (4, "pulse needs a spin index")

    def test_to_text_round_trip(self):
        for text in ("X1 Y~2 Z3^2", "X1^2 Y2 Y3"):
            seq = parse_pulse_sequence(text)
            assert parse_pulse_sequence(seq.to_text()) == seq


class TestSequenceUnitary:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_embedded_product(self, n, data):
        pulse = st.builds(Pulse, st.integers(1, n), st.sampled_from(AXES),
                          st.floats(-2 * np.pi, 2 * np.pi))
        seq = PulseSequence(tuple(data.draw(st.lists(pulse, max_size=12))))
        assert np.abs(sequence_to_unitary(seq, n) - reference.sequence_to_unitary(seq, n)).max() <= 1e-12

    def test_hadamard_shorthand(self):
        # X^2 Y applied right to left is the Hadamard up to global phase
        seq = parse_pulse_sequence("X1^2 Y1")
        err, phase = phase_aligned_error(sequence_to_unitary(seq, 1), HADAMARD)
        assert err < 1e-12
        assert abs(abs(phase) - 1) < 1e-12

    def test_empty_sequence_is_identity(self):
        assert np.allclose(sequence_to_unitary(PulseSequence(()), 2), np.eye(4), atol=1e-14)

    def test_rightmost_pulse_acts_first(self):
        # Z X applied to |0> differs from X Z applied to |0>
        zx = sequence_to_unitary(parse_pulse_sequence("Z1 X1"), 1)
        xz = sequence_to_unitary(parse_pulse_sequence("X1 Z1"), 1)
        assert np.abs(zx[:, 0] - xz[:, 0]).max() > 0.1

    def test_negative_z_rotations_match_conflict_diagonal(self):
        seq = parse_pulse_sequence("Z~1 Z~2 Z~3")
        err, _ = phase_aligned_error(sequence_to_unitary(seq, 3), np.diag(PHASE_FIXTURE))
        assert err < 1e-12

    def test_unitarity(self):
        seq = parse_pulse_sequence("(XY~X)1 Y2 Z~3^3")
        assert is_unitary(sequence_to_unitary(seq, 3), tol=1e-12)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            sequence_to_unitary(parse_pulse_sequence("X3"), 2)

    def test_dense_cap(self):
        with pytest.raises(ValueError, match=r"n=13 needs a dense 2\*\*13 x 2\*\*13"):
            sequence_to_unitary(PulseSequence(()), 13)

    def test_factors_reach_the_formula_cap(self):
        seq = parse_pulse_sequence("(XY~X)1 Z~8 Y16^3")
        factors = sequence_factors(seq, 16)
        assert len(factors) == 16 and all(f.shape == (2, 2) for f in factors)
        assert np.array_equal(factors[1], np.eye(2))
        with pytest.raises(ValueError, match="pulse spin 16 out of range for n=15"):
            sequence_factors(seq, 15)


class TestCompileDiagonal:
    def test_conflict_diagonal_compiles_to_barred_z(self):
        f = parse_formula("v1 & v2 & v3")
        seq = compile_diagonal(phase_matrix(f)).sequence
        assert seq.to_text() == "Z~1 Z~2 Z~3"

    def test_mixing_diagonal_compiles_to_z(self):
        seq = compile_diagonal(gamma_matrix(3, 3)).sequence
        assert seq.to_text() == "Z1 Z2 Z3"

    def test_identity_diagonal(self):
        assert compile_diagonal(np.ones(4, dtype=complex)).sequence == PulseSequence(())

    def test_round_trip_over_all_odd_one_sat_diagonals(self):
        # odd-m conflict diagonals are products of per-clause i**c factors
        # and always compile; even-m diagonals are the real part of such a
        # product and in general do not (see the counterexample below)
        for n in range(1, 7):
            for f in one_sat_formulas(n):
                diag = phase_matrix(f)
                if f.m % 2 == 0:
                    continue
                seq = compile_diagonal(diag).sequence
                err, _ = phase_aligned_error(sequence_to_unitary(seq, n), np.diag(diag))
                assert err < 1e-10, str(f)

    def test_even_m_conflict_diagonal_not_factorable(self):
        # m=2 over distinct variables gives diag [-1, 1, 1, 1]: the entry
        # products over complementary index pairs disagree, so no tensor
        # factorization exists
        with pytest.raises(NotTensorFactorable):
            compile_diagonal(phase_matrix(parse_formula("v1 & v2")))

    def test_even_m_mixing_diagonal_not_factorable(self):
        with pytest.raises(NotTensorFactorable):
            compile_diagonal(gamma_matrix(2, 2))

    def test_even_m_compile_is_total(self):
        # every even-m case either compiles (round-tripping) or reports
        # non-factorability; it never silently returns a wrong sequence
        for n in range(1, 5):
            for f in one_sat_formulas(n):
                if f.m % 2 == 1:
                    continue
                diag = phase_matrix(f)
                try:
                    seq = compile_diagonal(diag).sequence
                except NotTensorFactorable:
                    continue
                err, _ = phase_aligned_error(sequence_to_unitary(seq, n), np.diag(diag))
                assert err < 1e-10, str(f)

    def test_non_unit_modulus_rejected(self):
        with pytest.raises(NotTensorFactorable):
            compile_diagonal(np.array([1.0, 0.5]))

    def test_composition_law(self):
        # compile(A B) equals compile(A) + compile(B) up to global phase
        a = phase_matrix(parse_formula("v1 & !v2 & v3"))
        b = gamma_matrix(3, 3)
        combined = compile_diagonal(a * b).sequence
        stitched = PulseSequence(compile_diagonal(a).sequence.pulses + compile_diagonal(b).sequence.pulses)
        err, _ = phase_aligned_error(
            sequence_to_unitary(combined, 3), sequence_to_unitary(stitched, 3))
        assert err < 1e-10

    @settings(max_examples=50)
    @given(st.integers(1, 4), st.data())
    def test_factorable_diagonals_always_compile(self, n, data):
        quarter = np.pi / 2
        angles = [data.draw(st.integers(-3, 3)) * quarter for _ in range(n)]
        diag = np.ones(1, dtype=complex)
        for theta in angles:
            diag = np.kron(diag, np.array([1.0, np.exp(1j * theta)]))
        seq = compile_diagonal(diag).sequence
        err, _ = phase_aligned_error(sequence_to_unitary(seq, n), np.diag(diag))
        assert err < 1e-10


class TestReduce:
    def test_merges_repeated_pulses(self):
        seq = parse_pulse_sequence("X1 X1")
        assert reduce_sequence(seq).pulses == (Pulse(1, "x", np.pi),)

    def test_cancels_inverse_pair(self):
        assert reduce_sequence(parse_pulse_sequence("X1 X~1")) == PulseSequence(())

    def test_commutes_across_spins(self):
        seq = parse_pulse_sequence("X1 Y2 X~1")
        reduced = reduce_sequence(seq)
        assert reduced.pulses == (Pulse(2, "y", np.pi / 2),)

    def test_table_rows_as_regression_corpus(self):
        for row in THREE_SPIN_TABLE:
            seq = parse_pulse_sequence(row.sequence_text)
            reduced = reduce_sequence(seq)
            err, _ = phase_aligned_error(
                sequence_to_unitary(reduced, 3), sequence_to_unitary(seq, 3))
            assert err < 1e-12, row.formula_text


class TestTableVerification:
    def test_all_rows_state_equivalent(self):
        for row in THREE_SPIN_TABLE:
            f = parse_formula(row.formula_text, n=3)
            report = verify_table_sequence(f, parse_pulse_sequence(row.sequence_text))
            assert report.state_equivalent, row.formula_text
            assert abs(abs(report.state_global_phase) - 1) < 1e-12

    def test_three_clause_rows_also_fully_equivalent(self):
        for row in THREE_SPIN_TABLE:
            f = parse_formula(row.formula_text, n=3)
            report = verify_table_sequence(f, parse_pulse_sequence(row.sequence_text))
            if f.m == 3:
                assert report.full_equivalent, row.formula_text

    def test_single_clause_rows_only_act_on_prepared_state(self):
        # the reduced single-clause sequences realize U R W on |000> but not
        # as full unitaries; both facts are part of the report
        row = next(r for r in THREE_SPIN_TABLE if r.formula_text == "!v1")
        f = parse_formula(row.formula_text, n=3)
        report = verify_table_sequence(f, parse_pulse_sequence(row.sequence_text))
        assert report.state_equivalent and not report.full_equivalent

    def test_sequence_output_covers_solutions(self):
        for row in THREE_SPIN_TABLE:
            f = parse_formula(row.formula_text, n=3)
            seq = parse_pulse_sequence(row.sequence_text)
            state = sequence_to_unitary(seq, 3)[:, 0]
            support = {a for a in range(8) if abs(state[a]) > 1e-9}
            assert support == solutions(f), row.formula_text

    def test_table_kets_match_solutions_after_bit_reversal(self):
        # the tabulated kets index spin 3 as the most significant bit;
        # per-row reversal recovers the package-convention solution sets
        mismatched = []
        for row in THREE_SPIN_TABLE:
            f = parse_formula(row.formula_text, n=3)
            assert row.solution_assignments() == solutions(f), row.formula_text
            if not row.kets_match_package_order():
                mismatched.append(row.formula_text)
        # palindromic rows read the same either way; the rest do not
        assert mismatched == ["v1", "!v1", "v3", "!v3", "!v1 & v2 & v3",
                              "!v1 & !v2 & v3", "v1 & v2 & !v3", "v1 & !v2 & !v3"]

    def test_empty_sequence_is_not_equivalent(self):
        f = parse_formula("v1")
        report = verify_table_sequence(f, PulseSequence(()))
        assert not report.state_equivalent and not report.full_equivalent

    def test_search_unitary_is_unitary(self):
        for f in one_sat_formulas(3):
            assert is_unitary(search_unitary(f), tol=1e-10)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_search_unitary_matches_dense_product(self, n):
        for f in one_sat_formulas(n):
            assert np.abs(search_unitary(f) - reference.search_unitary(f)).max() <= 1e-12, str(f)

    def test_search_unitary_dense_cap(self):
        with pytest.raises(ValueError, match=r"n=13 needs a dense 2\*\*13 x 2\*\*13"):
            search_unitary(parse_formula("v13"))


class TestPhaseAlignment:
    def test_rounding_level_entry_gives_unit_phase(self):
        # the candidate's entry at the reference's largest entry is noise
        reference = np.array([1.0, 0.5])
        candidate = np.array([3e-17 * np.exp(0.7j), 1.0])
        err, phase = phase_aligned_error(candidate, reference)
        assert phase == 1
        assert err == np.abs(candidate - reference).max()

    def test_not_equivalent_orderings_report_the_same_phase(self):
        f = parse_formula("v1 & v2 & v3")
        results = [verify_table_sequence(f, parse_pulse_sequence(text)) for text in
                   ("(XY~X)1 (XY~X~)2 (XY~X~)3", "(XY~X~)2 (XY~X)1 (XY~X~)3")]
        assert [r.state_equivalent for r in results] == [False, False]
        assert [r.state_global_phase for r in results] == [1, 1]


class TestLoweredPrograms:
    def test_three_programs(self):
        programs = [program for program, _ in lowering_errors()]
        assert len(programs) == 3
        assert programs[0].elements == ()

    def test_programs_match_gate_chains(self):
        scheme = builtin_prep_scheme(3)
        for (program, err), experiment in zip(lowering_errors(), scheme.experiments):
            chain = np.eye(8)
            for gate in experiment.gates:
                chain = reference.gate_unitary(gate, 3) @ chain
            expected, phase = phase_aligned_error(program_unitary(program, 3), chain)
            assert err == expected and err < 1e-10, program.label
            assert abs(abs(phase) - 1) < 1e-12

    def test_delays_stay_symbolic(self):
        program, _ = lowering_errors()[1]  # gates N3, CN21, CN32 in order
        delays = [e for e in program.elements if hasattr(e, "duration_expr")]
        assert [d.duration_expr for d in delays] == ["1/(2*J12)", "1/(2*J23)"]
        assert "delay[1/(2*J12)]" in program.describe()
