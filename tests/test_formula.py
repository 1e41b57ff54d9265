import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoggsat.formula import (
    Clause,
    Formula,
    FormulaParseError,
    Literal,
    assignment_bits,
    conflict_counts,
    grover_success_probability,
    parse_assignment_bits,
    parse_formula,
    reverse_bits,
    solutions,
    spin_bit,
)
from reference import hamming_distance, negate_variable


def one_sat(*signed_vars, n=None):
    """Formula from signed variable indices, e.g. one_sat(1, -2, 3)."""
    lits = [Literal(abs(v), v < 0) for v in signed_vars]
    n = n or max(l.variable for l in lits)
    return Formula(n, tuple(Clause((l,)) for l in lits))


def brute_force_conflicts(f):
    """Independent oracle: evaluate each clause per assignment directly.
    Entry a counts the clauses assignment a violates (V_1 most significant)."""
    return [
        sum(not any(bits[l.variable - 1] != l.negated for l in clause.literals)
            for clause in f.clauses)
        for bits in itertools.product((False, True), repeat=f.n)
    ]


def brute_force_solutions(f):
    return {a for a, count in enumerate(brute_force_conflicts(f)) if count == 0}


class TestConflicts:
    def test_all_positive_satisfied(self):
        assert conflict_counts(one_sat(1, 2, 3))[0b111] == 0

    def test_all_positive_all_false(self):
        assert conflict_counts(one_sat(1, 2, 3))[0b000] == 3

    def test_single_clause_false_for_any_tail(self):
        counts = conflict_counts(one_sat(1, n=3))
        for tail in range(4):
            assert counts[tail] == 1  # v1 = 0 in assignments 0xx

    def test_range(self):
        f = one_sat(1, -2, 3)
        counts = conflict_counts(f)
        assert counts.shape == (8,)
        assert 0 <= counts.min() and counts.max() <= f.m

    def test_conflict_counts_matches_scalar(self):
        for f in [
            one_sat(1, -2, 3, -1),
            one_sat(-2, 4, 2, n=5),
        ]:
            assert list(conflict_counts(f)) == brute_force_conflicts(f)


class TestSolutions:
    def test_unique_solution(self):
        assert solutions(one_sat(1, 2, 3)) == {0b111}

    def test_negated_first_variable(self):
        # V1 is the most significant bit, so solutions have the top bit clear
        assert solutions(one_sat(-1, n=3)) == {0b000, 0b001, 0b010, 0b011}

    def test_contradiction_is_insoluble(self):
        assert solutions(one_sat(1, -1)) == frozenset()

    def test_matches_independent_oracle(self):
        for signed in [(1,), (-2,), (1, -3), (2, 3), (-1, -2, -3), (1, 2, -3)]:
            f = one_sat(*signed, n=3)
            assert solutions(f) == brute_force_solutions(f)

    def test_soluble_one_sat_count(self):
        # |solutions| = 2**(n-m) for contradiction-free 1-SAT, exhaustively
        for n in range(1, 9):
            for m in range(1, n + 1):
                for subset in itertools.combinations(range(1, n + 1), m):
                    for signs in itertools.product((1, -1), repeat=m):
                        f = one_sat(*(s * v for s, v in zip(signs, subset)), n=n)
                        assert len(solutions(f)) == 2 ** (n - m)


class TestHamming:
    @pytest.mark.parametrize("r,s,d", [(0b101, 0b101, 0), (0b101, 0b110, 2), (0b000, 0b111, 3)])
    def test_examples(self, r, s, d):
        assert hamming_distance(r, s) == d

    def test_weight_formula_exhaustive(self):
        # d(r,s) = |r| + |s| - 2|r AND s|, checked for all pairs at n=8... kept
        # to n=6 pairs here; the formula is bit-length independent
        for r in range(64):
            for s in range(64):
                expected = bin(r).count("1") + bin(s).count("1") - 2 * bin(r & s).count("1")
                assert hamming_distance(r, s) == expected

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_popcount_identity(self, r, s):
        assert hamming_distance(r, s) == bin(r ^ s).count("1")


class TestGrover:
    def test_three_qubits_two_iterations(self):
        assert grover_success_probability(3, 2) == pytest.approx(0.9453125, abs=1e-12)

    def test_zero_iterations_is_random_guess(self):
        for n in range(1, 10):
            assert grover_success_probability(n, 0) == pytest.approx(2.0**-n, abs=1e-14)

    def test_two_qubits_one_iteration_exact(self):
        # arcsin(1/2) = pi/6 and sin(pi/2) = 1
        assert grover_success_probability(2, 1) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            grover_success_probability(0, 1)
        with pytest.raises(ValueError):
            grover_success_probability(3, -1)


class TestParsing:
    def test_basic(self):
        f = parse_formula("v1 & !v2 & v3")
        assert str(f) == "v1 & !v2 & v3"
        assert f.n == 3 and f.m == 3

    def test_whitespace_and_case_insensitive(self):
        assert parse_formula(" V1&  !v2 ") == parse_formula("v1 & !v2")

    def test_explicit_n(self):
        f = parse_formula("!v2", n=3)
        assert f.n == 3
        assert solutions(f) == {0b000, 0b001, 0b100, 0b101}

    def test_n_too_small(self):
        with pytest.raises(FormulaParseError):
            parse_formula("v3", n=2)

    def test_error_reports_position(self):
        with pytest.raises(FormulaParseError) as exc:
            parse_formula("v1 & w2")
        assert exc.value.position == 5
        assert "literal" in exc.value.reason

    def test_empty_clause(self):
        with pytest.raises(FormulaParseError):
            parse_formula("v1 & & v2")


class TestConventions:
    def test_variable_one_is_most_significant(self):
        assert spin_bit(1, 3) == 0b100
        assert spin_bit(3, 3) == 0b001

    def test_bit_round_trip(self):
        for a in range(8):
            assert parse_assignment_bits(assignment_bits(a, 3)) == a

    def test_reverse_bits(self):
        assert reverse_bits(0b110, 3) == 0b011
        assert reverse_bits(0b101, 3) == 0b101

    @given(st.integers(1, 8), st.data())
    def test_reverse_involution(self, n, data):
        a = data.draw(st.integers(0, 2**n - 1))
        assert reverse_bits(reverse_bits(a, n), n) == a


class TestValidation:
    def test_formula_bounds(self):
        with pytest.raises(ValueError):
            Formula(0, (Clause((Literal(1),)),))
        with pytest.raises(ValueError):
            Formula(17, (Clause((Literal(1),)),))
        with pytest.raises(ValueError):
            Formula(2, ())
        with pytest.raises(ValueError):
            Formula(2, (Clause((Literal(3),)),))

    def test_clause_nonempty(self):
        # a clause holds exactly one literal: 1-SAT
        for literals in ((), (Literal(1), Literal(2))):
            with pytest.raises(ValueError, match="exactly one literal"):
                Clause(literals)


@settings(max_examples=60)
@given(st.integers(1, 5), st.data())
def test_negate_variable_flips_solutions(n, data):
    m = data.draw(st.integers(1, n))
    variables = data.draw(st.permutations(range(1, n + 1)))
    signs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    f = Formula(n, tuple(Clause((Literal(v, s),)) for v, s in zip(variables, signs)))
    k = data.draw(st.integers(1, n))
    flipped = negate_variable(f, k)
    mask = 1 << (n - k)
    assert solutions(flipped) == {a ^ mask for a in solutions(f)}
    assert negate_variable(flipped, k) == f
