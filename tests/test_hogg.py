import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hoggsat import hogg
from hoggsat.formula import Clause, Formula, Literal, parse_formula, solutions, spin_bit
from hoggsat.hogg import (
    SOLVE_BLOCK,
    WgwReport,
    gamma_matrix,
    mixing_column,
    phase_matrix,
    solve,
    verify_wgw,
    walsh_apply,
)
from reference import (
    dense_solve,
    is_unitary,
    listed_distribution,
    mixing_matrix,
    negate_variable,
    one_literal_formulas,
    one_sat_formulas,
    walsh_hadamard,
)

PHASE_FIXTURE = np.array([-1j, -1, -1, 1j, -1, 1j, 1j, 1])
GAMMA_FIXTURE = np.array([1, 1j, 1j, -1, 1j, -1, -1, -1j])


class TestWalshHadamard:
    def test_single_qubit(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(walsh_hadamard(1), expected, atol=1e-14)

    def test_two_qubit_corner_entry(self):
        # popcount(3 AND 3) = 2, so entry (3, 3) = +1/2
        assert walsh_hadamard(2)[3, 3] == pytest.approx(0.5, abs=1e-14)

    def test_first_row_uniform(self):
        for n in (1, 3, 5):
            assert np.allclose(walsh_hadamard(n)[0], 2 ** (-n / 2), atol=1e-14)

    def test_involution(self):
        for n in range(1, 7):
            w = walsh_hadamard(n)
            assert np.abs(w @ w - np.eye(2**n)).max() < 1e-12

    def test_butterfly_matches_dense(self):
        rng = np.random.default_rng(7)
        for n in range(1, 8):
            vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            assert np.allclose(walsh_apply(vec), walsh_hadamard(n) @ vec, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batched_butterfly_matches_dense(self, n):
        rng = np.random.default_rng(n)
        columns = rng.normal(size=(2**n, 3))
        real = walsh_apply(columns)
        assert real.dtype == np.float64
        assert np.abs(real - walsh_hadamard(n) @ columns).max() < 1e-12
        columns = columns + 1j * rng.normal(size=columns.shape)
        assert np.abs(walsh_apply(columns) - walsh_hadamard(n) @ columns).max() < 1e-12
        assert np.abs(walsh_apply(np.eye(2**n)) - walsh_hadamard(n)).max() < 1e-12

    def test_rejects_bad_sizes(self):
        for n in (0, 17):
            for build in (lambda n: mixing_column(n, 1), lambda n: verify_wgw(n, 1)):
                with pytest.raises(ValueError, match=r"qubit count must be in \[1, 16\]"):
                    build(n)
        with pytest.raises(ValueError):
            walsh_apply(np.ones(3))

    def test_dense_cap(self):
        # no hogg route is dense: verify_wgw and the pipeline reach the
        # formula model's cap, past linalg.MAX_DENSE_QUBITS
        assert verify_wgw(13, 1).passed
        assert gamma_matrix(16, 3).size == 2**16
        assert solve(parse_formula("v16")).support.size == 2**15


class TestPhaseMatrix:
    def test_three_clause_fixture(self):
        f = parse_formula("v1 & v2 & v3")
        assert np.abs(phase_matrix(f) - PHASE_FIXTURE).max() < 1e-12

    def test_odd_m_solution_entry_is_one(self):
        for f in one_sat_formulas(3):
            if f.m % 2 == 1:
                diag = phase_matrix(f)
                for s in solutions(f):
                    assert diag[s] == pytest.approx(1.0, abs=1e-14)

    def test_single_variable(self):
        f = parse_formula("v1")
        assert np.allclose(phase_matrix(f), [1j, 1], atol=1e-14)

    def test_unit_modulus(self):
        for f in one_sat_formulas(4):
            assert np.abs(np.abs(phase_matrix(f)) - 1).max() < 1e-12

    def test_exact_at_large_clause_counts(self):
        # R has period 8 in the conflict count, so m = 5001 is as exact as m = 1
        odd = phase_matrix(parse_formula(" & ".join(["v1"] * 5001)))
        assert set(odd.tolist()) <= {1, -1, 1j, -1j}
        even = phase_matrix(parse_formula(" & ".join(["v1"] * 5002)))
        assert np.abs(np.abs(even) - 1).max() <= 2.3e-16


class TestGammaMatrix:
    def test_normalized_fixture(self):
        g = gamma_matrix(3, 3)
        assert np.abs(g / g[0] - GAMMA_FIXTURE).max() < 1e-12

    def test_raw_leading_entry(self):
        assert gamma_matrix(3, 3)[0] == pytest.approx(np.exp(-3j * np.pi / 4), abs=1e-14)

    def test_even_m_zero_bits(self):
        for n in (1, 2, 4):
            assert gamma_matrix(n, 2)[0] == pytest.approx(1.0, abs=1e-14)

    def test_unit_modulus(self):
        for n in range(1, 6):
            for m in range(0, 6):
                assert np.abs(np.abs(gamma_matrix(n, m)) - 1).max() < 1e-12


class TestMixingMatrix:
    def test_even_m_profile(self):
        u = mixing_matrix(3, 2)
        by_distance = {0: 0.0, 1: 0.5, 2: 0.0, 3: -0.5}
        for r in range(8):
            for s in range(8):
                d = bin(r ^ s).count("1")
                assert u[r, s] == pytest.approx(by_distance[d], abs=1e-14)

    def test_odd_m_constant_modulus(self):
        u = mixing_matrix(3, 3)
        assert np.abs(np.abs(u) - 2**-1.5).max() < 1e-12

    def test_odd_m_diagonal_entry(self):
        assert mixing_matrix(3, 3)[5, 5] == pytest.approx(2**-1.5, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_direct_formula_bit_for_bit(self, n):
        idx = np.arange(2**n, dtype=np.uint32)
        d = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(np.int64)
        for m in range(0, n + 3):
            if m % 2 == 0:
                direct = (2 ** (-(n - 1) / 2) * np.cos((n - m + 1 - 2 * d) * np.pi / 4)).astype(complex)
            else:
                direct = 2 ** (-n / 2) * np.exp(1j * np.pi * (n - m) / 4) * (-1j) ** d
            assert np.array_equal(mixing_matrix(n, m), direct), (n, m)
            assert np.array_equal(mixing_column(n, m), direct[:, 0]), (n, m)

    def test_unitary_over_grid(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                assert is_unitary(mixing_matrix(n, m), tol=1e-10)


class TestWgwFactorization:
    @pytest.mark.parametrize("n,m", [(3, 3), (3, 2), (1, 1)])
    def test_fixture_pairs(self, n, m):
        report = verify_wgw(n, m)
        assert report.passed
        assert report.wgw_error < 1e-12

    def test_full_grid(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                report = verify_wgw(n, m)
                assert report.passed, (n, m, report.wgw_error)
                assert abs(abs(report.wgw_phase) - 1) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_reference(self, n):
        for m in range(0, n + 3):
            fast, dense = verify_wgw(n, m), reference.verify_wgw(n, m)
            assert (fast.n, fast.m, fast.passed, fast.mixing_unitary) == (
                dense.n, dense.m, dense.passed, dense.mixing_unitary), (n, m)
            for field in ("wgw_error", "wgw_phase", "gamma_modulus_error",
                          "walsh_involution_error"):
                assert abs(getattr(fast, field) - getattr(dense, field)) < 1e-12, (n, m, field)

    def test_zero_and_excess_clause_counts_are_in_domain(self):
        # the operators are defined for every m >= 0, including m = 0 and m > n
        for n, m in ((3, 0), (2, 5), (1, 0), (4, 9)):
            assert verify_wgw(n, m).passed, (n, m)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_wgw(3, -1)

    def test_flipped_gamma_entry_fails(self, monkeypatch):
        def flipped(n, m):
            gamma = gamma_matrix(n, m)
            gamma[3] = -gamma[3]
            return gamma

        monkeypatch.setattr(hogg, "gamma_matrix", flipped)
        report = verify_wgw(3, 3)
        assert report.passed is False
        assert report.wgw_error > 0.1
        assert report.gamma_modulus_error < 1e-12

    def test_non_unitary_mixing_column_fails(self, monkeypatch):
        def scaled(n, m):
            return 1.01 * mixing_column(n, m)

        monkeypatch.setattr(hogg, "mixing_column", scaled)
        report = verify_wgw(3, 3)
        assert report.mixing_unitary is False
        assert report.passed is False

    @pytest.mark.parametrize("fault", ["scaled", "swapped"])
    def test_probe_catches_broken_butterfly(self, monkeypatch, fault):
        def broken(vec):
            out = walsh_apply(vec)
            if fault == "scaled":
                return out * (1 + 1e-9)
            out[[1, 2]] = out[[2, 1]]
            return out

        monkeypatch.setattr(hogg, "walsh_apply", broken)
        report = verify_wgw(4, 2)
        assert report.walsh_involution_error > hogg.OPERATOR_TOL
        assert report.passed is False

    def test_probe_is_deterministic(self):
        # the probe is the fixed vector cos(0, 1, ..., 2**n - 1): no seed, no random state
        first = verify_wgw(9, 4)
        assert verify_wgw(9, 4) == first
        probe = np.cos(np.arange(2**9))
        assert first.walsh_involution_error == np.abs(walsh_apply(walsh_apply(probe)) - probe).max()

    def test_formula_cap_passes_for_every_clause_count(self):
        for m in range(0, 18):
            report = verify_wgw(16, m)
            assert report.passed, (m, report)
            assert report.walsh_involution_error < 1e-13


class TestPipeline:
    def test_unique_solution_formula(self):
        probs = listed_distribution(solve(parse_formula("v1 & v2 & v3")), 3)
        assert probs[0b111] == pytest.approx(1.0, abs=1e-12)
        assert probs[:7].max() < 1e-12

    def test_single_clause_uniform_over_solutions(self):
        f = parse_formula("v1", n=3)
        probs = listed_distribution(solve(f), 3)
        for a in range(8):
            expected = 0.25 if a in solutions(f) else 0.0
            assert probs[a] == pytest.approx(expected, abs=1e-12)

    def test_two_clause_half_probability(self):
        f = parse_formula("v1 & v2", n=3)
        probs = listed_distribution(solve(f), 3)
        for a in range(8):
            expected = 0.5 if a in solutions(f) else 0.0
            assert probs[a] == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_route(self):
        for n in range(1, 6):
            for f in one_sat_formulas(n):
                dense = mixing_matrix(n, f.m) @ (
                    phase_matrix(f) * (walsh_hadamard(n)[:, 0]))
                assert np.abs(dense_solve(f).state - dense).max() < 1e-12

    def test_stage_normalization(self):
        f = parse_formula("!v1 & v2", n=4)
        psi = walsh_hadamard(4)[:, 0]
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        psi = phase_matrix(f) * psi
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        psi = mixing_matrix(4, f.m) @ psi
        assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_completeness_exhaustive(self):
        # soluble 1-SAT always lands on the solution set with uniform weight
        for n in range(1, 7):
            for f in one_sat_formulas(n):
                sols = solutions(f)
                if not sols:
                    continue
                probs = listed_distribution(solve(f), n)
                weight = 2.0 ** -(n - f.m)
                for a in range(2**n):
                    expected = weight if a in sols else 0.0
                    assert abs(probs[a] - expected) < 1e-10

    def test_insoluble_formula_still_runs(self):
        f = parse_formula("v1 & !v1")
        probs = solve(f).support_probabilities
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        for n in range(1, 5):
            for f in one_sat_formulas(n):
                base = listed_distribution(solve(f), n)
                for k in range(1, n + 1):
                    mask = 1 << (n - k)
                    flipped = listed_distribution(solve(negate_variable(f, k)), n)
                    permuted = np.array([base[a ^ mask] for a in range(2**n)])
                    assert np.abs(flipped - permuted).max() < 1e-12


@st.composite
def distinct_variable_formulas(draw, max_n):
    n = draw(st.integers(1, max_n))
    variables = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(1, n))]
    return Formula(n, tuple(Clause((Literal(v, draw(st.booleans())),)) for v in variables))


class TestSearchFactors:
    def test_formula_cap_solutions_share_one_exact_amplitude(self):
        f = parse_formula("v1 & !v5 & v16", n=16)
        psi = dense_solve(f).state
        sols = sorted(solutions(f))
        assert set(psi[sols].tolist()) == {2 ** -6.5 + 0j}
        assert np.count_nonzero(psi) == len(sols)
        assert int(np.argmax(np.abs(psi) ** 2)) == sols[0]
        report = solve(f)
        assert report.support.tolist() == sols and report.top == sols[0]
        assert set(report.support_probabilities.tolist()) == {(2 ** -6.5) ** 2}

    @settings(max_examples=30, deadline=None)
    @given(distinct_variable_formulas(10))
    def test_product_route_matches_dense_reference(self, f):
        # no phase alignment: the global phase is part of the claim
        assert np.abs(dense_solve(f).state - reference.dense_search_state(f)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(distinct_variable_formulas(10))
    def test_four_term_form_has_phase_one_at_a_solution(self, f):
        lowest = min(solutions(f))
        amplitude = reference.four_term_amplitude(f, lowest)
        assert abs(amplitude - 2 ** (-(f.n - f.m) / 2)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(one_literal_formulas(10, 12))
    def test_every_formula_matches_the_butterfly(self, f):
        # no phase alignment, and an amplitude that cancels is an exact 0
        state, butterfly = dense_solve(f).state, reference.butterfly_state(f)
        assert np.abs(state - butterfly).max() <= 1e-12
        assert np.all(state[np.abs(butterfly) < 1e-9] == 0)
        assert np.abs(reference.four_term_state(f) - state).max() <= 1e-12


class TestSolve:
    def test_canonical_formulas_up_to_the_cap(self):
        # v1 & ... & vm for 1 <= m <= n <= 16: every clause count at every size
        checked = 0
        for n in range(1, 17):
            for m in range(1, n + 1):
                f = parse_formula(" & ".join(f"v{k}" for k in range(1, m + 1)), n=n)
                report = solve(f)
                assert np.abs(dense_solve(f).state - reference.butterfly_state(f)).max() <= 1e-12
                assert report.solutions.tolist() == list(range(2**n - 2 ** (n - m), 2**n))
                assert report.support.tolist() == report.solutions.tolist()
                assert report.support_probabilities == pytest.approx(2.0 ** -(n - m), rel=1e-12)
                assert report.verdict == "SAT"
                checked += 1
        assert checked == 136

    @pytest.mark.parametrize("text,top,verdict", [
        # even m: a tie goes to the fewest conflicts, here the solution
        ("v1 & v1", 0b1, "SAT"),
        ("v1 & v1 & !v2 & !v2", 0b10, "SAT"),
        # odd m: a tie goes to the lowest index, here a false UNSAT
        ("v1 & v1 & v2", 0b01, "UNSAT"),
    ])
    def test_tied_top_assignments(self, text, top, verdict):
        report = solve(parse_formula(text))
        assert report.top_probability == report.support_probabilities.max()
        assert (report.top, report.verdict) == (top, verdict)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_relabeling_permutes_the_state(self, data):
        # flipping the sign of V_k XORs its bit into every index, and renaming
        # V_k to V_perm(k) moves its bit; the state moves with the indices
        n = data.draw(st.integers(1, 7))
        literals = data.draw(st.lists(st.tuples(st.integers(1, n), st.booleans()), min_size=1, max_size=n + 2))
        perm = data.draw(st.permutations(range(1, n + 1)))
        flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        f = Formula(n, tuple(Clause((Literal(v, neg),)) for v, neg in literals))
        g = Formula(n, tuple(Clause((Literal(perm[v - 1], neg != flips[v - 1]),)) for v, neg in literals))
        index = np.arange(2**n)
        moved = np.zeros_like(index)
        for k in range(1, n + 1):
            bit = (index & spin_bit(k, n)) != 0
            moved |= np.where(bit != flips[k - 1], spin_bit(perm[k - 1], n), 0)
        assert np.abs(dense_solve(g).state[moved] - reference.butterfly_state(f)).max() <= 1e-12


def assert_matches_the_dense_oracle(f):
    """`solve`'s listing and verdict equal, bit for bit, those read off the
    whole 2**n distribution."""
    report, dense = solve(f), dense_solve(f)
    p = dense.probabilities
    assert np.array_equal(report.support, np.flatnonzero(p > 0))
    assert np.array_equal(report.support_probabilities, p[report.support])
    assert (report.top, report.top_probability, report.top_conflicts, report.verdict) == (
        dense.top, dense.top_probability, dense.top_conflicts, dense.verdict)
    assert np.array_equal(report.solutions, dense.solutions)


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(one_literal_formulas(10, 12))
    def test_listing_matches_the_dense_oracle(self, f):
        assert_matches_the_dense_oracle(f)

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("pattern", ["v1 & v1", "v1 & v1 & v{n}", "v1 & v1 & !v{h} & v{n}"])
    def test_ties_across_blocks_match_the_dense_oracle(self, n, pattern):
        # v1 is the most significant bit, so at n = 16 its two values lie
        # in different blocks and every tie between them crosses one
        assert_matches_the_dense_oracle(parse_formula(pattern.format(n=n, h=(n + 1) // 2), n=n))

    @pytest.mark.parametrize("text", [
        "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & !v9 & v10 & v11 & !v12 & v1",
        "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & !v9 & v10 & v11 & !v12 & v13 & v14 & !v15 & v1",
        "v1 & !v3 & v5 & !v7 & v9 & !v11 & v13 & !v15",
        "v2 & !v4 & v5 & v8 & !v9 & v12 & !v13 & v14 & !v16",
        "!v1 & v3 & v4 & !v6 & v8 & v9 & !v10 & v11 & v13 & !v14 & v15 & !v16",
    ])
    def test_formula_cap_holds_no_state_vector(self, text):
        f = parse_formula(text, n=16)
        solve(f)  # first-call set-up is not the search's
        tracemalloc.start()
        try:
            solve(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # with 8 or more distinct variables the halves keep at most
        # 4 * 2**(16 - 8) = 1024 pairs once the all-zero half indices are
        # dropped, so the search stays below one full block: SOLVE_BLOCK
        # amplitudes (16 bytes each), their moduli and probabilities (8 + 8)
        assert peak < 32 * SOLVE_BLOCK


class TestMeasureDistribution:
    def test_all_negated_formula_lands_on_zero(self):
        probs = listed_distribution(solve(parse_formula("!v1 & !v2 & !v3")), 3)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
