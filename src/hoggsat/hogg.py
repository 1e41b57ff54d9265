"""Operators and pipeline of the single-step structured search.

The search runs in four stages on n qubits:

1. prepare the uniform superposition W|00...0>,
2. apply the conflict-phase diagonal R,
3. apply the Hamming-distance mixing operator U = W Gamma W,
4. read out the final distribution.

Operator definitions, with c the conflict count of an assignment, h its
number of 1-bits, d the Hamming distance between two assignments, and m the
clause count:

    R_ss     = sqrt(2) * cos((2c - 1) * pi/4)                 (m even)
             = i**c                                           (m odd)
    Gamma_rr = sqrt(2) * cos((m - 2h - 1) * pi/4)             (m even)
             = i**h * exp(-i*pi*m/4)                          (m odd)
    U_rs     = 2**(-(n-1)/2) * cos((n - m + 1 - 2d) * pi/4)   (m even)
             = 2**(-n/2) * exp(i*pi*(n-m)/4) * (-i)**d        (m odd)
    W_rs     = 2**(-n/2) * (-1)**popcount(r AND s)

All diagonals are returned raw, exactly as defined above; comparisons that
only hold up to a global phase perform explicit alignment instead of baking
normalization into the constructors.

U_rs depends only on r XOR s, so U is the XOR-convolution with its column
0 (`mixing_column`) and W diagonalizes it.  No function here builds a
2**n x 2**n matrix: `solve` and `verify_wgw` work on vectors, and both
reach the formula model's cap n = 16.  The dense W and U live in the test
suite as references.

`solve` counts the conflicts of every assignment once, runs the search,
and checks its most probable assignment against those counts: the verdict
is SAT exactly when that assignment satisfies f.  The state comes from one
of two routes, picked by `Formula.distinct_variables` (every clause holds
one literal and no variable repeats):

* product: under that precondition the final state is an exact product
  state (T. Hogg, PRL 80, 2473 (1998)).  R is i**c for odd m and
  (e^{-i pi/4} i**c + e^{i pi/4} (-i)**c) / sqrt(2) for even m, and U splits
  the same way, so U R W|0> is a sum of at most four Kronecker products of
  per-qubit 2-vectors.  For even m the two cross terms put every
  constrained qubit on its violating value and cancel; what is left, for
  either parity of m, is 2**(-(n-m)/2) times the Kronecker product of
  `search_factors`, with global phase exactly 1.
  Solutions get identical amplitudes and every other entry is exactly 0.
* butterfly: for repeated variables and k-literal clauses, every stage is a
  diagonal or the O(n * 2**n) Walsh-Hadamard butterfly (`walsh_apply`); R
  is built from the same conflict counts as the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .formula import Formula, check_qubit_count, conflict_counts
from .linalg import phase_aligned_error

OPERATOR_TOL = 1e-10
#: Seed of the Gaussian probe vector x on which `verify_wgw` checks W(Wx) = x.
WALSH_PROBE_SEED = 1977


def walsh_apply(vec: np.ndarray) -> np.ndarray:
    """Apply the normalized Walsh-Hadamard transform along axis 0 with the butterfly.

    A 2-D input is transformed column by column.  Real input gives a real
    result; anything else is transformed as complex.
    """
    out = np.array(vec, dtype=float if np.isrealobj(vec) else complex, ndmin=1)
    size = out.shape[0]
    if size & (size - 1) or size == 0:
        raise ValueError("state length must be a power of two")
    rest = out.shape[1:]
    h = 1
    while h < size:
        pairs = out.reshape(-1, 2, h, *rest)
        top, bottom = pairs[:, 0], pairs[:, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        h *= 2
    out /= np.sqrt(size)
    return out


def _conflict_phases(c: np.ndarray, m: int) -> np.ndarray:
    """Diagonal of R from the conflict counts c of a formula of m clauses."""
    if m % 2 == 0:
        return (np.sqrt(2) * np.cos((2 * c - 1) * np.pi / 4)).astype(complex)
    return 1j**c


def phase_matrix(f: Formula) -> np.ndarray:
    """Diagonal of the conflict-phase operator R for formula f."""
    return _conflict_phases(conflict_counts(f), f.m)


def _one_bit_counts(n: int, m: int) -> np.ndarray:
    """Number of 1-bits of every index 0..2**n-1, after checking n and the clause count m."""
    check_qubit_count(n)
    if m < 0:
        raise ValueError("clause count must be nonnegative")
    return np.bitwise_count(np.arange(2**n)).astype(np.int64)  # uint8 would wrap in m - 2*h - 1


def gamma_matrix(n: int, m: int) -> np.ndarray:
    """Diagonal of Gamma, a function of the number of 1-bits per assignment."""
    h = _one_bit_counts(n, m)
    if m % 2 == 0:
        return (np.sqrt(2) * np.cos((m - 2 * h - 1) * np.pi / 4)).astype(complex)
    return (1j**h) * np.exp(-1j * np.pi * m / 4)


def mixing_column(n: int, m: int) -> np.ndarray:
    """Column 0 of the mixing operator: entry k is U_k0, a function of the
    number of 1-bits d of k; U_rs = column[r ^ s]."""
    d = _one_bit_counts(n, m)
    if m % 2 == 0:
        return (2 ** (-(n - 1) / 2) * np.cos((n - m + 1 - 2 * d) * np.pi / 4)).astype(complex)
    return 2 ** (-n / 2) * np.exp(1j * np.pi * (n - m) / 4) * (-1j) ** d


@dataclass(frozen=True)
class WgwReport:
    """Outcome of checking U against W @ Gamma @ W, and the operators' own
    identities: U unitary, |Gamma| = 1 and W @ W = I (on a probe vector)."""

    n: int
    m: int
    wgw_error: float
    wgw_phase: complex
    mixing_unitary: bool
    gamma_modulus_error: float
    walsh_involution_error: float
    passed: bool


def verify_wgw(n: int, m: int, tol: float = OPERATOR_TOL) -> WgwReport:
    """Check the mixing operator against its W Gamma W factorization.

    Both U and W Gamma W depend only on r XOR s, so their columns 0 decide
    every entry: column 0 of W Gamma W is 2**(-n/2) * W Gamma; `wgw_error` is
    its max error against `mixing_column` after aligning the global phase
    `wgw_phase` at its largest-modulus entry.  U is unitary when column 0 of
    U^H U - I, which is 2**(-n/2) * W(|lambda|**2 - 1) for the eigenvalues
    lambda = 2**(n/2) * W u, stays within `tol`.  W @ W = I is checked on one
    probe (Freivalds' randomized check): `walsh_involution_error` is
    max |W(Wx) - x| for a fixed Gaussian vector x seeded by `WALSH_PROBE_SEED`,
    so every check is O(n * 2**n) and n reaches the formula cap.  `passed` is
    False when the aligned error, the unitarity of U, the modulus error of
    Gamma or the probe error misses `tol`.
    """
    gamma = gamma_matrix(n, m)
    u = mixing_column(n, m)
    scale = 2 ** (n / 2)
    err, phase = phase_aligned_error(walsh_apply(gamma) / scale, u)
    eigenvalues = scale * walsh_apply(u)
    unitary = bool(np.abs(walsh_apply(np.abs(eigenvalues) ** 2 - 1.0)).max() / scale <= tol)
    gamma_mod = float(np.abs(np.abs(gamma) - 1.0).max())
    probe = np.random.default_rng(WALSH_PROBE_SEED).standard_normal(2**n)
    involution = float(np.abs(walsh_apply(walsh_apply(probe)) - probe).max())
    return WgwReport(
        n=n, m=m, wgw_error=err, wgw_phase=phase, mixing_unitary=unitary,
        gamma_modulus_error=gamma_mod, walsh_involution_error=involution,
        passed=err <= tol and unitary and gamma_mod <= tol and involution <= tol,
    )


def search_factors(f: Formula) -> np.ndarray:
    """Per-qubit factors of the final state of a distinct-variable formula.

    Row k - 1 belongs to V_k: the basis vector of its satisfying value when a
    clause constrains it, (1, 1) when it is free.  U R W|0> is
    2**(-(n-m)/2) times their Kronecker product (see the module docstring).
    """
    if not f.distinct_variables:
        raise ValueError(f"{f} is not a formula of one-literal clauses on distinct variables")
    factors = np.ones((f.n, 2))
    for clause in f.clauses:
        lit = clause.literals[0]
        factors[lit.variable - 1, int(lit.negated)] = 0.0
    return factors


class SearchReport(NamedTuple):
    """One run of the search on a formula, checked against brute force.

    `state` is U R W|0...0> as 2**n amplitudes and `probabilities` its
    distribution; `top` is the most probable assignment (the lowest index
    among ties) and `top_conflicts` its conflict count.  `verdict` is "SAT"
    when `top_conflicts` is 0 and "UNSAT" otherwise.  `solutions` holds
    every zero-conflict assignment, ascending.
    """

    state: np.ndarray
    probabilities: np.ndarray
    top: int
    top_conflicts: int
    verdict: str
    solutions: np.ndarray


def solve(f: Formula) -> SearchReport:
    """Run the search on f, by the product route when `f.distinct_variables`
    and through the butterfly otherwise, and check it against brute force."""
    counts = conflict_counts(f)
    if f.distinct_variables:
        # two half-length Kronecker products joined by one outer product;
        # multiplying by the 1s and 0s of the factors is exact
        factors = search_factors(f)
        left, right = np.array([2 ** (-(f.n - f.m) / 2)], dtype=complex), np.ones(1)
        for row in factors[: f.n // 2]:
            left = np.outer(left, row).ravel()
        for row in factors[f.n // 2:]:
            right = np.outer(right, row).ravel()
        psi = np.outer(left, right).ravel()
    else:
        psi = np.full(2**f.n, 2 ** (-f.n / 2), dtype=complex)  # W|0...0>
        psi = _conflict_phases(counts, f.m) * psi
        psi = walsh_apply(psi)
        psi = gamma_matrix(f.n, f.m) * psi
        psi = walsh_apply(psi)
    probs = measure_distribution(psi)
    top = int(np.argmax(probs))
    top_conflicts = int(counts[top])
    return SearchReport(
        state=psi, probabilities=probs, top=top, top_conflicts=top_conflicts,
        verdict="SAT" if top_conflicts == 0 else "UNSAT", solutions=np.flatnonzero(counts == 0),
    )


def measure_distribution(psi: np.ndarray) -> np.ndarray:
    """Exact probability of each assignment for a normalized state."""
    psi = np.asarray(psi, dtype=complex)
    probs = np.abs(psi) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (sum of probabilities {total})")
    return probs
