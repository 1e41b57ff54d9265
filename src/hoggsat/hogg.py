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

`solve` evaluates f's structure once (T. Hogg, PRL 80, 2473 (1998)).  With
a_k the clauses `vK` and b_k the clauses `!vK`, an assignment violates
c = sum_k a_k [s_k = 0] + b_k [s_k = 1] clauses, so r**c (r = +-i) is the
Kronecker product of diag(r**a_k, r**b_k), and (+-i)**h that of diag(1, +-i):

    R     = i**c                                                (m odd)
          = ((1 - i) i**c + (1 + i) (-i)**c) / 2                (m even)
    Gamma = 2**(-1/2) (1 - i) (-i)**((m-1)/2) i**h              (m odd)
          = (i**(m/2) (1 - i) (-i)**h + (-i)**(m/2) (1 + i) i**h) / 2   (m even)

With W = 2**(-n/2) Hu^(x)n, Hu = [[1, 1], [1, -1]], U R W|0> is the real
scale 2**(-(3n + s)/2) times a sum of T Kronecker products: T = 1 and s = 1
for odd m, T = 4 and s = 2 for even m.  Term t has a Gaussian-integer
coefficient and the per-qubit rows Hu diag(1, gamma_t) Hu (r_t**a_k,
r_t**b_k), so the arithmetic is exact until the scale, and an amplitude
that cancels is an exact 0.

The verdict is SAT exactly when the most probable assignment `top` has no
conflicts, so SAT is always right.  `top` is the lowest index among ties,
but for even m the lowest with the fewest conflicts.  Only a repeated
literal ties a solution with a non-solution; the even-m rule keeps the
verdicts that the float evaluation of R (`tests/reference.butterfly_state`)
gets right by rounding: sqrt(2) cos(-pi/4) is 1 + 2**-52, sqrt(2) cos(3 pi/4)
is -1.  The guarantee, exactly:

* each variable in at most one clause: every solution has the amplitude
  2**(-(n-m)/2) and every other entry is exactly 0, so `top` is a solution;
* a pair `vK & !vK`: no solution exists, and UNSAT is right;
* a repeated same-sign literal can give a false UNSAT (`v1 & v1 & v2`,
  `v1 & v1 & v1 & v2`): a known fault, pinned by the benchmark's oracle tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .formula import Formula, check_qubit_count, conflict_counts
from .linalg import phase_aligned_error

OPERATOR_TOL = 1e-10
#: i**k at index k: the Gaussian-integer units
_I_POWERS = np.array([1, 1j, -1, -1j])
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


def phase_matrix(f: Formula) -> np.ndarray:
    """Diagonal of the conflict-phase operator R for formula f."""
    c = conflict_counts(f)
    if f.m % 2 == 0:
        return (np.sqrt(2) * np.cos((2 * c - 1) * np.pi / 4)).astype(complex)
    return 1j**c


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


class SearchReport(NamedTuple):
    """One run of the search on a formula, checked against brute force.

    `state` is U R W|0...0> as 2**n amplitudes and `probabilities` its
    distribution; `top` is the most probable assignment (ties as in the
    module docstring) and `top_conflicts` its conflict count.  `verdict` is
    "SAT" when `top_conflicts` is 0 and "UNSAT" otherwise.  `solutions`
    holds every zero-conflict assignment, ascending.
    """

    state: np.ndarray
    probabilities: np.ndarray
    top: int
    top_conflicts: int
    verdict: str
    solutions: np.ndarray


def _kron_rows(out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Kronecker product of each term's rows: `out` holds one row per term,
    `rows` one (terms, 2) array per qubit, most significant first."""
    for row in rows:
        out = (out[:, :, None] * row[:, None, :]).reshape(len(out), -1)
    return out


def solve(f: Formula) -> SearchReport:
    """Run the search on f from its literal counts (see the module
    docstring) and check it against brute force."""
    literal_counts = np.zeros((f.n, 2), dtype=np.int64)  # a_k, b_k
    for clause in f.clauses:
        (lit,) = clause.literals
        literal_counts[lit.variable - 1, int(lit.negated)] += 1
    # the terms as (r_t = sign * i, gamma_t, coefficient); for even m the
    # coefficient is twice R's coefficient of r**c times Gamma's of gamma**h
    k = f.m // 2
    if f.m % 2:
        terms, s = [(1, 1j, (1 - 1j) * _I_POWERS[3 * k % 4])], 1
    else:
        terms, s = [(1, -1j, _I_POWERS[(k + 3) % 4]), (1, 1j, _I_POWERS[3 * k % 4]),
                    (-1, -1j, _I_POWERS[k % 4]), (-1, 1j, _I_POWERS[(3 * k + 1) % 4])], 2
    signs, gammas, coefs = map(np.array, zip(*terms))
    v = _I_POWERS[np.multiply.outer(literal_counts.T, signs) % 4]  # r_t**a_k and r_t**b_k, (2, n, T)
    plus, minus = v[0] + v[1], gammas * (v[0] - v[1])
    rows = np.stack([plus + minus, plus - minus], axis=-1)  # Hu diag(1, gamma_t) Hu v, (n, T, 2)
    half = (f.n + 1) // 2
    # two half-length products joined by one matrix product; the sums and
    # products of Gaussian integers are exact, and the scale is one rounding
    left = _kron_rows(coefs[:, None], rows[:half])
    right = _kron_rows(np.ones((len(coefs), 1)), rows[half:])
    psi = (left.T @ right).ravel()
    psi *= 2.0 ** (-(3 * f.n + s) / 2)
    counts = conflict_counts(f)
    probs = measure_distribution(psi)
    top = int(np.argmax(probs))
    if f.m % 2 == 0 and counts[top]:
        tied = np.flatnonzero(probs == probs[top])
        top = int(tied[np.argmin(counts[tied])])
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
