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
2**n x 2**n matrix: `verify_wgw` works on vectors, `solve` on blocks, and
both reach the formula model's cap n = 16.  The dense W and U and the
whole final state live in the test suite as references.

`solve` evaluates f's structure once (T. Hogg, PRL 80, 2473 (1998)): the
counts a_k of the clauses `vK` and b_k of the clauses `!vK`
(`formula.literal_counts`).  An assignment violates
c = sum_k a_k [s_k = 0] + b_k [s_k = 1] clauses, so the brute-force counts
(`formula.conflict_counts`) are the Kronecker sum of the rows (a_k, b_k),
r**c (r = +-i) is the Kronecker product of diag(r**a_k, r**b_k), and
(+-i)**h that of diag(1, +-i):

    R     = i**c                                                (m odd)
          = ((1 - i) i**c + (1 + i) (-i)**c) / 2                (m even)
    Gamma = 2**(-1/2) (1 - i) (-i)**((m-1)/2) i**h              (m odd)
          = (i**(m/2) (1 - i) (-i)**h + (-i)**(m/2) (1 + i) i**h) / 2   (m even)

With W = 2**(-n/2) Hu^(x)n, Hu = [[1, 1], [1, -1]], U R W is the real scale
2**(-(3n + s)/2) times a sum of T Kronecker products: T = 1 and s = 1 for
odd m, T = 4 and s = 2 for even m.  Term t has a Gaussian-integer
coefficient and the per-qubit factors M_tk = Hu diag(1, gamma_t) Hu
diag(r_t**a_k, r_t**b_k) Hu, so the arithmetic is exact until the scale, and
an amplitude that cancels is an exact 0.  These factors (`search_factors`)
are the one form of U R W: `pulse.search_unitary` joins them into the dense
operator, and `state_halves` takes their column 0, U R W|0>, as the halves
over V_1..V_h and V_h+1..V_n, h = ceil(n/2), whose matrix product `solve`
evaluates.  A half index that is 0 in every term makes its whole row or
column of the product exactly 0, so `solve` drops those indices first: for
each variable in at most one clause a constrained qubit's row is 0 at one
value in each term, and at most 4 * 2**(n-m) entries remain (2**(n-m) for
odd m).  It evaluates the rest in blocks of `SOLVE_BLOCK` entries and keeps
only the nonzero probabilities; each amplitude sums at most four products of
Gaussian integers below 2**53, so neither the dropped indices nor the block
size or order moves a probability or a tie.

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

from .formula import Formula, check_qubit_count, conflict_counts, conflict_halves, literal_counts
from .linalg import phase_aligned_error

OPERATOR_TOL = 1e-10
#: i**k at index k: the Gaussian-integer units
_I_POWERS = np.array([1, 1j, -1, -1j])
#: Entries of U R W|0> that `solve` evaluates at once, after dropping the half
#: indices that are 0 in every term (exact zeros, see above), as measured at
#: n = 16: 1024 pay for the loop, and from 16384 on each call faults in fresh pages.
SOLVE_BLOCK = 4096


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
    c = conflict_counts(f) % 8  # both expressions have period 8 in c
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
    `wgw_phase` at its largest-modulus entry.  U is unitary when each of its
    eigenvalues lambda = 2**(n/2) * W u has ||lambda|**2 - 1| <= `tol`, which
    bounds column 0 of U^H U - I as well.  W @ W = I is checked on one
    fixed probe x = cos(0, 1, ..., 2**n - 1), whose entries do not follow the
    1-bit count of their index: `walsh_involution_error` is max |W(Wx) - x|,
    so every check is O(n * 2**n) and n reaches the formula cap.  `passed` is
    False when the aligned error, the unitarity of U, the modulus error of
    Gamma or the probe error misses `tol`.
    """
    gamma = gamma_matrix(n, m)
    u = mixing_column(n, m)
    scale = 2 ** (n / 2)
    err, phase = phase_aligned_error(walsh_apply(gamma) / scale, u)
    eigenvalues = scale * walsh_apply(u)
    unitary = bool(np.abs(np.abs(eigenvalues) ** 2 - 1.0).max() <= tol)
    gamma_mod = float(np.abs(np.abs(gamma) - 1.0).max())
    probe = np.cos(np.arange(2**n))
    involution = float(np.abs(walsh_apply(walsh_apply(probe)) - probe).max())
    return WgwReport(
        n=n, m=m, wgw_error=err, wgw_phase=phase, mixing_unitary=unitary,
        gamma_modulus_error=gamma_mod, walsh_involution_error=involution,
        passed=err <= tol and unitary and gamma_mod <= tol and involution <= tol,
    )


class SearchReport(NamedTuple):
    """One run of the search on a formula, checked against brute force.

    `support` lists, ascending, every assignment of nonzero probability in
    U R W|0...0> and `support_probabilities` their probabilities; `top` is
    the most probable assignment (ties as in the module docstring), with
    `top_probability` and `top_conflicts`.  `verdict` is "SAT" when
    `top_conflicts` is 0 and "UNSAT" otherwise.  `solutions` holds every
    zero-conflict assignment, ascending.
    """

    support: np.ndarray
    support_probabilities: np.ndarray
    top: int
    top_probability: float
    top_conflicts: int
    verdict: str
    solutions: np.ndarray


def _kron_rows(out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Kronecker product of each term's rows: `out` holds one row per term,
    `rows` one (terms, 2) array per qubit, most significant first."""
    for row in rows:
        out = (out[:, :, None] * row[:, None, :]).reshape(len(out), -1)
    return out


def search_factors(f: Formula) -> tuple[np.ndarray, np.ndarray, float]:
    """U R W = scale * sum_t coefs[t] (x)_k factors[k, t] for f: the exact
    term coefficients and the (n, T, 2, 2) factors M_tk of the module docstring."""
    # the terms as (r_t = sign * i, gamma_t, coefficient); for even m the
    # coefficient is twice R's coefficient of r**c times Gamma's of gamma**h
    k = f.m // 2
    if f.m % 2:
        terms, s = [(1, 1j, (1 - 1j) * _I_POWERS[3 * k % 4])], 1
    else:
        terms, s = [(1, -1j, _I_POWERS[(k + 3) % 4]), (1, 1j, _I_POWERS[3 * k % 4]),
                    (-1, -1j, _I_POWERS[k % 4]), (-1, 1j, _I_POWERS[(3 * k + 1) % 4])], 2
    signs, gammas, coefs = map(np.array, zip(*terms))
    a, b = _I_POWERS[np.multiply.outer(literal_counts(f).T, signs) % 4]  # r_t**a_k and r_t**b_k, (n, T)
    # M_tk is linear in a and b: entry (i, j) is a (1 + g) + b (-1)**j (1 - g) with g = (-1)**i gamma_t
    g = np.multiply.outer(gammas, [1, -1])[:, :, None]
    factors = a[..., None, None] * (1 + g) + b[..., None, None] * ((1 - g) * [1, -1])
    return coefs, factors, 2.0 ** (-(3 * f.n + s) / 2)


def state_halves(f: Formula) -> tuple[np.ndarray, np.ndarray, float]:
    """U R W|0> = scale * (left.T @ right).ravel() for f, from column 0 of `search_factors`:
    per term, left holds the coefficient times its Kronecker product over V_1..V_h, right over the rest."""
    coefs, factors, scale = search_factors(f)
    rows, half = factors[..., 0], (f.n + 1) // 2
    return _kron_rows(coefs[:, None], rows[:half]), _kron_rows(np.ones((len(coefs), 1)), rows[half:]), scale


def solve(f: Formula) -> SearchReport:
    """Run the search on f from its literal counts (see the module
    docstring) and check it against brute force, holding no 2**n array."""
    left, right, scale = state_halves(f)
    width = right.shape[1]
    # an index whose half is 0 in every term has an all-zero row or column
    hi, lo = np.flatnonzero(left.any(0)), np.flatnonzero(right.any(0))
    left, right = left[:, hi], right[:, lo]
    rows = SOLVE_BLOCK // lo.size
    support, probabilities = [], []
    for start in range(0, hi.size, rows):
        psi = left[:, start:start + rows].T @ right
        psi *= scale
        probs = (np.abs(psi) ** 2).ravel()
        nonzero = np.flatnonzero(probs)
        support.append(np.add.outer(hi[start:start + rows] * width, lo).ravel()[nonzero])
        probabilities.append(probs[nonzero])
    support, probabilities = np.concatenate(support), np.concatenate(probabilities)
    high, low = conflict_halves(f)
    best = probabilities.max()
    tied = support[probabilities == best]
    counts = high[tied // width] + low[tied % width]
    pick = int(np.argmin(counts)) if f.m % 2 == 0 else 0
    top, top_conflicts = int(tied[pick]), int(counts[pick])
    # the counts are nonnegative, so c = 0 exactly where both halves are 0
    solutions = (np.flatnonzero(high == 0)[:, None] * width + np.flatnonzero(low == 0)).ravel()
    return SearchReport(
        support=support, support_probabilities=probabilities, top=top, top_probability=float(best),
        top_conflicts=top_conflicts, verdict="SAT" if top_conflicts == 0 else "UNSAT", solutions=solutions,
    )
