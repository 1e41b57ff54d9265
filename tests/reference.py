"""Dense reference operators for the test suite.

The library builds the search operators from butterflies and diagonals,
keeps diagonal deviation states as population vectors, reads spectra and
z-product terms off the populations and builds single-spin operators as
per-spin factors; the functions here form the same objects as whole
2**n x 2**n matrices, the obvious way, so the fast routes can be checked
against them.  Keep n small.  The search state also has its butterfly
stages and its four-term Kronecker form here, and the formula helpers that
only the tests call live here too.
"""

import itertools

import numpy as np

from hoggsat.formula import Clause, Formula, Literal
from hoggsat.hogg import WgwReport, gamma_matrix, mixing_column, phase_matrix, walsh_apply
from hoggsat.linalg import IDENTITY_2, kron_all, phase_aligned_error, rotation
from hoggsat.spin_sim import CNot, SpectralLine


def one_sat_formulas(n):
    """Every formula of m = 1..n single-literal clauses on distinct
    variables among n, each variable in either sign."""
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), m):
            for signs in itertools.product((False, True), repeat=m):
                yield Formula(n, tuple(Clause((Literal(v, s),)) for v, s in zip(subset, signs)))


def hamming_distance(r, s):
    """Number of bit positions in which two assignments differ."""
    return int(r ^ s).bit_count()


def negate_variable(f, variable):
    """Flip the sign of every occurrence of V_variable."""
    if not 1 <= variable <= f.n:
        raise ValueError(f"variable {variable} out of range for n={f.n}")
    return Formula(f.n, tuple(
        Clause(tuple(Literal(lit.variable, lit.negated != (lit.variable == variable))
                     for lit in clause.literals))
        for clause in f.clauses
    ))


def dense_search_state(f):
    """U R W|0> with the dense U: mixing_matrix @ (phase_matrix * W[:, 0])."""
    return mixing_matrix(f.n, f.m) @ (phase_matrix(f) * walsh_hadamard(f.n)[:, 0])


def butterfly_state(f):
    """W Gamma W R W|0> stage by stage: each stage a diagonal or the
    Walsh-Hadamard butterfly."""
    psi = np.full(2**f.n, 2 ** (-f.n / 2), dtype=complex)
    psi = walsh_apply(phase_matrix(f) * psi)
    return walsh_apply(gamma_matrix(f.n, f.m) * psi)


def four_term_factors(f):
    """W Gamma W R W|0> for one-literal clauses (variables may repeat) as at
    most four Kronecker products: a list of (coefficient, (n, 2) factor rows).

    With c_k the clauses on V_k that a value violates, i**c is the product
    of per-qubit diagonals i**c_k, and i**h that of diag(1, i).  R is i**c
    for odd m and (e^{-i pi/4} i**c + e^{i pi/4} (-i)**c) / sqrt(2) for even
    m; Gamma is e^{-i pi m/4} i**h for odd m and
    (e^{i(m-1)pi/4} (-i)**h + e^{-i(m-1)pi/4} i**h) / sqrt(2) for even m.
    Each qubit's factor is H diag_Gamma H diag_R H (1, 0).
    """
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    violated = np.zeros((f.n, 2), dtype=int)
    for clause in f.clauses:
        (lit,) = clause.literals
        violated[lit.variable - 1, int(lit.negated)] += 1
    if f.m % 2:
        r_terms, g_terms = [(1, 1)], [(np.exp(-1j * np.pi * f.m / 4), 1)]
    else:
        r_terms = [(np.exp(-1j * np.pi / 4) / np.sqrt(2), 1), (np.exp(1j * np.pi / 4) / np.sqrt(2), -1)]
        g_terms = [(np.exp(1j * np.pi * (f.m - 1) / 4) / np.sqrt(2), -1),
                   (np.exp(-1j * np.pi * (f.m - 1) / 4) / np.sqrt(2), 1)]
    terms = []
    for r_coef, r_sign in r_terms:
        for g_coef, g_sign in g_terms:
            rows = np.array([h @ (np.array([1, g_sign * 1j]) * (h @ ((r_sign * 1j) ** counts * h[:, 0])))
                             for counts in violated])
            terms.append((r_coef * g_coef, rows))
    return terms


def four_term_amplitude(f, index):
    """Entry `index` of the four-term form, in O(n) per term."""
    bits = [(index >> (f.n - k)) & 1 for k in range(1, f.n + 1)]
    return sum(coef * np.prod(rows[np.arange(f.n), bits]) for coef, rows in four_term_factors(f))


def four_term_state(f):
    """The four-term form summed into 2**n amplitudes."""
    return sum(coef * kron_all(rows) for coef, rows in four_term_factors(f))


def embed_single(op, spin, n):
    """Lift a 2x2 operator acting on `spin` (1-based) into the full 2**n space."""
    if not 1 <= spin <= n:
        raise ValueError(f"spin index {spin} out of range for {n} spins")
    return kron_all([op if k == spin else IDENTITY_2 for k in range(1, n + 1)])


def walsh_hadamard(n):
    """Dense n-qubit Walsh-Hadamard transform, W_rs = 2**(-n/2) (-1)**popcount(r AND s)."""
    idx = np.arange(2**n, dtype=np.uint32)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    return (2 ** (-n / 2)) * np.where(parity, -1.0, 1.0).astype(complex)


def mixing_matrix(n, m):
    """Dense mixing operator: U_rs = mixing_column(n, m)[r ^ s]."""
    idx = np.arange(2**n, dtype=np.uint32)
    return mixing_column(n, m)[idx[:, None] ^ idx[None, :]]


def is_unitary(matrix, tol=1e-10):
    dim = matrix.shape[0]
    return bool(np.abs(matrix.conj().T @ matrix - np.eye(dim)).max() <= tol)


def z_product(spins, n):
    """Dense matrix of 2**(|S|-1) * prod_{k in S} I_kz for spin subset S."""
    subset = set(spins)
    if not subset:
        raise ValueError("spin subset must be nonempty")
    i_z = np.diag([0.5, -0.5]).astype(complex)
    mats = [i_z if k in subset else np.eye(2, dtype=complex) for k in range(1, n + 1)]
    return 2 ** (len(subset) - 1) * kron_all(mats)


def search_unitary(f):
    """Dense U R W for formula f, as one product of dense matrices."""
    return mixing_matrix(f.n, f.m) @ np.diag(phase_matrix(f)) @ walsh_hadamard(f.n)


def verify_wgw(n, m, tol=1e-10):
    """The four checks of `hogg.verify_wgw` on dense W, U and W diag(Gamma) W,
    with W @ W = I over the whole identity basis."""
    w = walsh_hadamard(n)
    gamma = gamma_matrix(n, m)
    u = mixing_matrix(n, m)
    err, phase = phase_aligned_error(w @ np.diag(gamma) @ w, u)
    unitary = is_unitary(u, tol)
    gamma_mod = float(np.abs(np.abs(gamma) - 1.0).max())
    involution = float(np.abs(w @ w - np.eye(2**n)).max())
    return WgwReport(
        n=n, m=m, wgw_error=err, wgw_phase=phase, mixing_unitary=unitary,
        gamma_modulus_error=gamma_mod, walsh_involution_error=involution,
        passed=err <= tol and unitary and gamma_mod <= tol and involution <= tol,
    )


def z_product_decomposition(rho):
    """One inner product with each z-product diagonal, then the residual of
    the reconstruction."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    diag = np.real(np.diagonal(rho))
    coeffs = {}
    recon = np.zeros(dim)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            basis_diag = np.real(np.diagonal(z_product(subset, n)))
            coeffs[subset] = float(np.dot(diag, basis_diag) / 2.0 ** (n - 2))
            recon += coeffs[subset] * basis_diag
    return coeffs, float(np.abs(rho - np.diag(recon)).max())


def gate_unitary(gate, n):
    """Permutation matrix of a CNot or Flip, one column per basis state."""
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(2**n):
        if isinstance(gate, CNot):
            image = a ^ (((a >> (n - gate.control)) & 1) << (n - gate.target))
        else:
            image = a ^ (1 << (n - gate.spin))
        mat[image, a] = 1.0
    return mat


def run_experiment(experiment, n):
    """Dense deviation matrix after one experiment's gates and tips act on
    the thermal state: a product of gate and tip matrices conjugating
    diag(n/2 - popcount(i)).  No gradient is applied here."""
    g = np.eye(2**n, dtype=complex)
    for gate in experiment.gates:
        g = gate_unitary(gate, n) @ g
    for spin in experiment.tip_spins:
        g = embed_single(rotation("y", np.pi / 2), spin, n) @ g
    thermal = np.diag(n / 2 - np.bitwise_count(np.arange(2**n))).astype(complex)
    return g @ thermal @ g.conj().T


def zero_off_diagonal(rho):
    """Ideal gradient crusher: keep only the diagonal."""
    return np.diag(np.diagonal(rho)).astype(complex)


def sequence_to_unitary(seq, n):
    """Product of the embedded 2**n x 2**n pulse matrices in written order."""
    out = np.eye(2**n, dtype=complex)
    for pulse in seq.pulses:
        out = out @ embed_single(pulse.matrix(), pulse.spin, n)
    return out


def stick_spectrum(rho, spin, system):
    """Stick lines read from the rotated matrix: apply the dense pi/2 y
    readout, then take twice the real part of each (low, high) coherence."""
    n = system.n
    readout = embed_single(rotation("y", np.pi / 2), spin, n)
    rotated = readout @ rho @ readout.conj().T
    bit = 1 << (n - spin)
    lines = []
    for low in range(2**n):
        if low & bit:
            continue
        amplitude = 2.0 * float(rotated[low, low | bit].real)
        if abs(amplitude) < 1e-12:
            continue
        freq = system.shifts_hz[spin - 1] + sum(
            system.coupling(spin, k) * (-0.5 if (low >> (n - k)) & 1 else 0.5)
            for k in range(1, n + 1) if k != spin)
        lines.append(SpectralLine(freq, amplitude))
    return sorted(lines, key=lambda line: line.frequency_hz)
