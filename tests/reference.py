"""Dense reference operators for the test suite.

The library builds the search operators from butterflies and diagonals,
keeps diagonal deviation states as population vectors, reads spectra and
z-product terms off the populations and builds single-spin operators as
per-spin factors; the functions here form the same objects as whole
2**n x 2**n matrices, the obvious way, so the fast routes can be checked
against them.  Keep n small.
"""

import itertools

import numpy as np

from hoggsat.formula import Clause, Formula, Literal
from hoggsat.hogg import WgwReport, gamma_matrix, mixing_column, phase_matrix
from hoggsat.linalg import IDENTITY_2, kron_all, phase_aligned_error, rotation
from hoggsat.spin_sim import CNot, SpectralLine


def one_sat_formulas(n):
    """Every formula of m = 1..n single-literal clauses on distinct
    variables among n, each variable in either sign."""
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), m):
            for signs in itertools.product((False, True), repeat=m):
                yield Formula(n, tuple(Clause((Literal(v, s),)) for v, s in zip(subset, signs)))


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
        n=n, m=m, max_abs_error=err, global_phase=phase, mixing_unitary=unitary,
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
