"""Shared dense linear-algebra helpers.

Conventions used across the package:

* Spin/qubit k occupies Kronecker factor k - 1 (spin 1 leftmost): the same
  rule as the bit order stated in `formula`, where spin k is bit
  `spin_bit(k, n)` of a basis-state index.
* Single-spin rotations are R_axis(theta) = exp(-i * theta * sigma_axis / 2).
* Equality of unitaries and states is always judged after aligning an
  explicit global phase; nothing is silently renormalized.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_AXIS_MATRICES = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "-x": -SIGMA_X,
    "-y": -SIGMA_Y,
    "-z": -SIGMA_Z,
}

AXES = tuple(_AXIS_MATRICES)

#: Largest n for which a dense 2**n x 2**n complex matrix (256 MiB at 12) is
#: built: the full unitaries of `pulse verify`, the tip conjugation of an
#: `@gradient off` scheme and the density matrices of `spin_sim`.
MAX_DENSE_QUBITS = 12


def check_dense_size(n: int) -> None:
    """Reject a dense 2**n x 2**n complex matrix above MAX_DENSE_QUBITS before allocating it."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"n={n} needs a dense 2**{n} x 2**{n} complex matrix ({16 * 4**n / 2**30:g} "
                         f"GiB); dense routes are capped at n={MAX_DENSE_QUBITS}")


def kron_all(matrices) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor first."""
    return reduce(np.kron, matrices)


def rotation(axis: str, angle: float) -> np.ndarray:
    """Single-spin rotation exp(-i*angle*sigma_axis/2); axis in x,y,z,-x,-y,-z."""
    try:
        sigma = _AXIS_MATRICES[axis]
    except KeyError:
        raise ValueError(f"unknown rotation axis {axis!r}") from None
    return np.cos(angle / 2) * IDENTITY_2 - 1j * np.sin(angle / 2) * sigma


def phase_aligned_error(candidate: np.ndarray, reference: np.ndarray) -> tuple[float, complex]:
    """Max elementwise |candidate - phase*reference| after global-phase alignment.

    The phase is the ratio of the two arrays at the largest-modulus entry of
    the reference, normalized to unit modulus.  When the candidate's entry
    there is at rounding level (at most 1e-12 of the reference's), its phase
    is noise and 1 is used instead.  Returns (max_error, phase).
    """
    candidate = np.asarray(candidate)
    reference = np.asarray(reference)
    if candidate.shape != reference.shape:
        raise ValueError("shape mismatch in phase-aligned comparison")
    idx = np.unravel_index(int(np.argmax(np.abs(reference))), reference.shape)
    ref_entry = reference[idx]
    if abs(ref_entry) == 0.0:
        # reference is identically zero; no phase to align
        return float(np.abs(candidate).max()), 1.0 + 0j
    phase = candidate[idx] / ref_entry
    mod = abs(phase)
    phase = phase / mod if mod > 1e-12 else 1.0 + 0j
    err = float(np.abs(candidate - phase * reference).max())
    return err, complex(phase)
