"""Reference computations that the benchmark checks hoggsat's reports against.

Nothing here imports hoggsat.  Each quantity is computed by a route the
package does not take:

* solution sets by brute force over all assignments, from the literals;
* the pseudo-pure target diagonal in closed form;
* the diagonal left by a gradient-on preparation scheme by index maps: a
  CNot or Flip permutes the thermal diagonal, and a tip followed by the
  crusher averages the diagonal over the tipped bit;
* the state a pulse sequence makes from |0...0> as a product of one
  two-component spinor per spin, rightmost pulse applied first, and the
  search's final state as a product of per-spin states;
* first-order stick lines of a diagonal deviation matrix from the
  readout's action on each 2x2 block.

Bit order: variable/spin 1 is the most significant bit of an index.
"""

from __future__ import annotations

import re

import numpy as np

# The paper's three-spin temporal-averaging scheme, gates in application
# order: E; N3 CN21 CN32; CN32 CN12 CN21.
THREE_SPIN_SCHEME = (
    ((), ()),
    ((("N", 3), ("CN", 2, 1), ("CN", 3, 2)), ()),
    ((("CN", 3, 2), ("CN", 1, 2), ("CN", 2, 1)), ()),
)

# Carbon-13 alanine parameters (Hz) of the three-spin experiment.
ALANINE_SHIFTS_HZ = (-4320.0, 0.0, 15793.0)
ALANINE_J_HZ = {(1, 2): 34.94, (1, 3): 1.21, (2, 3): 53.81}

_AXES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _bit(index: np.ndarray | int, position: int, n: int):
    return (index >> (n - position)) & 1


def solution_set(literals, n: int) -> frozenset[int]:
    """Assignments satisfying every literal; literals are (variable, negated)."""
    index = np.arange(2**n, dtype=np.int64)
    ok = np.ones(2**n, dtype=bool)
    for variable, negated in literals:
        ok &= _bit(index, variable, n) == (0 if negated else 1)
    return frozenset(int(a) for a in np.flatnonzero(ok))


def bits(assignment: int, n: int) -> str:
    return format(assignment, f"0{n}b")


def reverse_bits(assignment: int, n: int) -> int:
    return int(bits(assignment, n)[::-1], 2)


def pseudo_pure_diagonal(n: int) -> np.ndarray:
    """Diagonal of 2**(n-1) (|0..0><0..0| - I/2**n)."""
    out = np.full(2**n, -0.5)
    out[0] += 2.0 ** (n - 1)
    return out


def thermal_diagonal(n: int) -> np.ndarray:
    """Diagonal of sum_k I_kz: (n - 2 * popcount(index)) / 2."""
    ones = np.array([bin(a).count("1") for a in range(2**n)])
    return (n - 2 * ones) / 2.0


def _permute(diag: np.ndarray, gate, n: int) -> np.ndarray:
    index = np.arange(2**n)
    if gate[0] == "N":
        image = index ^ (1 << (n - gate[1]))
    else:
        _, control, target = gate
        image = index ^ (_bit(index, control, n) << (n - target))
    out = np.empty_like(diag)
    out[image] = diag
    return out


def _average_bit(diag: np.ndarray, spin: int, n: int) -> np.ndarray:
    partner = np.arange(2**n) ^ (1 << (n - spin))
    return 0.5 * (diag + diag[partner])


def prep_diagonal(experiments, n: int) -> np.ndarray:
    """Summed diagonal of a gradient-on scheme.

    `experiments` holds (gates, tip_spins) pairs; a gate is ("N", k) or
    ("CN", control, target), listed in application order.  Tip spins must
    be distinct within an experiment.
    """
    total = np.zeros(2**n)
    for gates, tips in experiments:
        diag = thermal_diagonal(n)
        for gate in gates:
            diag = _permute(diag, gate, n)
        for spin in tips:
            diag = _average_bit(diag, spin, n)
        total += diag
    return total


def prep_passes(diag: np.ndarray, n: int, tol: float = 1e-12) -> bool:
    """True when a summed diagonal reaches the pseudo-pure target."""
    return bool(np.abs(diag - pseudo_pure_diagonal(n)).max() <= tol)


_GROUP_RE = re.compile(r"\(([XYZ~^0-9]+)\)(\d+)|([XYZ]~?)(\d+)(?:\^(\d+))?")
_ITEM_RE = re.compile(r"([XYZ])(~?)(?:\^(\d+))?")


def parse_pulses(text: str) -> list[tuple[int, str, int]]:
    """Pulses of a sequence text as (spin, signed axis, quarter turns), in
    written order.  Covers the catalog grammar: ``X1^2``, ``Y~2``,
    ``(XY~X)3``."""
    pulses = []
    pos = 0
    text = text.replace(" ", "")
    while pos < len(text):
        match = _GROUP_RE.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read pulse text at {pos}: {text!r}")
        if match.group(1):
            spin = int(match.group(2))
            for axis, bar, reps in _ITEM_RE.findall(match.group(1)):
                pulses.append((spin, ("-" if bar else "") + axis.lower(), int(reps or 1)))
        else:
            axis = match.group(3)
            signed = ("-" if axis.endswith("~") else "") + axis[0].lower()
            pulses.append((int(match.group(4)), signed, int(match.group(5) or 1)))
        pos = match.end()
    return pulses


def _quarter_turn(signed_axis: str) -> np.ndarray:
    sigma = _AXES[signed_axis[-1]] * (-1 if signed_axis.startswith("-") else 1)
    return (np.eye(2) - 1j * sigma) / np.sqrt(2)


def spinor(pulses, spin: int) -> np.ndarray:
    """State of one spin after its pulses act on |0>, rightmost first."""
    state = np.array([1.0, 0.0], dtype=complex)
    for pulse_spin, axis, reps in reversed(list(pulses)):
        if pulse_spin == spin:
            for _ in range(reps):
                state = _quarter_turn(axis) @ state
    return state


def product_state(pulses, n: int) -> np.ndarray:
    state = np.ones(1, dtype=complex)
    for spin in range(1, n + 1):
        state = np.kron(state, spinor(pulses, spin))
    return state


def search_state(literals, n: int) -> np.ndarray:
    """Final state of the single-step search for a 1-SAT formula over
    distinct variables, up to global phase: each constrained spin holds its
    satisfying value and each free spin (|0> + |1>)/sqrt(2)."""
    negated = dict(literals)
    state = np.ones(1, dtype=complex)
    for spin in range(1, n + 1):
        if spin in negated:
            one = np.array([1.0, 0.0]) if negated[spin] else np.array([0.0, 1.0])
        else:
            one = np.array([1.0, 1.0]) / np.sqrt(2)
        state = np.kron(state, one)
    return state


def equivalent_to_search(pulses, literals, n: int, tol: float = 1e-8) -> bool:
    """True when the pulses take |0...0> to the search's final state, up to
    a global phase aligned at the target's largest entry."""
    target = search_state(literals, n)
    state = product_state(pulses, n)
    k = int(np.argmax(np.abs(target)))
    phase = state[k] / target[k]
    if abs(phase) == 0.0:
        return False
    return bool(np.abs(state - phase / abs(phase) * target).max() <= tol)


def stick_lines(diag, spin: int, shifts=ALANINE_SHIFTS_HZ, couplings=ALANINE_J_HZ):
    """First-order (frequency Hz, amplitude) lines of one spin for a diagonal
    deviation matrix, after a pi/2 y readout, sorted by frequency.

    The readout turns the spin's 2x2 block diag(a, b) into one whose
    coherence is (a - b)/2, so each partner configuration gives a line of
    amplitude a - b, shifted by +J/2 for each partner in |0> and -J/2 for
    each in |1>.
    """
    n = len(shifts)
    lines = []
    for low in range(2**n):
        if _bit(low, spin, n):
            continue
        amplitude = float(diag[low] - diag[low | 1 << (n - spin)])
        if abs(amplitude) < 1e-12:
            continue
        freq = shifts[spin - 1]
        for (i, j), value in couplings.items():
            if spin in (i, j):
                partner = j if i == spin else i
                freq += value * (-0.5 if _bit(low, partner, n) else 0.5)
        lines.append((freq, amplitude))
    return sorted(lines)


def read_vector(text: str) -> np.ndarray:
    return np.array([float(t) for t in re.split(r"[\s,]+", text.strip()) if t])
