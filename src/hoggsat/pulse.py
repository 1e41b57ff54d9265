"""Single-spin pulse sequences: parsing, unitaries, compilation of diagonal
operators to z-rotations, verification of reduced sequences against the
search operator U R W (joined from the per-qubit factors that `solve` also
uses, `hogg.search_factors`), and the pulse-and-delay programs that
permutation gates lower to (the gates themselves live in `spin_sim`).

Notation (mirrors the usual NMR shorthand):

* ``X``, ``Y``, ``Z`` are pi/2 rotations about +x, +y, +z; a trailing ``~``
  flips the axis (``X~`` rotates about -x).  ``X1^2`` repeats the pi/2
  pulse twice (one pi pulse) on spin 1.  ``(XY~X)2`` applies the
  parenthesized pulses to spin 2.
* A written sequence is applied right to left: the rightmost pulse acts
  first.  ``H = X^2 Y`` in this order is the Hadamard up to global phase.
* Rotations are exp(-i*angle*sigma_axis/2) and all equivalence checks align
  an explicit global phase.
* Spin k is bit `spin_bit(k, n)` of a basis index, by the bit order stated
  in `formula`; Kronecker factor k - 1 of a per-spin product is the same rule.
* A sequence unitary is the Kronecker product of per-spin products: each
  spin's pulses are multiplied on their own, with no 2**n x 2**n product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .formula import Formula, parse_assignment_bits, reverse_bits, spin_bit
from .hogg import search_factors
from .linalg import IDENTITY_2, check_dense_size, kron_all, phase_aligned_error, rotation

QUARTER_TURN = np.pi / 2
COMPILE_TOL = 1e-10  # largest round-trip error, up to global phase, of a compiled diagonal


@dataclass(frozen=True)
class Pulse:
    """One rotation of `angle` radians about `axis` on `spin` (1-based)."""

    spin: int
    axis: str
    angle: float

    def matrix(self) -> np.ndarray:
        return rotation(self.axis, self.angle)

    def unitary(self, n: int) -> np.ndarray:
        return sequence_to_unitary(PulseSequence((self,)), n)

    def __str__(self) -> str:
        quarter = self.angle / QUARTER_TURN
        reps = round(quarter)
        if abs(quarter - reps) > 1e-9 or reps < 1:
            raise ValueError(f"pulse angle {self.angle} is not a positive multiple of pi/2")
        bar = self.axis.startswith("-")
        token = self.axis.lstrip("-").upper() + ("~" if bar else "") + str(self.spin)
        return token + (f"^{reps}" if reps > 1 else "")


@dataclass(frozen=True)
class PulseSequence:
    """Pulses in written order; the last entry is applied first."""

    pulses: tuple[Pulse, ...]

    def __iter__(self):
        return iter(self.pulses)

    def __len__(self) -> int:
        return len(self.pulses)

    def to_text(self) -> str:
        return " ".join(map(str, self.pulses))


class PulseParseError(ValueError):
    """Raised on malformed sequence text; carries the offending position."""

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"at position {position}: {reason}")


def _scan_int(text: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    if j == i:
        raise PulseParseError(i, "expected a number")
    return int(text[i:j]), j


def _scan_axis_item(text: str, i: int) -> tuple[str, int, int]:
    """Parse AXIS ['~'] ['^'int]; returns (axis, repetitions, next index)."""
    axis = text[i].lower()
    if axis not in ("x", "y", "z"):
        raise PulseParseError(i, f"expected pulse axis X, Y or Z, got {text[i]!r}")
    i += 1
    if i < len(text) and text[i] == "~":
        axis = "-" + axis
        i += 1
    reps = 1
    if i < len(text) and text[i] == "^":
        reps, i = _scan_int(text, i + 1)
        if reps < 1:
            raise PulseParseError(i, "exponent must be at least 1")
    return axis, reps, i


def parse_pulse_sequence(text: str) -> PulseSequence:
    """Parse sequence text like ``"X1^2 Y2 (XY~X)3"`` into a PulseSequence.

    Whitespace is insignificant; pulses are kept in written order (the
    rightmost pulse is the first applied).
    """
    pulses: list[Pulse] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            close = text.find(")", i + 1)
            if close < 0:
                raise PulseParseError(i, "unclosed group")
            body: list[tuple[str, int]] = []
            j = i + 1
            while j < close:
                if text[j].isspace():
                    j += 1
                    continue
                axis, reps, j = _scan_axis_item(text, j)
                body.append((axis, reps))
            if not body:
                raise PulseParseError(i, "empty group")
            if close + 1 >= len(text) or not text[close + 1].isdigit():
                raise PulseParseError(close + 1, "group needs a spin index")
            spin, i = _scan_int(text, close + 1)
            group_reps = 1
            if i < len(text) and text[i] == "^":
                group_reps, i = _scan_int(text, i + 1)
                if group_reps < 1:
                    raise PulseParseError(i, "exponent must be at least 1")
            for _ in range(group_reps):
                for axis, reps in body:
                    pulses.append(Pulse(spin, axis, reps * QUARTER_TURN))
        else:
            axis, reps, j = _scan_axis_item(text, i)
            # spin index follows the axis (and bar); exponent may come after it
            if j >= len(text) or not text[j].isdigit():
                raise PulseParseError(j, "pulse needs a spin index")
            spin, j = _scan_int(text, j)
            if j < len(text) and text[j] == "^":
                reps, j = _scan_int(text, j + 1)
                if reps < 1:
                    raise PulseParseError(j, "exponent must be at least 1")
            pulses.append(Pulse(spin, axis, reps * QUARTER_TURN))
            i = j
    return PulseSequence(tuple(pulses))


def sequence_factors(seq: PulseSequence, n: int) -> list[np.ndarray]:
    """The n single-spin 2x2 factors of a sequence, spin 1 first.

    Pulses on distinct spins commute, so each spin's pulses are multiplied
    in written order, rightmost pulse applied first.  A pulse on a spin
    outside [1, n] is rejected.
    """
    factors = [IDENTITY_2] * n
    for pulse in seq.pulses:
        spin_bit(pulse.spin, n, f"pulse spin {pulse.spin}")
        factors[pulse.spin - 1] = factors[pulse.spin - 1] @ pulse.matrix()
    return factors


def sequence_to_unitary(seq: PulseSequence, n: int) -> np.ndarray:
    """Dense unitary of a sequence on n spins: its factors joined by one
    Kronecker product."""
    check_dense_size(n)
    return kron_all(sequence_factors(seq, n))


# ---------------------------------------------------------------------------
# compiling diagonals to z-rotations
# ---------------------------------------------------------------------------

class NotTensorFactorable(ValueError):
    """The diagonal does not factor into single-spin diagonal unitaries."""


class CompiledDiagonal(NamedTuple):
    """Per-spin z-rotations realizing a diagonal, and their round trip against
    it: the max error after aligning `global_phase`."""

    sequence: PulseSequence
    round_trip_error: float
    global_phase: complex


def compile_diagonal(diag: np.ndarray) -> CompiledDiagonal:
    """Compile a unit-modulus diagonal into per-spin z-rotations.

    Angles that are multiples of pi/2 within 1e-9 are snapped so the
    sequence renders in the X/Y/Z grammar.  The one factorization check is
    the round trip of the snapped sequence (the Kronecker product of its
    per-spin diagonals against the target), so the error reported is that of
    the sequence returned; above COMPILE_TOL it raises NotTensorFactorable.
    """
    d = np.asarray(diag, dtype=complex)
    dim = d.size
    n = dim.bit_length() - 1
    if dim != 2**n or dim < 2:
        raise ValueError(f"diagonal length {dim} is not a power of two")
    if np.abs(np.abs(d) - 1.0).max() > 1e-9:
        raise NotTensorFactorable("diagonal entries are not unit modulus")
    pulses = []
    for k in range(1, n + 1):
        theta = float(np.angle(d[spin_bit(k, n)] / d[0]))
        if abs(theta) < 1e-12:
            continue
        quarter = theta / QUARTER_TURN
        if abs(quarter - round(quarter)) < 1e-9:
            theta = round(quarter) * QUARTER_TURN
        axis, angle = ("z", theta) if theta > 0 else ("-z", -theta)
        pulses.append(Pulse(k, axis, angle))
    seq = PulseSequence(tuple(pulses))
    # z-rotation factors are diagonal, so the round trip needs only their diagonals
    err, phase = phase_aligned_error(kron_all([factor.diagonal() for factor in sequence_factors(seq, n)]), d)
    if err > COMPILE_TOL:
        raise NotTensorFactorable(f"diagonal is not a tensor product of z-rotations (deviation {err:.3e})")
    return CompiledDiagonal(seq, err, phase)


def reduce_sequence(seq: PulseSequence) -> PulseSequence:
    """Peephole pass: merge same-axis rotations and drop full turns.

    Pulses on distinct spins commute, so the pass groups per spin before
    merging.  The result equals the input up to a global phase (a dropped
    2*pi turn contributes a factor of -1).
    """
    by_spin: dict[int, list[tuple[str, float]]] = {}
    order: list[int] = []
    for pulse in seq.pulses:
        base = pulse.axis.lstrip("-")
        signed = -pulse.angle if pulse.axis.startswith("-") else pulse.angle
        if pulse.spin not in by_spin:
            by_spin[pulse.spin] = []
            order.append(pulse.spin)
        stack = by_spin[pulse.spin]
        if stack and stack[-1][0] == base:
            merged = stack[-1][1] + signed
            stack[-1] = (base, merged)
            if abs(merged % (2 * np.pi)) < 1e-12 or abs(merged % (2 * np.pi) - 2 * np.pi) < 1e-12:
                stack.pop()
        else:
            stack.append((base, signed))
    pulses = []
    for spin in order:
        for base, signed in by_spin[spin]:
            angle = signed % (2 * np.pi)
            if angle < 1e-12 or 2 * np.pi - angle < 1e-12:
                continue
            pulses.append(Pulse(spin, base, angle))
    return PulseSequence(tuple(pulses))


# ---------------------------------------------------------------------------
# verification against the search operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceVerification:
    """Comparison of a pulse sequence against U R W for one formula.

    `state_*` fields compare only the action on |00...0> (the prepared
    state, which is all the reduced sequences promise); `full_*` fields
    compare the complete unitaries.  Both align a global phase first.
    """

    formula: str
    sequence: str
    state_equivalent: bool
    state_max_error: float
    state_global_phase: complex
    full_equivalent: bool
    full_max_error: float
    full_global_phase: complex
    tolerance: float


def search_unitary(f: Formula) -> np.ndarray:
    """Dense U R W for f: the Kronecker products of the terms' per-qubit factors
    (`hogg.search_factors`), batched; the last qubit's matrix product sums the terms."""
    check_dense_size(f.n)
    coefs, factors, scale = search_factors(f)
    out = scale * coefs[:, None, None]
    for factor in factors[:-1]:
        out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(len(out), 2 * out.shape[1], -1)
    out = out.reshape(len(out), -1).T @ factors[-1].reshape(len(out), 4)  # entries (i, j, a, b)
    return out.reshape(2 ** (f.n - 1), -1, 2, 2).transpose(0, 2, 1, 3).reshape(2**f.n, -1)


def verify_table_sequence(f: Formula, seq: PulseSequence,
                          tol: float = 1e-8) -> SequenceVerification:
    target = search_unitary(f)
    realized = sequence_to_unitary(seq, f.n)
    full_err, full_phase = phase_aligned_error(realized, target)
    state_err, state_phase = phase_aligned_error(realized[:, 0], target[:, 0])
    return SequenceVerification(
        formula=str(f),
        sequence=seq.to_text(),
        state_equivalent=state_err <= tol,
        state_max_error=state_err,
        state_global_phase=state_phase,
        full_equivalent=full_err <= tol,
        full_max_error=full_err,
        full_global_phase=full_phase,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# catalog of the fourteen three-spin single-literal-clause runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    """One cataloged three-spin run: formula, solution kets, reduced sequence.

    `solution_kets` keeps the original tabulated transcription, which
    indexes spin 3 as the most significant bit (the reverse of this
    package's convention); `solution_assignments` converts.
    """

    formula_text: str
    solution_kets: tuple[str, ...]
    sequence_text: str

    def solution_assignments(self) -> frozenset[int]:
        """Solution set in package convention (spin 1 = most significant)."""
        return frozenset(reverse_bits(parse_assignment_bits(k), 3) for k in self.solution_kets)

    def kets_match_package_order(self) -> bool:
        """True when the tabulated kets read the same under both bit orders."""
        return {parse_assignment_bits(k) for k in self.solution_kets} == set(self.solution_assignments())


THREE_SPIN_TABLE = (
    TableRow("v1", ("001", "011", "101", "111"), "X1^2 Y2 Y3"),
    TableRow("!v1", ("000", "010", "100", "110"), "Y2 Y3"),
    TableRow("v2", ("010", "011", "110", "111"), "Y1 X2^2 Y3"),
    TableRow("!v2", ("000", "001", "100", "101"), "Y1 Y3"),
    TableRow("v3", ("100", "101", "110", "111"), "Y1 Y2 X3^2"),
    TableRow("!v3", ("000", "001", "010", "011"), "Y1 Y2"),
    TableRow("v1 & v2 & v3", ("111",), "(XY~X)1 (XY~X)2 (XY~X)3"),
    TableRow("!v1 & v2 & v3", ("110",), "(XY~X~)1 (XY~X)2 (XY~X)3"),
    TableRow("v1 & !v2 & v3", ("101",), "(XY~X)1 (XY~X~)2 (XY~X)3"),
    TableRow("!v1 & !v2 & v3", ("100",), "(XY~X~)1 (XY~X~)2 (XY~X)3"),
    TableRow("v1 & v2 & !v3", ("011",), "(XY~X)1 (XY~X)2 (XY~X~)3"),
    TableRow("!v1 & v2 & !v3", ("010",), "(XY~X~)1 (XY~X)2 (XY~X~)3"),
    TableRow("v1 & !v2 & !v3", ("001",), "(XY~X)1 (XY~X~)2 (XY~X~)3"),
    TableRow("!v1 & !v2 & !v3", ("000",), "(XY~X~)1 (XY~X~)2 (XY~X~)3"),
)


# ---------------------------------------------------------------------------
# pulse-and-delay programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JDelay:
    """Free evolution under the scalar coupling of one spin pair for
    1/(2*J); other couplings are assumed refocused by the flanking pi
    pulses, so the ideal unitary is exp(-i*pi/4 * sigmaz_a sigmaz_b)."""

    spin_a: int
    spin_b: int

    @property
    def duration_expr(self) -> str:
        return f"1/(2*J{self.spin_a}{self.spin_b})"

    def __str__(self) -> str:
        return f"delay[{self.duration_expr}]"

    def unitary(self, n: int) -> np.ndarray:
        idx = np.arange(2**n)
        a, b = spin_bit(self.spin_a, n), spin_bit(self.spin_b, n)
        sign = np.where(((idx & a) != 0) == ((idx & b) != 0), 1, -1)
        return np.diag(np.exp(-1j * np.pi / 4 * sign))


ProgramElement = Union[Pulse, JDelay]


@dataclass(frozen=True)
class LoweredProgram:
    """Pulse-and-delay timeline realizing one experiment's gate chain,
    up to global phase.  Elements are in application order."""

    label: str
    elements: tuple[ProgramElement, ...]

    def describe(self) -> str:
        return " -> ".join(map(str, self.elements)) or "(no operation)"


def program_unitary(program: LoweredProgram, n: int) -> np.ndarray:
    out = np.eye(2**n, dtype=complex)
    for element in program.elements:
        out = element.unitary(n) @ out
    return out
