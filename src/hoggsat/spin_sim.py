"""NMR ensemble layer: deviation states in the product-operator picture,
permutation-gate preambles for temporal-averaging pseudo-pure state
preparation, diagonal tomography readout, error metrics, and first-order
stick spectra.

Conventions:

* Single-spin operators use I_z = diag(1/2, -1/2) in the {|0>, |1>} basis.
* A diagonal deviation state (thermal, pseudo-pure target, gradient-on
  contribution) is computed as its populations, a real vector of 2**n
  entries, up to the formula cap n = 16.  Dense deviation matrices, under
  `linalg.check_dense_size`, come only from `@gradient off` schemes and
  `thermal_state`, `target_pseudo_pure` and `run_prep_scheme`; readers
  take either form.
* A z-product term over a spin subset S carries the customary prefactor
  2**(|S|-1), e.g. the three-spin term 4*I1z*I2z*I3z.  Projecting
  populations onto these terms is one Walsh-Hadamard transform.
* A stick-spectrum line's amplitude after the ideal pi/2 y readout is the
  population difference of its two levels.
* Spin k is bit `spin_bit(k, n)` of a basis index, by the bit order stated
  in `formula`; Kronecker factor k - 1 of a per-spin product is the same rule.
* Gate sequences inside an `Experiment` are stored in application order:
  the first listed gate acts first.  NMR shorthand often writes gate
  strings right to left instead; the built-in schemes (`BUILTIN_SCHEMES`)
  are scheme-file text in application order, and their comment gives the
  right-to-left reading.
* Each gate type owns its behaviour: `image(n)` sends basis state i to
  image[i] (both gates are involutions, so `populations[image]` are the
  populations after the gate), and `lowered()` is the textbook weak-coupling
  pulse-and-delay realization, equal to the gate up to global phase.
* The ideal field-gradient model zeroes all off-diagonal elements of an
  experiment's contribution before it enters the temporal-averaging sum
  (Knill, Chuang & Laflamme, PRA 57, 3348 (1998)), so a gradient-on
  contribution is the thermal populations permuted by the gates and mixed
  pairwise by the tips (`run_experiment`).  Without the gradient the tips
  leave coherences: the same permuted populations p are conjugated by the
  tips' product T, one y rotation per spin joined by one Kronecker product,
  as the dense T diag(p) T^H.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .formula import check_qubit_count, spin_bit
from .hogg import walsh_apply
from .linalg import check_dense_size, kron_all, phase_aligned_error, rotation
from .pulse import QUARTER_TURN, JDelay, LoweredProgram, ProgramElement, Pulse, program_unitary

Z_TERM_TOL = 1e-9  # smallest |coefficient| of a z-product term that is reported


def _as_populations(state) -> tuple[np.ndarray, float, int]:
    """Populations, largest coherence and n of a deviation state: a vector of
    2**n populations, or a 2**n x 2**n matrix (its real diagonal)."""
    state, coherence = np.asarray(state), 0.0
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        coherence = float(np.abs(state - np.diag(state.diagonal())).max())
        state = state.diagonal().real
    populations = np.asarray(state, dtype=float)
    if populations.ndim != 1 or populations.size & (populations.size - 1) or not populations.size:
        raise ValueError(f"a deviation state needs 2**n populations, got shape {populations.shape}")
    return populations, coherence, populations.size.bit_length() - 1


# ---------------------------------------------------------------------------
# reference states and the z-product decomposition
# ---------------------------------------------------------------------------

def thermal_populations(n: int) -> np.ndarray:
    """Populations at thermal equilibrium: the sum of I_kz over all spins,
    with equal unit weights (homonuclear system), n/2 - popcount(i)."""
    check_qubit_count(n)
    return n / 2 - np.bitwise_count(np.arange(2**n))


def pseudo_pure_populations(n: int) -> np.ndarray:
    """Populations of the pseudo-pure state |00...0>: the sum of the
    2**n - 1 z-product terms, 2**(n-1) (|0..0><0..0| - I/2**n)."""
    check_qubit_count(n)
    out = np.full(2**n, -0.5)
    out[0] += 2 ** (n - 1)
    return out


def thermal_state(n: int) -> np.ndarray:
    """Dense diag(thermal_populations(n)), n <= 12."""
    check_dense_size(n)
    return np.diag(thermal_populations(n)).astype(complex)


def target_pseudo_pure(n: int) -> np.ndarray:
    """Dense diag(pseudo_pure_populations(n)), n <= 12."""
    check_dense_size(n)
    return np.diag(pseudo_pure_populations(n)).astype(complex)


def z_product_decomposition(state) -> tuple[dict[tuple[int, ...], float], float]:
    """Project a deviation state onto the z-product basis.

    Returns (the coefficients above Z_TERM_TOL, keyed by spin subset; max of
    |identity component| and largest coherence, the parts no z-product
    spans).  Every basis term has Tr(B^2) = 2**(n-2).  The diagonal of the
    term over S is (-1)**popcount(i AND mask(S)) / 2, so the coefficients are
    the Walsh-Hadamard spectrum 2**(1-n/2) * walsh_apply(populations)[mask(S)].
    """
    populations, coherence, n = _as_populations(state)
    spectrum = 2.0 ** (1 - n / 2) * walsh_apply(populations)
    bits = [spin_bit(k, n) for k in range(1, n + 1)]
    coeffs = {tuple(k for k, bit in enumerate(bits, 1) if mask & bit): float(spectrum[mask])
              for mask in np.flatnonzero(np.abs(spectrum) > Z_TERM_TOL).tolist() if mask}
    return coeffs, max(float(abs(populations.mean())), coherence)


def format_z_terms(coeffs: dict[tuple[int, ...], float]) -> str:
    """Render coefficients like ``4I1zI2zI3z + 2I2zI3z - I3z``."""
    kept = sorted(coeffs.items(), key=lambda kv: (-len(kv[0]), kv[0]))
    if not kept:
        return "0"
    pieces = []
    for subset, c in kept:
        weight = c * 2 ** (len(subset) - 1)
        name = "".join(f"I{k}z" for k in subset)
        mag = abs(weight)
        body = name if abs(mag - 1.0) < Z_TERM_TOL else f"{mag:g}{name}"
        pieces.append(("- " if weight < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# permutation gates and preparation schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CNot:
    """Flips `target` if and only if `control` is |1>."""

    control: int
    target: int

    def __str__(self) -> str:
        return f"CN{self.control}{self.target}"

    def image(self, n: int) -> np.ndarray:
        if self.control == self.target:
            raise ValueError("control and target must differ")
        source = np.arange(2**n)
        control = spin_bit(self.control, n, f"gate {self}")
        target = spin_bit(self.target, n, f"gate {self}")
        return np.where(source & control, source ^ target, source)

    def lowered(self) -> tuple[ProgramElement, ...]:
        """pi/2 pulses around a 1/(2*J) coupling delay flanked by pi refocusing pulses."""
        control, target = self.control, self.target
        return (
            Pulse(target, "-y", QUARTER_TURN),
            Pulse(target, "x", np.pi),
            JDelay(min(control, target), max(control, target)),
            Pulse(target, "x", np.pi),
            Pulse(target, "y", QUARTER_TURN),
            Pulse(target, "x", QUARTER_TURN),
            Pulse(control, "z", QUARTER_TURN),
        )


@dataclass(frozen=True)
class Flip:
    """Unconditional NOT on one spin."""

    spin: int

    def __str__(self) -> str:
        return f"N{self.spin}"

    def image(self, n: int) -> np.ndarray:
        return np.arange(2**n) ^ spin_bit(self.spin, n, f"gate {self}")

    def lowered(self) -> tuple[ProgramElement, ...]:
        """A single pi pulse."""
        return (Pulse(self.spin, "x", np.pi),)


Gate = Union[CNot, Flip]


@dataclass(frozen=True)
class Experiment:
    """One temporal-averaging experiment.

    `gates` act on the thermal state in application order.  `tip_spins`
    lists spins rotated into the transverse plane (pi/2 about y) after the
    gates; together with the gradient this discards their longitudinal
    term from the experiment's contribution.
    """

    gates: tuple[Gate, ...] = ()
    tip_spins: tuple[int, ...] = ()

    def __str__(self) -> str:
        """Gates then tips, as in ``CN12 N3 TIP6``; ``E`` stands for no gates."""
        return (" ".join(map(str, self.gates)) or "E") + "".join(f" TIP{s}" for s in self.tip_spins)

    def image(self, n: int) -> np.ndarray:
        """Index map of the gate chain: `populations[image]` follow every gate,
        and `np.eye(2**n)[image]` is the chain's permutation matrix."""
        image = np.arange(2**n)
        for gate in self.gates:
            image = image[gate.image(n)]
        return image


@dataclass(frozen=True)
class PrepScheme:
    """A list of experiments whose contributions are summed."""

    experiments: tuple[Experiment, ...]
    gradient: bool = True


def _tip(populations: np.ndarray, spin: int, count: int, n: int) -> np.ndarray:
    """Populations after `count` pi/2 y tips on `spin` and the crusher: each
    level passes sin(count*pi/4)**2 of its population to its partner across
    the spin's bit, an exact half (a + b) / 2 for odd counts, all of it for
    2 (mod 4), none for 0 (mod 4)."""
    partner = populations[np.arange(2**n) ^ spin_bit(spin, n)]
    if count % 2:
        return (populations + partner) / 2
    return partner if count % 4 == 2 else populations


def _gated_populations(experiment: Experiment, n: int) -> tuple[np.ndarray, Counter]:
    """The thermal populations permuted by the gates in application order,
    and the tip count of each spin, every tipped spin range-checked."""
    populations = thermal_populations(n)[experiment.image(n)]
    tips = Counter(experiment.tip_spins)
    for spin in tips:
        spin_bit(spin, n, f"TIP{spin}")
    return populations, tips


def run_experiment(experiment: Experiment, n: int) -> np.ndarray:
    """Populations of one experiment's gradient-on contribution: the gated
    thermal populations mixed by the tips (tips on different spins commute)."""
    populations, tips = _gated_populations(experiment, n)
    for spin, count in tips.items():
        populations = _tip(populations, spin, count, n)
    return populations


def _contributions(scheme: PrepScheme, n: int):
    """Yield each experiment's contribution to the temporal-averaging sum on
    the route the scheme's gradient flag picks: with the gradient on, its
    populations (`run_experiment`); with it off, the dense T diag(p) T^H of
    the gated populations p, where T rotates spin k about y by t_k*pi/2 for
    its t_k tips."""
    for experiment in scheme.experiments:
        if scheme.gradient:
            yield run_experiment(experiment, n)
        else:
            check_dense_size(n)
            populations, tips = _gated_populations(experiment, n)
            t = kron_all([rotation("y", tips[k] * np.pi / 2) for k in range(1, n + 1)])
            yield (t * populations) @ t.conj().T


class PrepReport(NamedTuple):
    """Each experiment's `z_product_decomposition`, and the temporal-averaging
    sum: its populations, its largest coherence (0 with the gradient on) and
    its largest deviation from the pseudo-pure target, coherences included."""

    experiments: tuple[tuple[dict[tuple[int, ...], float], float], ...]
    sum_diagonal: np.ndarray
    sum_off_diagonal_max: float
    max_residual: float


def prep_report(scheme: PrepScheme, n: int) -> PrepReport:
    """Decompose each experiment's contribution into z-product terms and
    compare their sum with the pseudo-pure target."""
    experiments, total = [], 0.0
    for contribution in _contributions(scheme, n):
        experiments.append(z_product_decomposition(contribution))
        total = total + contribution
    populations, coherence, _ = _as_populations(total)
    residual = max(float(np.abs(populations - pseudo_pure_populations(n)).max()), coherence)
    return PrepReport(tuple(experiments), populations, coherence, residual)


def run_prep_scheme(scheme: PrepScheme, n: int) -> np.ndarray:
    """Deviation matrix of the temporal-averaging sum, n <= 12; with the
    gradient on, the diagonal matrix of the summed populations."""
    check_dense_size(n)
    total = sum(_contributions(scheme, n))
    return total if total.ndim == 2 else np.diag(total).astype(complex)


class SchemeParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


_GATE_TOKEN_RE = re.compile(r"(CN)(\d)(\d)$|(N)(\d)$|(TIP)(\d)$|(E)$", re.IGNORECASE)


def parse_prep_scheme(text: str) -> PrepScheme:
    """Parse a preparation-scheme file.

    One experiment per line; tokens are gates in application order
    (``CN32`` flips spin 2 when spin 3 is set, ``N3`` flips spin 3,
    ``TIP3`` tips spin 3 transverse), or a bare ``E`` alone on its line.
    ``#`` starts a comment.  A ``@gradient on|off`` directive, at most once
    and before the first experiment, sets the crusher model (default on).
    """
    experiments: list[Experiment] = []
    gradient = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0].lower() == "gradient" and parts[1].lower() in ("on", "off"):
                if gradient is not None or experiments:
                    raise SchemeParseError(lineno, "@gradient must come once, before the first experiment")
                gradient = parts[1].lower() == "on"
                continue
            raise SchemeParseError(lineno, f"unknown directive {line!r}")
        gates: list[Gate] = []
        tips: list[int] = []
        tokens = line.split()
        for token in tokens:
            match = _GATE_TOKEN_RE.fullmatch(token)
            if match is None:
                raise SchemeParseError(lineno, f"unrecognized token {token!r}")
            if match.group(1):
                gates.append(CNot(int(match.group(2)), int(match.group(3))))
            elif match.group(4):
                gates.append(Flip(int(match.group(5))))
            elif match.group(6):
                tips.append(int(match.group(7)))
            else:  # E
                if len(tokens) != 1:
                    raise SchemeParseError(lineno, "E must appear alone in its experiment")
        experiments.append(Experiment(tuple(gates), tuple(tips)))
    if not experiments:
        raise SchemeParseError(0, "scheme has no experiments")
    return PrepScheme(tuple(experiments), gradient is not False)


# The built-in temporal-averaging schemes as scheme-file text, gates in
# application order.  In right-to-left gate notation the three-spin
# experiments read E, CN32 CN21 N3 and CN21 CN12 CN32; the scheme avoids any
# CN13/CN31 gate, whose coupling evolution is impractically slow on the
# alanine system.  The four-spin recipe is tabulated in temporal order, with
# an ambiguous final NOT token in its fifth experiment; searching the
# candidate readings shows that a plain N1 is the only one whose sum reaches
# the target, up to a single surplus I3z term.  That surplus is the
# gradient-removed term of the recipe's own accounting: the third experiment
# (where the surplus ancestor is a lone I3z) tips spin 3 transverse so the
# crusher gradient can discard it.
BUILTIN_SCHEMES = {3: "E\nN3 CN21 CN32\nCN32 CN12 CN21\n",
                   4: "CN12 CN14 CN31\nCN21 CN42 CN34\nCN12 CN42 TIP3\nCN12 CN14 N3\nCN23 CN24 N1\n"}


def builtin_prep_scheme(n: int) -> PrepScheme:
    check_qubit_count(n)
    if n not in BUILTIN_SCHEMES:
        raise ValueError(f"no built-in preparation scheme for n={n}")
    return parse_prep_scheme(BUILTIN_SCHEMES[n])


def lowering_errors() -> list[tuple[LoweredProgram, float]]:
    """The built-in 3-spin scheme lowered to one pulse program per
    experiment, from its gates' `lowered()`, each with its max error, up to
    global phase, against the permutation matrix of its gate chain."""
    rows = []
    for index, experiment in enumerate(builtin_prep_scheme(3).experiments, start=1):
        program = LoweredProgram(f"experiment {index}: {experiment}",
                                 tuple(element for gate in experiment.gates for element in gate.lowered()))
        err, _ = phase_aligned_error(program_unitary(program, 3), np.eye(8)[experiment.image(3)])
        rows.append((program, err))
    return rows


# ---------------------------------------------------------------------------
# tomography readout and error metrics
# ---------------------------------------------------------------------------

class NoPopulationContrast(ValueError):
    pass


@dataclass(frozen=True)
class TomographyResult:
    """Normalized diagonal readout.

    Convention: the uniform background (the minimum diagonal entry) is
    subtracted, then the result is scaled so the dominant population equals
    1.  `low_contrast` flags diagonals whose second-largest normalized
    entry exceeds 0.5, i.e. states without pseudo-pure population contrast.
    """

    values: tuple[float, ...]
    background: float
    scale: float
    low_contrast: bool


def diag_tomography(state) -> TomographyResult:
    diag, _, _ = _as_populations(state)
    lo = float(diag.min())
    hi = float(diag.max())
    if hi - lo < 1e-12:
        raise NoPopulationContrast("no population contrast in the diagonal")
    values = (diag - lo) / (hi - lo)
    second = float(np.sort(values)[-2]) if values.size > 1 else 0.0
    return TomographyResult(
        values=tuple(float(v) for v in values),
        background=lo,
        scale=hi - lo,
        low_contrast=second > 0.5,
    )


@dataclass(frozen=True)
class ErrorMetrics:
    """Deviation of a measured vector from an ideal one, on the scale where
    the ideal's dominant entry is 1."""

    max_abs_dev: float
    per_entry: tuple[float, ...]


def error_metrics(measured, ideal) -> ErrorMetrics:
    measured = np.asarray(measured, dtype=float)
    ideal = np.asarray(ideal, dtype=float)
    if measured.shape != ideal.shape:
        raise ValueError(f"length mismatch: {measured.shape} vs {ideal.shape}")
    per_entry = np.abs(measured - ideal)
    return ErrorMetrics(float(per_entry.max()), tuple(float(v) for v in per_entry))


def ideal_population_vector(n: int, index: int) -> np.ndarray:
    """Unit vector with the full population on one basis state."""
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for n={n}")
    out = np.zeros(2**n)
    out[index] = 1.0
    return out


def _finite(token: str) -> float:
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def parse_measured_vector(text: str) -> np.ndarray:
    """Read a diagonal vector: one finite real per line and/or comma separated."""
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    if not tokens:
        raise ValueError("no values found")
    try:
        values = np.array([_finite(t) for t in tokens])
    except ValueError as exc:
        raise ValueError(f"malformed value in vector: {exc}") from None
    if values.size & (values.size - 1):
        raise ValueError(f"vector length {values.size} is not a power of two")
    return values


# ---------------------------------------------------------------------------
# spin systems and stick spectra
# ---------------------------------------------------------------------------

def _check_pair(i: int, j: int, n: int) -> None:
    if not 1 <= i < j <= n:
        raise ValueError(f"bad coupling pair ({i}, {j})")


@dataclass(frozen=True)
class SpinSystem:
    """Chemical shifts (Hz), scalar couplings (Hz), optional T1/T2 (s)."""

    n: int
    shifts_hz: tuple[float, ...]
    couplings_hz: tuple[tuple[int, int, float], ...]
    t1_s: tuple[float, ...] | None = None
    t2_s: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.shifts_hz) != self.n:
            raise ValueError("one chemical shift per spin is required")
        for i, j, _ in self.couplings_hz:
            _check_pair(i, j, self.n)
        for name, values in (("t1", self.t1_s), ("t2", self.t2_s)):
            if values is not None and len(values) != self.n:
                raise ValueError(f"{name} must list one value per spin")
            if values is not None and not all(v > 0 for v in values):
                raise ValueError(f"{name} must be positive")

    def coupling(self, i: int, j: int) -> float:
        a, b = min(i, j), max(i, j)
        for ci, cj, value in self.couplings_hz:
            if (ci, cj) == (a, b):
                return value
        return 0.0


ALANINE = SpinSystem(
    n=3,
    shifts_hz=(-4320.0, 0.0, 15793.0),
    couplings_hz=((1, 2, 34.94), (1, 3, 1.21), (2, 3, 53.81)),
    t1_s=(20.3, 2.8, 1.5),
    t2_s=(1.3, 0.41, 0.81),
)


class SpinSystemParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def parse_spin_system(text: str) -> SpinSystem:
    """Parse a spin-system parameter file.

    Lines: ``n <count>``, ``shift <spin> <Hz>``, ``j <i> <j> <Hz>``,
    ``t1 <spin> <s>``, ``t2 <spin> <s>``.  ``#`` starts a comment.  Values
    are finite, T1 and T2 are positive, each entry is given once (``j 1 2``
    and ``j 2 1`` are one entry) and each spin lies in [1, n]; a coupling
    pair names two different spins.
    """
    n = None
    tables: dict[str, dict[int, float]] = {"shift": {}, "t1": {}, "t2": {}}
    couplings: dict[tuple[int, int], float] = {}
    entry_lines: dict[tuple, list[int]] = {}
    faults = []  # (line, reason), raised once the file is otherwise valid
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        try:
            if key == "n" and len(parts) == 2:
                entry, n = ("n",), int(parts[1])
            elif key in tables and len(parts) == 3:
                entry = (key, int(parts[1]))
                tables[key][entry[1]] = _finite(parts[2])
                if key != "shift" and tables[key][entry[1]] <= 0:
                    faults.append((lineno, f"{key} must be positive in {line!r}"))
            elif key == "j" and len(parts) == 4:
                entry = ("j", *sorted((int(parts[1]), int(parts[2]))))
                couplings[entry[1:]] = _finite(parts[3])
            else:
                raise SpinSystemParseError(lineno, f"unrecognized line {line!r}")
        except ValueError as exc:
            if isinstance(exc, SpinSystemParseError):
                raise
            raise SpinSystemParseError(lineno, f"malformed value in {line!r}") from None
        entry_lines.setdefault(entry, []).append(lineno)
    if n is None:
        raise SpinSystemParseError(0, "missing spin count (line 'n <count>')")
    missing = [k for k in range(1, n + 1) if k not in tables["shift"]]
    if missing:
        raise SpinSystemParseError(0, f"missing chemical shift for spin(s) {missing}")

    def pack(table: dict[int, float]) -> tuple[float, ...] | None:
        if not table:
            return None
        gaps = [k for k in range(1, n + 1) if k not in table]
        if gaps:
            raise SpinSystemParseError(0, f"incomplete relaxation data, missing spin(s) {gaps}")
        return tuple(table[k] for k in range(1, n + 1))

    t1_s, t2_s = pack(tables["t1"]), pack(tables["t2"])
    for entry, lines in entry_lines.items():
        if len(lines) > 1:
            faults.append((lines[1], f"repeated {' '.join(map(str, entry))} (first on line {lines[0]})"))
        try:
            if entry[0] == "j":
                _check_pair(*entry[1:], n)
            elif entry[0] in tables:
                spin_bit(entry[1], n)
        except ValueError as exc:
            faults.append((lines[0], str(exc)))
    if faults:
        raise SpinSystemParseError(*min(faults))
    return SpinSystem(
        n=n,
        shifts_hz=tuple(tables["shift"][k] for k in range(1, n + 1)),
        couplings_hz=tuple((i, j, couplings[(i, j)]) for i, j in sorted(couplings)),
        t1_s=t1_s,
        t2_s=t2_s,
    )


class SpectralLine(NamedTuple):
    frequency_hz: float
    amplitude: float


def stick_spectrum(state, spin: int, system: SpinSystem) -> list[SpectralLine]:
    """First-order stick spectrum of one spin after an ideal pi/2 y readout.

    Each single-quantum transition (low, high) of the chosen spin gives a
    line at shift + sum over partners of +-J/2 (a partner in |0> shifts by
    +J/2), with amplitude twice the real part of the coherence element the
    readout creates.  For a Hermitian deviation matrix that element's real
    part is (rho[low, low] - rho[high, high]) / 2, so the amplitude is the
    population difference of the two levels and coherences do not enter.
    Lines with negligible amplitude are dropped.
    """
    if np.ndim(state) == 2 and np.abs(state - np.conj(state).T).max() > 1e-9:
        raise ValueError("deviation matrix must be Hermitian")
    populations, _, n = _as_populations(state)
    if n != system.n:
        raise ValueError(f"state is for {n} spins but the system has {system.n}")
    bit = spin_bit(spin, n)
    partners = [(k, spin_bit(k, n)) for k in range(1, n + 1) if k != spin]
    lines = []
    for low in range(2**n):
        amplitude = float(populations[low] - populations[low | bit])
        if low & bit or abs(amplitude) < 1e-12:
            continue
        freq = system.shifts_hz[spin - 1]
        for k, partner_bit in partners:
            freq += system.coupling(spin, k) * (-0.5 if low & partner_bit else 0.5)
        lines.append(SpectralLine(freq, amplitude))
    lines.sort(key=lambda line: line.frequency_hz)
    return lines


def lint_scheme(scheme: PrepScheme, system: SpinSystem) -> list[str]:
    """Flag gates whose coupling evolution outlasts the shortest T2.

    A CNot between spins i and j needs roughly 1/(2*|J_ij|) of scalar-coupling
    evolution (J may be negative); when that time reaches the system's
    smallest T2 the gate is impractical and is reported.  Uncoupled pairs
    are reported outright.
    """
    warnings: list[str] = []
    seen: set[tuple[int, int]] = set()
    min_t2 = min(system.t2_s) if system.t2_s else None
    for experiment in scheme.experiments:
        for gate in experiment.gates:
            if not isinstance(gate, CNot):
                continue
            pair = (min(gate.control, gate.target), max(gate.control, gate.target))
            if pair in seen:
                continue
            seen.add(pair)
            j = system.coupling(*pair)
            if j == 0.0:
                warnings.append(f"{gate}: spins {pair[0]} and {pair[1]} are uncoupled")
                continue
            tau = 1.0 / (2.0 * abs(j))
            if min_t2 is not None and tau >= min_t2:
                warnings.append(
                    f"{gate}: coupling evolution 1/(2*J) = {tau:.3f} s "
                    f"reaches the shortest T2 = {min_t2:.2f} s; exclude this gate"
                )
    return warnings


# ---------------------------------------------------------------------------
# measured readouts of the three-spin alanine experiment
# ---------------------------------------------------------------------------

#: Measured normalized diagonal of the prepared pseudo-pure deviation matrix
#: (three-spin alanine; dominant population scaled to 1).
MEASURED_PREP_DIAG = (1.000, 0.0314, -0.0291, -0.0032, 0.0520, 0.0114, -0.0535, -0.0277)

#: Measured normalized diagonals of the final deviation matrices after the
#: single-step search, one per three-clause formula.  Note: these vectors are
#: transcribed with spin 3 as the most significant bit, the reverse of this
#: package's indexing, so the dominant entry of formula f sits at index
#: reverse_bits(solution(f), 3).  The ``!v1 & !v2 & !v3`` row equals
#: MEASURED_PREP_DIAG entry for entry: unconfirmed, possibly a transcription
#: duplicate (that formula's ideal output is the prepared |000> itself).
MEASURED_SEARCH_DIAGS = {
    "v1 & v2 & v3": (-0.0190, 0.0297, -0.0582, 0.0631, -0.0072, 0.0416, -0.0800, 1.0000),
    "!v1 & v2 & v3": (0.0087, -0.0074, 0.0959, -0.0845, 0.0105, -0.0056, 1.0000, -0.0393),
    "v1 & !v2 & v3": (-0.0412, 0.0716, -0.0149, 0.0187, -0.0580, 1.0000, -0.0047, 0.0289),
    "v1 & v2 & !v3": (0.0037, 0.0340, -0.0186, 1.0000, -0.0211, 0.0092, -0.0670, 0.0881),
    "!v1 & !v2 & v3": (0.0512, 0.0077, -0.157, -0.0269, 1.0000, -0.0127, 0.0029, -0.0082),
    "!v1 & v2 & !v3": (0.0173, 0.0171, 1.0000, -0.0348, -0.0091, -0.0092, 0.0606, -0.0093),
    "v1 & !v2 & !v3": (-0.0304, 1.0000, -0.0197, 0.0200, -0.0228, 0.0594, -0.0199, 0.0199),
    "!v1 & !v2 & !v3": (1.0000, 0.0314, -0.0291, -0.0032, 0.0520, 0.0114, -0.0535, -0.0277),
}
