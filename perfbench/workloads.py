"""Seeded inputs and output checks for the four benchmark workloads.

A workload is one round: a fixed list of operations built from the seed.
An operation is one or more hoggsat command lines, each paired with a check
of its exit code and ``--json`` report.  A check returns None when the
report is right, FAULT when it shows the known repeated-literal verdict
fault, and a message otherwise.

Expected values come from `oracle`, never from hoggsat.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

FAULT = "fault"

SEARCH_N = 16
VERIFY_N = 9
NMR_N = 6

# Satisfiable n=16 formulas that repeat a literal.  They lie outside the
# single-step guarantee (each variable at most once), and `solve` reports
# UNSAT for the last two although they have solutions.  They do not depend
# on the seed, so every round fails on the same operations.
REPEATED_LITERAL_FORMULAS = (
    "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & !v9 & v1",
    "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & !v9 & v10 & v11 & !v12 & v13 & v14 & !v15 & v1",
    "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & v1 & v1",
    "v1 & v2 & !v3 & v4 & v5 & !v6 & v7 & v8 & !v9 & v10 & v11 & !v12 & v1",
)

# The paper's fourteen three-spin runs: formula and reduced pulse sequence.
THREE_SPIN_CATALOG = (
    ("v1", "X1^2 Y2 Y3"),
    ("!v1", "Y2 Y3"),
    ("v2", "Y1 X2^2 Y3"),
    ("!v2", "Y1 Y3"),
    ("v3", "Y1 Y2 X3^2"),
    ("!v3", "Y1 Y2"),
    ("v1 & v2 & v3", "(XY~X)1 (XY~X)2 (XY~X)3"),
    ("!v1 & v2 & v3", "(XY~X~)1 (XY~X)2 (XY~X)3"),
    ("v1 & !v2 & v3", "(XY~X)1 (XY~X~)2 (XY~X)3"),
    ("!v1 & !v2 & v3", "(XY~X~)1 (XY~X~)2 (XY~X)3"),
    ("v1 & v2 & !v3", "(XY~X)1 (XY~X)2 (XY~X~)3"),
    ("!v1 & v2 & !v3", "(XY~X~)1 (XY~X)2 (XY~X~)3"),
    ("v1 & !v2 & !v3", "(XY~X)1 (XY~X~)2 (XY~X~)3"),
    ("!v1 & !v2 & !v3", "(XY~X~)1 (XY~X~)2 (XY~X~)3"),
)

PREP_THRESHOLD = 0.06
FINAL_THRESHOLD = 0.10


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


@dataclass(frozen=True)
class Workload:
    ops: tuple[tuple[Command, ...], ...]  # one round
    warmup: int  # leading operations of the round run before timing
    in_process: bool


def parse_literals(text: str) -> list[tuple[int, bool]]:
    out = []
    for token in text.split("&"):
        token = token.strip()
        out.append((int(token.lstrip("!v")), token.startswith("!")))
    return out


def _report(rc: int, stdout: str, expected_rc: int) -> dict | str:
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"


def _close(a, b, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveExpectation:
    """What the oracle says of one `solve` formula, worked out when the
    round is built so that the check itself only compares."""
    solutions: list[str]  # brute-force solution bit strings, sorted
    verdict: str
    guaranteed: bool  # each variable at most once
    weight: float  # probability of each solution when guaranteed


def expect_solve(text: str, n: int) -> SolveExpectation:
    literals = parse_literals(text)
    sols = oracle.solution_set(literals, n)
    return SolveExpectation(
        solutions=[oracle.bits(a, n) for a in sorted(sols)],
        verdict="SAT" if sols else "UNSAT",
        guaranteed=len({v for v, _ in literals}) == len(literals),
        weight=2.0 ** -(n - len(literals)),
    )


def check_solve(expect: SolveExpectation, rc: int, stdout: str) -> str | None:
    """Solution listing and verdict against brute force; for formulas with
    distinct variables also the support and its uniform weight."""
    report = _report(rc, stdout, 0)
    if isinstance(report, str):
        return report
    if report["brute_force_solutions"] != expect.solutions:
        return "brute_force_solutions differ from the oracle"
    if report["verdict"] != expect.verdict:
        return f"verdict {report['verdict']}, oracle {expect.verdict}" if expect.guaranteed else FAULT
    if not expect.guaranteed:
        return None
    support = {row["assignment"] for row in report["distribution"]}
    if support != set(expect.solutions):
        return "support differs from the solution set"
    if any(abs(row["probability"] - expect.weight) > 1e-9 for row in report["distribution"]):
        return f"support probabilities differ from {expect.weight}"
    if report["top_assignment"] not in support:
        return "top assignment is not a solution"
    return None


def check_verify(n: int, m: int, rc: int, stdout: str) -> str | None:
    report = _report(rc, stdout, 0)
    if isinstance(report, str):
        return report
    if len(report["checks"]) != 1 or not report["all_passed"]:
        return "verify did not report one passing pair"
    pair = report["checks"][0]
    phase = complex(pair["wgw_phase"]["re"], pair["wgw_phase"]["im"])
    if (pair["n"], pair["m"]) != (n, m) or not pair["passed"] or not pair["mixing_unitary"]:
        return f"pair {pair['n']},{pair['m']} did not pass"
    worst = max(pair["wgw_error"], pair["gamma_modulus_error"], pair["walsh_involution_error"])
    if worst > 1e-10:
        return f"error {worst} above 1e-10"
    if abs(abs(phase) - 1.0) > 1e-9:
        return f"phase {phase} is not of unit modulus"
    return None


def check_prep(n: int, diag: np.ndarray, passes: bool, rc: int, stdout: str) -> str | None:
    """Summed diagonal and pass flag against the index-map computation."""
    report = _report(rc, stdout, 0 if passes else 1)
    if isinstance(report, str):
        return report
    if report["passed"] != passes:
        return f"passed={report['passed']}, oracle {passes}"
    if not _close(report["sum_diagonal"], diag):
        return "sum_diagonal differs from the index-map computation"
    if not _close(report["target_diagonal"], oracle.pseudo_pure_diagonal(n)):
        return "target_diagonal differs from the closed form"
    return None


def check_pulse(equivalent: bool, rc: int, stdout: str) -> str | None:
    """state_equivalent against the product-state computation."""
    report = _report(rc, stdout, 0 if equivalent else 1)
    if isinstance(report, str):
        return report
    result = report["verification"]
    if result["state_equivalent"] != equivalent:
        return f"state_equivalent={result['state_equivalent']}, oracle {equivalent}"
    if equivalent and result["state_max_error"] > 1e-8:
        return f"state error {result['state_max_error']} above 1e-8"
    return None


def check_compare(per_entry: np.ndarray, threshold: float, rc: int, stdout: str) -> str | None:
    passes = bool(per_entry.max() <= threshold)
    report = _report(rc, stdout, 0 if passes else 1)
    if isinstance(report, str):
        return report
    if report["passed"] != passes or not _close(report["per_entry"], per_entry):
        return "per-entry deviations differ from the shipped vector"
    if not _close(report["max_abs_dev"], per_entry.max()):
        return "max deviation differs from the shipped vector"
    return None


def check_spectrum(lines: list[tuple[float, float]], rc: int, stdout: str) -> str | None:
    report = _report(rc, stdout, 0)
    if isinstance(report, str):
        return report
    got = [(row["frequency_hz"], row["amplitude"]) for row in report["lines"]]
    if len(got) != len(lines) or not _close(got, lines, 1e-6):
        return f"lines {got}, oracle {lines}"
    return None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _literal_text(literals) -> str:
    return " & ".join(("!" if neg else "") + f"v{var}" for var, neg in literals)


def _solve(text: str, n: int, *extra: str) -> Command:
    return Command(("solve", text, *extra, "--json"), partial(check_solve, expect_solve(text, n)))


def search(rng: random.Random, root: Path, scratch: Path) -> Workload:
    """36 formulas with 8..16 distinct variables (each count four times),
    plus the fixed repeated-literal formulas, all at n=16."""
    ops = []
    for m in list(range(8, 17)) * 4:
        variables = rng.sample(range(1, SEARCH_N + 1), m)
        text = _literal_text((v, rng.random() < 0.5) for v in variables)
        ops.append((_solve(text, SEARCH_N, "--n", str(SEARCH_N)),))
    ops += [(_solve(text, SEARCH_N, "--n", str(SEARCH_N)),) for text in REPEATED_LITERAL_FORMULAS]
    rng.shuffle(ops)
    return Workload(tuple(ops), warmup=8, in_process=True)


def verify(rng: random.Random, root: Path, scratch: Path) -> Workload:
    ms = list(range(1, VERIFY_N + 1))
    rng.shuffle(ms)
    ops = tuple(
        (Command(("verify", str(VERIFY_N), str(m), "--json"), partial(check_verify, VERIFY_N, m)),)
        for m in ms)
    return Workload(ops, warmup=2, in_process=True)


_SIGNED_AXES = ("X", "X~", "Y", "Y~", "Z", "Z~")


def _word(rng: random.Random, spin: int, bit: int, prepares: bool) -> str:
    """Three quarter turns on one spin that take |0> to |bit> (up to phase),
    or, when `prepares` is False, to any other state."""
    while True:
        word = "".join(rng.choice(_SIGNED_AXES) for _ in range(3))
        state = oracle.spinor(oracle.parse_pulses(f"({word}){spin}"), spin)
        if (abs(abs(state[bit]) - 1.0) < 1e-9) == prepares:
            return word


def _scheme(rng: random.Random) -> tuple[str, list]:
    """Five gradient-on experiments of three gates; the second and fourth
    also tip one spin."""
    lines, experiments = [], []
    for index in range(5):
        gates, tokens = [], []
        for _ in range(3):
            if rng.random() < 1 / 3:
                k = rng.randint(1, NMR_N)
                gates.append(("N", k))
                tokens.append(f"N{k}")
            else:
                c, t = rng.sample(range(1, NMR_N + 1), 2)
                gates.append(("CN", c, t))
                tokens.append(f"CN{c}{t}")
        tips = (rng.randint(1, NMR_N),) if index in (1, 3) else ()
        tokens += [f"TIP{k}" for k in tips]
        lines.append(" ".join(tokens))
        experiments.append((tuple(gates), tips))
    return "@gradient on\n" + "\n".join(lines) + "\n", experiments


def nmr(rng: random.Random, root: Path, scratch: Path) -> Workload:
    """Ten operations at six spins: a generated scheme through `prep`, and a
    per-spin sequence through `pulse verify`; half the sequences prepare the
    formula's solution."""
    ops = []
    for index in range(10):
        text, experiments = _scheme(rng)
        path = scratch / f"nmr-{index}.scheme"
        path.write_text(text)
        diag = oracle.prep_diagonal(experiments, NMR_N)
        prep = Command(("prep", str(NMR_N), "--scheme", str(path), "--json"),
                       partial(check_prep, NMR_N, diag, oracle.prep_passes(diag, NMR_N)))

        variables = rng.sample(range(1, NMR_N + 1), NMR_N)
        literals = [(v, rng.random() < 0.5) for v in variables]
        (solution,) = oracle.solution_set(literals, NMR_N)
        prepares = index % 2 == 0
        wrong_spin = None if prepares else rng.randint(1, NMR_N)
        sequence = " ".join(
            f"({_word(rng, k, int(oracle.bits(solution, NMR_N)[k - 1]), k != wrong_spin)}){k}"
            for k in range(1, NMR_N + 1))
        formula = _literal_text(literals)
        equivalent = oracle.equivalent_to_search(oracle.parse_pulses(sequence), literals, NMR_N)
        if equivalent != prepares:
            raise AssertionError(f"generator made a wrong sequence for {formula}: {sequence}")
        pulse = Command(("pulse", "verify", formula, sequence, "--json"),
                        partial(check_pulse, equivalent))
        ops.append((prep, pulse))
    rng.shuffle(ops)
    return Workload(tuple(ops), warmup=4, in_process=True)


def cli(rng: random.Random, root: Path, scratch: Path) -> Workload:
    """The three-spin reproduction as 35 fresh `python -m hoggsat` commands:
    solve, pulse verify and compare for the eight three-clause formulas,
    the compare of the prepared state, prep 3, and the spectra of three
    states on each spin."""
    data = root / "demos" / "data"
    commands = []
    formulas = [_literal_text(zip((1, 2, 3), signs))
                for signs in np.ndindex(2, 2, 2)]
    commands += [_solve(text, 3) for text in formulas]
    diag = oracle.prep_diagonal(oracle.THREE_SPIN_SCHEME, 3)
    commands.append(Command(("prep", "3", "--json"),
                            partial(check_prep, 3, diag, oracle.prep_passes(diag, 3))))
    for formula, sequence in THREE_SPIN_CATALOG:
        if formula.count("v") != 3:
            continue  # `pulse verify` takes n from the formula, so one clause means n=1
        literals = parse_literals(formula)
        equivalent = oracle.equivalent_to_search(oracle.parse_pulses(sequence), literals, 3)
        commands.append(Command(("pulse", "verify", formula, sequence, "--json"),
                                partial(check_pulse, equivalent)))
    prep_file = data / "measured_prep_diag.csv"
    ideal = np.zeros(8)
    ideal[0] = 1.0
    per_entry = np.abs(oracle.read_vector(prep_file.read_text()) - ideal)
    commands.append(Command(
        ("compare", str(prep_file), "--ideal-index", "000", "--threshold", str(PREP_THRESHOLD), "--json"),
        partial(check_compare, per_entry, PREP_THRESHOLD)))
    for formula in formulas:
        tag = formula.replace(" & ", "_").replace("!", "n")
        path = data / f"measured_final_{tag}.csv"
        (solution,) = oracle.solution_set(parse_literals(formula), 3)
        ideal = np.zeros(8)
        ideal[oracle.reverse_bits(solution, 3)] = 1.0  # the vectors list spin 3 first
        per_entry = np.abs(oracle.read_vector(path.read_text()) - ideal)
        commands.append(Command(
            ("compare", str(path), "--ideal-formula", formula, "--bit-order", "lsb-v1",
             "--threshold", str(FINAL_THRESHOLD), "--json"),
            partial(check_compare, per_entry, FINAL_THRESHOLD)))
    states = {"pseudo-pure": oracle.pseudo_pure_diagonal(3), "thermal": oracle.thermal_diagonal(3),
              "prep": diag}
    for state, state_diag in states.items():
        for spin in (1, 2, 3):
            commands.append(Command(("spectrum", state, "--spin", str(spin), "--json"),
                                    partial(check_spectrum, oracle.stick_lines(state_diag, spin))))
    rng.shuffle(commands)
    return Workload(tuple((c,) for c in commands), warmup=2, in_process=False)


WORKLOADS = {"search": search, "verify": verify, "nmr": nmr, "cli": cli}


def build(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), root, scratch)
