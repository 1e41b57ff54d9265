"""Command-line front end.

Subcommands: solve, verify, prep, compare, pulse, spectrum.  Each takes
``--json`` (emit the full machine-readable report) and only the other options
its handler reads.  ``--bit-order {msb-v1,lsb-v1}`` (lsb-v1 reverses the bit
order, matching the transcription used by the tabulated measured data) is
read by solve and compare; for compare it is also the order of the vectors
and of the ``--ideal-index`` token.  The other reports are in msb-v1.
Output is deterministic: floats are fixed at 12 significant digits and
reports serialize with sorted keys.  The exit code is 0 exactly when every
requested check passes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .formula import (
    assignment_bit_strings,
    assignment_bits,
    check_qubit_count,
    parse_formula,
    reverse_bits,
    solutions,
)
from .hogg import gamma_matrix, phase_matrix, solve, verify_wgw
from .linalg import MAX_DENSE_QUBITS
from .pulse import (
    NotTensorFactorable,
    compile_diagonal,
    parse_pulse_sequence,
    verify_table_sequence,
)
from .spin_sim import (
    ALANINE,
    builtin_prep_scheme,
    error_metrics,
    format_z_terms,
    ideal_population_vector,
    lint_scheme,
    lowering_errors,
    parse_measured_vector,
    parse_prep_scheme,
    parse_spin_system,
    prep_report,
    pseudo_pure_populations,
    stick_spectrum,
    thermal_populations,
)

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _jsonable(obj):
    """A report with each float rounded to 12 significant digits and each
    complex number as {"im", "re"}.  Reports hold dicts, lists, floats,
    complex numbers, arrays and JSON scalars; numpy's float64 and complex128
    are subclasses of float and complex."""
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"im": _round12(obj.imag), "re": _round12(obj.real)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _json_text(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False)


def _with_list(text: str, key: str, items: list[str]) -> str:
    """`text`, a report from `_json_text` holding [] at its top-level `key`,
    with that list holding `items`, the JSON texts of its elements at indent 4."""
    if not items:
        return text
    return text.replace(f'\n  "{key}": []', f'\n  "{key}": [\n' + ",\n".join(items) + "\n  ]", 1)


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(_json_text(report))
    else:
        for line in lines:
            print(line)


def _ordered(assignments: int | np.ndarray, n: int, bit_order: str) -> int | np.ndarray:
    """Package-order `assignments` (an int or an int array) as indices in
    `bit_order`; the one reader of ``--bit-order``."""
    return reverse_bits(assignments, n) if bit_order == "lsb-v1" else assignments


def _base_report(command: str, bit_order: str = "msb-v1") -> dict:
    return {
        "tool": {"name": "hoggsat", "version": __version__},
        "command": command,
        "bit_order": bit_order,
    }


def _load_params(args):
    if args.params:
        return parse_spin_system(Path(args.params).read_text())
    return None


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    f = parse_formula(args.formula, n=args.n)
    search = solve(f)
    listed = search.support_probabilities > args.tolerance
    bits = assignment_bit_strings(_ordered(search.support[listed], f.n, args.bit_order), f.n)
    # a listing holds few distinct probabilities: each is formatted once
    values, which = np.unique(search.support_probabilities[listed], return_inverse=True)
    which = which.tolist()
    top = assignment_bits(_ordered(search.top, f.n, args.bit_order), f.n)
    if not args.json:
        probs = [f"{p:.12f}" for p in values.tolist()]
        print("\n".join([
            f"formula: {f}   (n={f.n}, m={f.m})",
            "distribution (assignment : probability):",
            *(f"  {b} : {probs[k]}" for b, k in zip(bits, which)),
            f"top assignment: {top}   probability {search.top_probability:.12f}",
            f"conflicts of top assignment: {search.top_conflicts}",
            f"verdict: {search.verdict}",
        ]))
        return 0
    report = _base_report("solve", args.bit_order)
    report.update({
        "formula": str(f),
        "n": f.n,
        "m": f.m,
        "distribution": [],
        "top_assignment": top,
        "top_probability": search.top_probability,
        "top_conflicts": search.top_conflicts,
        "verdict": search.verdict,
        "brute_force_solutions": [],
    })
    # the listings' rows as json.dumps(_jsonable(rows), indent=2, sort_keys=True) writes them
    probs = [repr(_round12(p)) for p in values.tolist()]
    rows = [f'    {{\n      "assignment": "{b}",\n      "probability": {probs[k]}\n    }}'
            for b, k in zip(bits, which)]
    solutions = [f'    "{b}"'
                 for b in assignment_bit_strings(_ordered(search.solutions, f.n, args.bit_order), f.n)]
    print(_with_list(_with_list(_json_text(report), "distribution", rows), "brute_force_solutions", solutions))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.all:
        if args.n is not None:
            raise ValueError("verify: give N and M, or --all, not both")
        max_n = 6 if args.max_n is None else args.max_n
        if max_n < 1:
            raise ValueError(f"verify: --max-n must be at least 1, got {max_n}")
        pairs = [(n, m) for n in range(1, max_n + 1) for m in range(1, n + 1)]
    elif args.m is None or args.max_n is not None:
        raise ValueError("verify: give N and M, or --all [--max-n K]")
    else:
        pairs = [(args.n, args.m)]
    check_qubit_count(max(n for n, _ in pairs))  # reject a sweep before any pair runs
    checks = [asdict(verify_wgw(n, m, args.tolerance)) for n, m in pairs]
    all_passed = all(c["passed"] for c in checks)
    worst = max(max(c["wgw_error"], c["gamma_modulus_error"], c["walsh_involution_error"])
                for c in checks)
    report = _base_report("verify")
    report.update({"tolerance": args.tolerance, "checks": checks, "all_passed": all_passed, "max_error": worst})
    lines = []
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"n={c['n']} m={c['m']}  factorization error {_fmt(c['wgw_error'])}  "
            f"mixing unitary {'ok' if c['mixing_unitary'] else 'BAD'}  "
            f"gamma modulus error {_fmt(c['gamma_modulus_error'])}  "
            f"W^2=I error {_fmt(c['walsh_involution_error'])}  -> {status}"
        )
    lines.append(f"{len(checks)} check(s), max error {_fmt(worst)}: "
                 + ("all passed" if all_passed else "FAILURES present"))
    _emit(report, lines, args.json)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------

def _cmd_prep(args) -> int:
    if args.scheme:
        scheme = parse_prep_scheme(Path(args.scheme).read_text())
        scheme_label = args.scheme
    else:
        scheme = builtin_prep_scheme(args.n)
        scheme_label = f"built-in {args.n}-spin temporal averaging"
    n = args.n
    result = prep_report(scheme, n)
    passed = result.max_residual <= args.tolerance
    experiments = [{
        "index": idx,
        "gates": str(experiment),
        "terms": format_z_terms(coeffs),
        "coefficients": {",".join(map(str, k)): v for k, v in coeffs.items()},
        "non_z_residual": non_z,
    } for idx, (experiment, (coeffs, non_z)) in enumerate(zip(scheme.experiments, result.experiments), 1)]
    params = _load_params(args)
    if params is not None and params.n != n:
        raise ValueError(f"the spin system has {params.n} spins but the scheme runs on {n}")
    if params is None and n == ALANINE.n:
        params = ALANINE
    lint_ran = params is not None
    warnings = lint_scheme(scheme, params) if lint_ran else []
    report = _base_report("prep")
    report.update({
        "scheme": scheme_label,
        "n": n,
        "gradient": scheme.gradient,
        "experiments": experiments,
        "sum_diagonal": result.sum_diagonal,
        "sum_off_diagonal_max": result.sum_off_diagonal_max,
        "target_diagonal": pseudo_pure_populations(n),
        "max_residual": result.max_residual,
        "tolerance": args.tolerance,
        "passed": passed,
        "lint_ran": lint_ran,
        "lint_warnings": warnings,
    })
    lines = [f"scheme: {scheme_label} ({len(scheme.experiments)} experiments, "
             f"gradient {'on' if scheme.gradient else 'off'})"]
    for e in experiments:
        lines.append(f"experiment {e['index']} ({e['gates']}): {e['terms']}")
    lines.append("sum diagonal:    " + " ".join(_fmt(x) for x in report["sum_diagonal"]))
    if result.sum_off_diagonal_max > 1e-15:
        lines.append(f"sum off-diagonal content: max |entry| {_fmt(result.sum_off_diagonal_max)}")
    lines.append("target diagonal: " + " ".join(_fmt(x) for x in report["target_diagonal"]))
    lines.append(f"max residual vs pseudo-pure target: {_fmt(result.max_residual)} "
                 f"({'pass' if passed else 'FAIL'} at tolerance {_fmt(args.tolerance)})")
    for w in warnings:
        lines.append(f"lint: {w}")
    if not warnings:
        lines.append("lint: no warnings" if lint_ran else "lint: skipped (no spin-system parameters)")
    _emit(report, lines, args.json)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args) -> int:
    measured = parse_measured_vector(Path(args.measured).read_text())
    n = measured.size.bit_length() - 1
    if args.ideal_file is not None:
        ideal = parse_measured_vector(Path(args.ideal_file).read_text())
        ideal_label = f"vector from {args.ideal_file}"
    elif args.ideal_index is not None:
        token = args.ideal_index
        index = int(token, 2) if set(token) <= {"0", "1"} and len(token) == n else int(token)
        ideal = ideal_population_vector(n, index)  # the token is a vector index, in --bit-order
        ideal_label = f"population on assignment {assignment_bits(index, n)}"
    else:
        f = parse_formula(args.ideal_formula, n=n)
        sols = sorted(solutions(f))
        if len(sols) != 1:
            raise ValueError(f"compare: formula {f} has {len(sols)} solutions; "
                             "an ideal population vector needs exactly one")
        index = _ordered(sols[0], n, args.bit_order)
        ideal = ideal_population_vector(n, index)
        ideal_label = (f"solution of {f} at vector index {index} "
                       f"(bit order {args.bit_order})")
    metrics = error_metrics(measured, ideal)
    report = _base_report("compare", args.bit_order)
    passed = args.threshold is None or metrics.max_abs_dev <= args.threshold
    report.update({
        "measured_file": args.measured,
        "entries": int(measured.size),
        "ideal": ideal_label,
        "per_entry": list(metrics.per_entry),
        "max_abs_dev": metrics.max_abs_dev,
        "threshold": args.threshold,
        "passed": passed,
    })
    lines = [
        f"measured: {measured.size} entries from {args.measured}",
        f"ideal: {ideal_label}",
        "per-entry |measured - ideal|: " + " ".join(_fmt(v) for v in metrics.per_entry),
        f"max deviation: {_fmt(metrics.max_abs_dev)}",
    ]
    if args.threshold is not None:
        lines.append(f"threshold {_fmt(args.threshold)}: {'PASS' if passed else 'FAIL'}")
    _emit(report, lines, args.json)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# pulse
# ---------------------------------------------------------------------------

def _cmd_pulse_verify(args) -> int:
    f = parse_formula(args.formula)
    seq = parse_pulse_sequence(args.sequence)
    f = replace(f, n=max([f.n, *(p.spin for p in seq)]))
    result = verify_table_sequence(f, seq, args.tolerance)
    report = _base_report("pulse verify")
    report.update({"verification": asdict(result)})
    lines = [
        f"formula: {result.formula}",
        f"sequence: {result.sequence or '(empty)'}",
        f"action on |{'0' * f.n}>: "
        + ("equivalent" if result.state_equivalent else "NOT equivalent")
        + f" (max error {_fmt(result.state_max_error)}, "
          f"global phase {_fmt(result.state_global_phase.real)}{result.state_global_phase.imag:+.12g}i)",
        "full unitary: "
        + ("equivalent" if result.full_equivalent else "not equivalent")
        + f" (max error {_fmt(result.full_max_error)})",
    ]
    _emit(report, lines, args.json)
    return 0 if result.state_equivalent else 1


def _compile(command: str, label: str, diag: np.ndarray, n: int, as_json: bool) -> int:
    report = _base_report(command)
    try:
        compiled = compile_diagonal(diag)
    except NotTensorFactorable as exc:
        report.update({"target": label, "compiled": None, "error": str(exc)})
        advice = ("fall back to dense simulation" if n <= MAX_DENSE_QUBITS
                  else f"no dense fallback: dense routes stop at n={MAX_DENSE_QUBITS}")
        _emit(report, [f"target: {label}", f"not tensor-factorable: {exc}", advice], as_json)
        return 1
    text = compiled.sequence.to_text() or "(empty)"
    report.update({"target": label, "compiled": text, "round_trip_error": compiled.round_trip_error,
                   "global_phase": compiled.global_phase})
    _emit(report, [f"target: {label}",
                   f"compiled sequence: {text}",
                   f"round-trip error (up to global phase): {_fmt(compiled.round_trip_error)}"], as_json)
    return 0


def _cmd_compile_r(args) -> int:
    f = parse_formula(args.formula)
    return _compile("pulse compile-r", f"conflict-phase diagonal of {f}", phase_matrix(f), f.n, args.json)


def _cmd_compile_gamma(args) -> int:
    return _compile("pulse compile-gamma", f"mixing-phase diagonal for n={args.n}, m={args.m}",
                    gamma_matrix(args.n, args.m), args.n, args.json)


def _cmd_pulse_lower(args) -> int:
    rows = [{"label": program.label, "timeline": program.describe(),
             "gate_chain_error": err, "passed": err <= 1e-10} for program, err in lowering_errors()]
    all_ok = all(r["passed"] for r in rows)
    report = _base_report("pulse lower")
    report.update({"programs": rows, "all_passed": all_ok})
    lines = []
    for r in rows:
        lines.append(f"{r['label']}")
        lines.append(f"  timeline: {r['timeline']}")
        lines.append(f"  matches gate chain up to global phase: error {_fmt(r['gate_chain_error'])} "
                     f"({'pass' if r['passed'] else 'FAIL'})")
    _emit(report, lines, args.json)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    params = _load_params(args) or ALANINE
    n = params.n
    if args.state == "pseudo-pure":
        populations = pseudo_pure_populations(n)
    elif args.state == "thermal":
        populations = thermal_populations(n)
    else:
        populations = prep_report(builtin_prep_scheme(n), n).sum_diagonal
    lines_data = stick_spectrum(populations, args.spin, params)
    report = _base_report("spectrum")
    report.update({
        "state": args.state,
        "spin": args.spin,
        "n": n,
        "lines": [{"frequency_hz": l.frequency_hz, "amplitude": l.amplitude} for l in lines_data],
    })
    lines = [f"spin {args.spin} of {args.state} state (n={n})",
             "frequency (Hz)      amplitude"]
    for l in lines_data:
        lines.append(f"{l.frequency_hz:>14.4f}  {l.amplitude:>16.12f}")
    if not lines_data:
        lines.append("(no lines)")
    _emit(report, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < np.inf:  # false for nan as well
        raise argparse.ArgumentTypeError(f"not a finite nonnegative number: {text!r}")
    return value


def _command(sub, name: str, func, help: str, *, tolerance: float | None = None,
             bit_order: bool = False, params: bool = False, aliases=()) -> argparse.ArgumentParser:
    """A subcommand with `--json` and the shared options its handler reads."""
    p = sub.add_parser(name, help=help, aliases=aliases)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    if tolerance is not None:
        p.add_argument("--tolerance", type=_nonnegative_float, default=tolerance,
                       help=f"pass/fail tolerance (default {tolerance:g})")
    if bit_order:
        p.add_argument("--bit-order", choices=("msb-v1", "lsb-v1"), default="msb-v1",
                       help="assignment bit order for display and ingestion")
    if params:
        p.add_argument("--params", default=None, help="spin-system parameter file")
    p.set_defaults(func=func)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="hoggsat",
        description="Single-step structured search over 1-SAT and its NMR-ensemble emulation.",
    )
    parser.add_argument("--version", action="version", version=f"hoggsat {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _command(sub, "solve", _cmd_solve, "run the search pipeline on a formula",
                 tolerance=1e-12, bit_order=True)
    p.add_argument("formula", help='formula text, e.g. "v1 & !v2 & v3"')
    p.add_argument("--n", type=int, default=None, help="variable count (default: largest index used)")

    p = _command(sub, "verify", _cmd_verify, "check the mixing-operator factorization and unitarity",
                 tolerance=1e-10)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("m", nargs="?", type=int, default=None)
    p.add_argument("--all", action="store_true", help="sweep all 1 <= m <= n <= max-n")
    p.add_argument("--max-n", type=int, default=None, help="largest n of the --all sweep (default 6)")

    p = _command(sub, "prep", _cmd_prep, "run a pseudo-pure preparation scheme",
                 tolerance=1e-12, params=True)
    p.add_argument("n", type=int)
    p.add_argument("--scheme", default=None, help="scheme file (default: built-in scheme for n)")

    p = _command(sub, "compare", _cmd_compare, "compare a measured diagonal against an ideal one",
                 bit_order=True)
    p.add_argument("measured", help="CSV/text vector, one real per line or comma separated")
    ideal = p.add_mutually_exclusive_group(required=True)
    ideal.add_argument("--ideal-file", default=None)
    ideal.add_argument("--ideal-index", default=None,
                       help="vector index (integer, or bit string in --bit-order) carrying the ideal population")
    ideal.add_argument("--ideal-formula", default=None,
                       help="single-solution formula defining the ideal population")
    p.add_argument("--threshold", type=_nonnegative_float, default=None, help="pass/fail bound on the max deviation")

    p = sub.add_parser("pulse", help="pulse-sequence tools")
    psub = p.add_subparsers(dest="pulse_command", required=True)
    q = _command(psub, "verify", _cmd_pulse_verify, "verify a sequence against U R W", tolerance=1e-8)
    q.add_argument("formula")
    q.add_argument("sequence")
    q = _command(psub, "compile-r", _cmd_compile_r,
                 "compile a formula's conflict-phase diagonal to z-rotations", aliases=("compile-R",))
    q.add_argument("formula")
    q = _command(psub, "compile-gamma", _cmd_compile_gamma,
                 "compile the mixing-phase diagonal to z-rotations")
    q.add_argument("m", type=int)
    q.add_argument("--n", type=int, required=True)
    _command(psub, "lower", _cmd_pulse_lower, "lower the built-in 3-spin preparation scheme to pulse programs")

    p = _command(sub, "spectrum", _cmd_spectrum, "first-order stick spectrum of a state", params=True)
    p.add_argument("state", choices=("pseudo-pure", "thermal", "prep"))
    p.add_argument("--spin", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # usage, parse and size errors, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
