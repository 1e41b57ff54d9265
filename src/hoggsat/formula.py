"""Boolean formulas in conjunctive form, conflict counting, and a brute-force
solution oracle.

Bit-order convention, fixed package-wide: variable V_k lives at bit position
(n - k) of an assignment integer, so V_1 is the most significant bit.  The
assignment with V_1 = 1 and all others 0 is the integer 2**(n-1) and prints
as the bit string "10...0".  Spin k of the NMR layer and Kronecker factor
k - 1 of a per-spin product follow the same rule; `spin_bit` is the one
function that applies it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

MAX_VARIABLES = 16


def check_qubit_count(n: int) -> None:
    """Reject a qubit count outside the formula model's range [1, MAX_VARIABLES]."""
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"qubit count must be in [1, {MAX_VARIABLES}], got {n}")


def spin_bit(k: int, n: int, what: str | None = None) -> int:
    """Bit of variable or spin k in a basis index of n bits, 2**(n - k), by
    the bit-order convention above; `what` names k in the error raised when
    k is outside [1, n] (default ``spin k``)."""
    if not 1 <= k <= n:
        raise ValueError(f"{what or f'spin {k}'} out of range for n={n}")
    return 1 << (n - k)


@dataclass(frozen=True)
class Literal:
    """A possibly negated variable; `variable` is 1-based."""

    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError(f"variable index must be positive, got {self.variable}")

    def __str__(self) -> str:
        return ("!" if self.negated else "") + f"v{self.variable}"


@dataclass(frozen=True)
class Clause:
    """A 1-SAT clause: a tuple of exactly one literal."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if len(self.literals) != 1:
            raise ValueError(f"a clause holds exactly one literal, got {len(self.literals)}")

    def __str__(self) -> str:
        return str(self.literals[0])


@dataclass(frozen=True)
class Formula:
    """Conjunction of clauses over n boolean variables."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        check_qubit_count(self.n)
        if not self.clauses:
            raise ValueError("formula must contain at least one clause")
        for clause in self.clauses:
            (lit,) = clause.literals
            if lit.variable > self.n:
                raise ValueError(f"literal {lit} references a variable beyond n={self.n}")

    @property
    def m(self) -> int:
        """Clause count."""
        return len(self.clauses)

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.clauses)


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, position: int, reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"at position {position}: {reason}")


_LITERAL_RE = re.compile(r"\s*(!?)\s*[vV](\d+)\s*")


def parse_formula(text: str, n: int | None = None) -> Formula:
    """Parse text like ``"v1 & !v2 & v3"`` into a Formula.

    Clauses are joined by ``&``; each clause is a single literal ``v<k>`` or
    ``!v<k>``.  Whitespace is insignificant.  If `n` is omitted it defaults
    to the largest variable index mentioned.
    """
    clauses: list[Clause] = []
    offset = 0
    for part in text.split("&"):
        if not part.strip():
            raise FormulaParseError(offset, "empty clause")
        match = _LITERAL_RE.fullmatch(part)
        if match is None:
            bad = offset + len(part) - len(part.lstrip())
            raise FormulaParseError(bad, f"expected a literal like v1 or !v2, got {part.strip()!r}")
        variable = int(match.group(2))
        if variable < 1:
            raise FormulaParseError(offset + match.start(2), "variable indices start at 1")
        clauses.append(Clause((Literal(variable, match.group(1) == "!"),)))
        offset += len(part) + 1
    max_var = max(c.literals[0].variable for c in clauses)
    if n is None:
        n = max_var
    elif n < max_var:
        raise FormulaParseError(0, f"n={n} is smaller than the largest variable index {max_var}")
    return Formula(n, tuple(clauses))


def assignment_bits(assignment: int, n: int) -> str:
    """Render an assignment as a bit string, V_1 leftmost."""
    return format(assignment, f"0{n}b")


def parse_assignment_bits(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def reverse_bits(assignment: int, n: int) -> int:
    """Mirror the bit order of an assignment (V_1 <-> V_n and so on)."""
    out = 0
    for _ in range(n):
        out = (out << 1) | (assignment & 1)
        assignment >>= 1
    return out


def conflict_counts(f: Formula) -> np.ndarray:
    """Conflict count for every assignment 0..2**n-1 at once."""
    assignments = np.arange(2**f.n, dtype=np.uint32)
    total = np.zeros(assignments.shape, dtype=np.int64)
    for clause in f.clauses:
        (lit,) = clause.literals
        # a literal is violated where its variable's bit equals its negation flag
        total += ((assignments & spin_bit(lit.variable, f.n)) != 0) == lit.negated
    return total


def solutions(f: Formula) -> frozenset[int]:
    """All assignments with zero conflicts, by exhaustive enumeration."""
    zero = np.nonzero(conflict_counts(f) == 0)[0]
    return frozenset(int(a) for a in zero)


def grover_success_probability(n: int, iterations: int) -> float:
    """Success probability of unstructured amplitude amplification with a
    single marked item among 2**n, after the given iteration count."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    theta = math.asin(2 ** (-n / 2))
    return math.sin((2 * iterations + 1) * theta) ** 2
