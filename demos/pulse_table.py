"""Verifying the catalog of reduced pulse sequences.

All fourteen single-literal-clause formulas on three spins come with a
reduced sequence realizing U R W on the prepared state |000>.  Two things
are worth watching:

* every sequence matches on the prepared state; the three-clause rows even
  match as full unitaries, while the single-clause reductions only promise
  the prepared-state action (that is all an experiment starting from the
  pseudo-pure state ever uses);
* the catalog's solution kets are transcribed with spin 3 as the most
  significant bit, so non-palindromic kets must be bit-reversed to compare
  with this package's spin-1-major convention.
"""

from hoggsat import (
    THREE_SPIN_TABLE,
    compile_diagonal,
    gamma_matrix,
    parse_formula,
    parse_pulse_sequence,
    phase_matrix,
    reduce_sequence,
    solutions,
    verify_table_sequence,
)

print(f"{'formula':18s} {'sequence':42s} {'state':7s} {'full':7s} kets-as-printed")
for row in THREE_SPIN_TABLE:
    f = parse_formula(row.formula_text, n=3)
    report = verify_table_sequence(f, parse_pulse_sequence(row.sequence_text))
    assert row.solution_assignments() == solutions(f)
    order_note = "match" if row.kets_match_package_order() else "bit-reversed"
    print(f"{row.formula_text:18s} {row.sequence_text:42s} "
          f"{'ok' if report.state_equivalent else 'FAIL':7s} "
          f"{'ok' if report.full_equivalent else 'no':7s} {order_note}")

print()
print("diagonal operators compile straight to z-rotations (odd clause counts):")
f = parse_formula("v1 & v2 & v3")
print(f"  R for {f}: {compile_diagonal(phase_matrix(f)).sequence.to_text()}")
print(f"  Gamma (m=3):        {compile_diagonal(gamma_matrix(3, 3)).sequence.to_text()}")
print()

print("the peephole reducer uses the catalog as its regression corpus:")
seq = parse_pulse_sequence("X1 Y2 X~1 Y2")
print(f"  {seq.to_text()}  ->  {reduce_sequence(seq).to_text()}")
