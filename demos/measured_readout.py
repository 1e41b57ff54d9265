"""Error analysis of the measured three-spin diagonals.

Two measured data sets ship with the package: the diagonal of the prepared
pseudo-pure deviation matrix, and the final diagonals after the single-step
search for all eight three-clause formulas.  Both are normalized with the
dominant population at 1, and both are transcribed with spin 3 as the most
significant bit.
"""

import numpy as np

from hoggsat import (
    MEASURED_PREP_DIAG,
    MEASURED_SEARCH_DIAGS,
    diag_tomography,
    error_metrics,
    ideal_population_vector,
    parse_formula,
    pseudo_pure_populations,
    reverse_bits,
    solutions,
)

print("prepared pseudo-pure state:")
ideal = diag_tomography(pseudo_pure_populations(3)).values
metrics = error_metrics(MEASURED_PREP_DIAG, ideal)
print(f"  measured: {MEASURED_PREP_DIAG}")
print(f"  ideal:    {tuple(ideal)}")
print(f"  max deviation {metrics.max_abs_dev:.4f}  (below the 6% mark)")
print()

print("final states after the single-step search (three-clause formulas):")
print(f"{'formula':18s} {'population index':17s} {'max deviation':>13s}")
for text, vector in MEASURED_SEARCH_DIAGS.items():
    (solution,) = solutions(parse_formula(text))
    index = reverse_bits(solution, 3)  # data uses the reversed transcription
    assert int(np.argmax(vector)) == index
    metric = error_metrics(vector, ideal_population_vector(3, index)).max_abs_dev
    flag = "" if metric < 0.09 else "   (exceeds 9%, as the data itself does)"
    print(f"{text:18s} {index} (ket {format(index, '03b')})     {metric:13.4f}{flag}")

print()
print("the same comparisons are available from the command line, e.g.")
print('  hoggsat compare demos/data/measured_prep_diag.csv --ideal-index 000 --threshold 0.06')
