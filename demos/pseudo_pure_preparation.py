"""Temporal-averaging preparation of pseudo-pure states.

Three experiments suffice for three spins: the identity, and two
permutation-gate preambles.  Their product-operator contributions sum to the
full 7-term pseudo-pure deviation matrix exactly, one +-I3z pair cancelling
along the way.

The four-spin recipe is trickier: its gate strings are tabulated in temporal
order, and the final NOT token of the fifth experiment is ambiguous.  The
search below shows why this package reads it as a plain N1 and crushes the
single surplus I3z term with a transverse tip plus gradient in the third
experiment.
"""

from hoggsat import (
    CNot,
    Experiment,
    Flip,
    PrepScheme,
    builtin_prep_scheme,
    format_z_terms,
    prep_report,
    pseudo_pure_populations,
    thermal_populations,
    z_product_decomposition,
)

print("=== three spins ===")
scheme = builtin_prep_scheme(3)
report = prep_report(scheme, 3)
print("thermal state:", format_z_terms(z_product_decomposition(thermal_populations(3))[0]))
for index, (experiment, (coeffs, _)) in enumerate(zip(scheme.experiments, report.experiments), start=1):
    print(f"experiment {index} ({experiment}): {format_z_terms(coeffs)}")
print("sum:   ", format_z_terms(z_product_decomposition(report.sum_diagonal)[0]))
print("target:", format_z_terms(z_product_decomposition(pseudo_pure_populations(3))[0]))
print(f"max residual: {report.max_residual:.2e}")
print("note the -I3z of experiment 2 cancelling the +I3z of experiment 3:")
print("9 raw terms collapse to the 7 target terms")
print()

print("=== four spins: resolving the ambiguous final NOT token ===")
scheme4 = builtin_prep_scheme(4)
base = [Experiment(e.gates) for e in scheme4.experiments[:4]]
last_gates = scheme4.experiments[4].gates[:-1]  # CN23 CN24 without the NOT
candidates = {
    "N3 N1": (Flip(3), Flip(1)),
    "N3 alone": (Flip(3),),
    "N1 alone": (Flip(1),),
    "CN31": (CNot(3, 1),),
}
for name, tail in candidates.items():
    trial = PrepScheme(tuple(base + [Experiment(last_gates + tail)]))
    residual = prep_report(trial, 4).sum_diagonal - pseudo_pure_populations(4)
    terms = z_product_decomposition(residual)[0]
    print(f"reading {name:9s}: residual = {format_z_terms(terms)}")

print()
print("reading 'N1 alone' leaves exactly one surplus I3z, consistent with")
print("the term accounting: of 20 raw terms, two +-pairs cancel via the")
print("NOT gates and one term is removed by the gradient.  The built-in")
print("scheme tips spin 3 transverse at the end of experiment 3 (the only")
print("experiment whose surplus ancestor is a lone I3z), so the ideal")
print("gradient crusher removes it:")
print(f"built-in four-spin scheme residual: {prep_report(scheme4, 4).max_residual:.2e}")
