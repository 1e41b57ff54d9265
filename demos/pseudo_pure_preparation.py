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

import numpy as np

from hoggsat import (
    CNot,
    Experiment,
    Flip,
    PrepScheme,
    format_z_terms,
    four_spin_prep_scheme,
    run_experiment,
    run_prep_scheme,
    target_pseudo_pure,
    three_spin_prep_scheme,
    thermal_state,
    z_product_decomposition,
)

print("=== three spins ===")
scheme = three_spin_prep_scheme()
print("thermal state:", format_z_terms(z_product_decomposition(thermal_state(3))[0]))
for index, experiment in enumerate(scheme.experiments, start=1):
    coeffs, _ = z_product_decomposition(run_experiment(experiment, 3))
    gates = " ".join(str(g) for g in experiment.gates) or "E"
    print(f"experiment {index} ({gates}): {format_z_terms(coeffs)}")
total = run_prep_scheme(scheme, 3)
target = target_pseudo_pure(3)
print("sum:   ", format_z_terms(z_product_decomposition(total)[0]))
print("target:", format_z_terms(z_product_decomposition(target)[0]))
print(f"max residual: {np.abs(total - target).max():.2e}")
print("note the -I3z of experiment 2 cancelling the +I3z of experiment 3:")
print("9 raw terms collapse to the 7 target terms")
print()

print("=== four spins: resolving the ambiguous final NOT token ===")
scheme4 = four_spin_prep_scheme()
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
    residual = run_prep_scheme(trial, 4) - target_pseudo_pure(4)
    terms = z_product_decomposition(residual)[0]
    print(f"reading {name:9s}: residual = {format_z_terms(terms)}")

print()
print("reading 'N1 alone' leaves exactly one surplus I3z, consistent with")
print("the term accounting: of 20 raw terms, two +-pairs cancel via the")
print("NOT gates and one term is removed by the gradient.  The built-in")
print("scheme tips spin 3 transverse at the end of experiment 3 (the only")
print("experiment whose surplus ancestor is a lone I3z), so the ideal")
print("gradient crusher removes it:")
final = run_prep_scheme(scheme4, 4)
print(f"built-in four-spin scheme residual: {np.abs(final - target_pseudo_pure(4)).max():.2e}")
