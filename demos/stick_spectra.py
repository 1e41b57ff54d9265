"""First-order stick spectra of prepared states on the alanine system.

A pseudo-pure state answers a pi/2 readout with a single multiplet
component per spin (only one partner-state combination is populated); the
thermal state shows the full multiplet with equal line amplitudes.
"""

from hoggsat import ALANINE, pseudo_pure_populations, stick_spectrum, thermal_populations

print("alanine three-carbon system:")
print(f"  shifts (Hz):    {ALANINE.shifts_hz}")
print(f"  couplings (Hz): {ALANINE.couplings_hz}")
print(f"  T2 (s):         {ALANINE.t2_s}   (1/(2*J13) = {1 / (2 * ALANINE.coupling(1, 3)):.3f} s,")
print("                   which is why no CN13/CN31 appears in the preparation scheme)")
print()

for label, populations in (("pseudo-pure |000>", pseudo_pure_populations(3)),
                           ("thermal equilibrium", thermal_populations(3))):
    print(f"{label}:")
    for spin in (1, 2, 3):
        lines = stick_spectrum(populations, spin, ALANINE)
        rendered = ", ".join(f"{l.frequency_hz:+.3f} Hz (amp {l.amplitude:+.3f})" for l in lines)
        print(f"  spin {spin}: {len(lines)} line(s): {rendered}")
    print()

print("the single positive line per spin in the pseudo-pure case is the")
print("signature used to confirm the preparation; the thermal state shows")
print("2**(n-1) equal components per spin instead")
