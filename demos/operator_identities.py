"""The three operators behind the single step, and their key identity.

For the all-positive three-clause formula the conflict-phase diagonal and
the mixing-phase diagonal take closed forms worth seeing once, and the
mixing operator factors exactly as W Gamma W (no global phase needed).
U_rs depends only on the Hamming distance between r and s, so its column 0
(`mixing_column`) holds every value.
"""

from hoggsat import (
    gamma_matrix,
    mixing_column,
    parse_formula,
    phase_matrix,
    verify_wgw,
)


def show_diag(label, diag):
    def entry(z):
        for text, value in (("1", 1), ("-1", -1), ("i", 1j), ("-i", -1j)):
            if abs(z - value) < 1e-12:
                return text
        return f"{z:.3f}"
    print(f"{label}: [{', '.join(entry(z) for z in diag)}]")


f = parse_formula("v1 & v2 & v3")
show_diag("conflict-phase diagonal R  ", phase_matrix(f))
gamma = gamma_matrix(3, 3)
show_diag("mixing-phase diagonal Gamma", gamma / gamma[0])
print("(Gamma shown after dividing out its leading entry; the raw diagonal")
print(f" starts at exp(-i*3*pi/4) = {gamma[0]:.4f})")
print()

u = mixing_column(3, 3)
print(f"mixing operator, odd clause count: constant modulus {abs(u[0]):.4f} = 2**-1.5")
u2 = mixing_column(3, 2)
# U_rs = column[r ^ s]; the index (1 << d) - 1 has d one-bits
profile = {d: float(u2[(1 << d) - 1].real) for d in range(4)}
print("mixing operator, even clause count: value by Hamming distance",
      {d: round(v, 3) for d, v in profile.items()})
print()

print("factorization U = W Gamma W over the full verification grid:")
worst = 0.0
for n in range(1, 7):
    for m in range(1, n + 1):
        report = verify_wgw(n, m)
        worst = max(worst, report.wgw_error)
        assert report.passed
print(f"  1 <= m <= n <= 6: all pass, max aligned error {worst:.2e}")

involution = verify_wgw(3, 3).walsh_involution_error
print(f"Walsh-Hadamard involution: max |W(Wx) - x| on a seeded probe x = {involution:.2e}")
