"""Where the binomial-coefficient pair is a basis, and what bounds the region.

At third coordinate m the candidate pair is
    psi     = sum_{j>=m1} C(m,j) x^j y^(m-j) dx + sum_{j<m1} C(m,j) x^j y^(m-j) dy
    psi_alt = x^m1 y^m2 (dy - dx)
and it is a basis exactly when every C(m, j) with m - m2 < j < m1 vanishes
mod p.  The region is a lower set; its frontier is controlled by the base-p
digits of m.
"""

from triarr import binom_mod_p, g_set, gamma_membership, gamma_slice, psi_basis

m, p = 16, 3
print(f"binomial row for m={m} mod {p}:")
print(" ", [binom_mod_p(m, j, p) for j in range(m + 1)])
print(f"digit-dominated set G_{m} =", g_set(m, p))
gs = gamma_slice(m, p)
print()
print("maximal members (the region's upper frontier):")
for s in gs.maximal_elements:
    print("  ", tuple(s))
print("minimal non-members (all on the line m1 + m2 = m + 2, gap 0):")
for b in gs.minimal_complement:
    print("  ", tuple(b))

print()
print("membership flips with the characteristic at mu = (3, 3, 4):")
for q in (2, 3, 5):
    print(f"  p={q}: member={gamma_membership((3, 3, 4), q)}")

print()
print("certified binomial bases at (3, 3, 4):")
for q in (2, 3):
    pair = psi_basis((3, 3, 4), q)
    print(f"  p={q}: exp={pair.exponents}")
    print(f"    low:  {pair.low.to_text()}")
    print(f"    high: {pair.high.to_text()}")
