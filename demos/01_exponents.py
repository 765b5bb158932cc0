"""A tour of exponent computations on the three-line multiarrangement.

The module of vector fields logarithmic along x^m1 y^m2 (x+y)^m3 over F_p
is always free on two homogeneous generators; everything below reports the
pair of generator degrees (d1, d2) and their gap.
"""

from triarr import as_multiplicity, fast_exponents, oracle_exponents

print("Unbalanced multiplicities are determined by their dominant line:")
for mu in [(0, 0, 5), (1, 0, 4), (7, 2, 3)]:
    r = fast_exponents(mu, 3)
    print(f"  mu={mu}: balanced={as_multiplicity(mu).balanced}, gap={r.delta}, exp={r.exponents}")

print()
print("Balanced multiplicities depend on the characteristic:")
for p in (2, 3, 5, 7):
    r = fast_exponents((3, 3, 4), p)
    print(f"  mu=(3,3,4), p={p}: gap={r.delta}, exp={r.exponents}, case={r.tag}")

print()
print("A worked lattice point, p = 3, mu = (41, 52, 31):")
r = fast_exponents((41, 52, 31), 3)
print(f"  decomposition 27*{tuple(r.alpha)} + {tuple(r.beta)}")
print(f"  gap={r.delta}, exp={r.exponents}")
print(f"  component: radius {r.radius} ball centered at {tuple(r.center)}")

print()
print("The lattice solver agrees and certifies a basis:")
d1, d2, pair = oracle_exponents((41, 52, 31), 3)
print(f"  oracle exp=({d1}, {d2}), certified={pair.certified}")
print(f"  low generator: {pair.low.to_text()}")
