"""Moving certified bases around the lattice: Frobenius, shift, reflection.

Three transports preserve the basis property, each re-certified here by the
determinant criterion: the q-th power Frobenius (mu -> q mu), the shift by
(p^d, p^d, 0) when m3 <= p^d, and the reflection through the cube of side
p^d.  The planner composes their inverses to reach a binomial seed.
"""

from triarr import (
    BasisPair,
    HomoPoly,
    VectorField,
    dual_basis,
    frobenius_lift,
    period_shift,
    plan_basis,
    psi_basis,
    saito_check,
)

p = 5
print("Start from an explicit certified pair at mu = (3,3,4), p = 5:")
theta = VectorField(HomoPoly(p, [0, 0, 0, 1, -1, 1]), HomoPoly(p, [0, 1, -1, 0, 0, 0]))
theta2 = VectorField(HomoPoly.monomial(p, 5, 0), HomoPoly.monomial(p, 0, 5))
print("  certified:", saito_check(theta, theta2, (3, 3, 4)))
pair = BasisPair(theta, theta2, certified=True)

shifted, target = period_shift(pair, (3, 3, 4), 1)
print(f"shift by (5,5,0) -> basis for {tuple(target)}:")
print(f"  low:  {shifted.low.to_text()}")
print(f"  high: {shifted.high.to_text()}")

lifted, target = frobenius_lift(pair, (3, 3, 4), 5)
print(f"5th-power Frobenius -> basis for {tuple(target)}, exp={lifted.exponents}")

print()
print("Reflection through the side-9 cube is an involution up to sign:")
pair = psi_basis((3, 3, 4), 3)
dual, mu_dual = dual_basis(pair, (3, 3, 4), 2)
print(f"  (3,3,4) reflects to {tuple(mu_dual)}, exp={dual.exponents}")
back, mu_back = dual_basis(dual, mu_dual, 2)
print(f"  reflecting again returns {tuple(mu_back)}")

print()
print("The planner composes transports and falls back to the lattice solver:")
for mu, q in [((9, 9, 2), 2), ((8, 8, 4), 5), ((6, 10, 8), 2), ((41, 52, 31), 3)]:
    planned, trace = plan_basis(mu, q)
    steps = ", ".join(str(t) for t in trace) or "direct/oracle seed"
    print(f"  mu={mu}, p={q}: exp={planned.exponents} via [{steps}]")
