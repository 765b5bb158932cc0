"""Differential testing: the closed form against the lattice solver.

The solver knows only the membership conditions and lattice reduction; the
closed form knows only lattice geometry.  Agreement on a box, neighbor by
neighbor, is the strongest evidence either is right.
"""

from triarr import Multiplicity, fast_exponents, oracle_exponents, slice_dim
from triarr.verify import run_adjacency, run_differential

print("graded dimensions at mu = (3, 3, 4), p = 5 (generators at 5 and 5):")
for d in range(9):
    print(f"  degree {d}: dim = {slice_dim((3, 3, 4), 5, d)}")

print()
bound = 7
print(f"differential sweep, all mu with mu_i <= {bound}:")
for p in (2, 3, 5):
    r = run_differential(p, (bound, bound, bound))
    print(f"  {r.line()}")

print()
print("adjacent lattice points always have gap difference exactly 1:")
r = run_adjacency(2, (5, 5, 5))
print(f"  {r.line()}")

print()
print("spot check, every certified pair sums to |mu|:")
for mu in [(2, 0, 0), (4, 4, 4), (5, 2, 6)]:
    d1, d2, pair = oracle_exponents(mu, 2)
    fast = fast_exponents(mu, 2)
    total = Multiplicity(*mu).total
    print(f"  mu={mu}: oracle=({d1},{d2}), fast={fast.exponents}, "
          f"sum={d1 + d2} == |mu|={total}")
