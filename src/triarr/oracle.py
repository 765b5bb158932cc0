"""Ground-truth solver: the logarithmic module as a rank-2 polynomial lattice.

With u = x/y, a degree-d field f dx + g dy (x^m1 | f, y^m2 | g) is the pair
(F, G) = (f(u, 1)/u^m1, g(u, 1)) with u^m1 F + G = 0 mod (u + 1)^m3 and shifted
degree max(deg F + m1, deg G + m2) <= d.  Mulders-Storjohann (J. Symbolic
Comput. 35, 2003) brings the generators (1, -(u^m1 mod (u + 1)^m3)) and
(0, (u + 1)^m3) to weak Popov form; the rows' shifted degrees d1 <= d2 are the
exponents.  The basis has one read-out.  As a degree-d slice vector (F's
coefficients, then G's) the low row, normalized at its last coordinate, is
the d1 field; the high row at d2, cleared at the last coordinates of the low
row's shifts and normalized, is the d2 field.  At equal degrees the row led
by F is the low one, since its last coordinate is the smaller, so the pair is
still the d1-slice's reduced echelon basis read from the last column.
Saito's criterion certifies every pair.  No ball geometry is used, so the
solver stays an independent referee for fastexp.

The generator needs no division.  For m1 < m3 the remainder is u^m1; else,
with s = m1 - m3 and t = m3 - 1 - j, its u^j coefficient (j < m3) is
(-1)^(m1+m3-1) C(m1, j) C(s + t, s).  The Pascal column C(s + t, s) is
(-1)^t C(-s - 1, t) = (-1)^t C(q - s - 1, t) mod p for a power q of p with
q >= max(m3, s + 1), since Lucas reads t < q through the digits below q.  So
the generator is two Lucas rows of at most m3 entries, one read backwards.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivmod import (
    BasisPair,
    Multiplicity,
    VectorField,
    as_multiplicity,
    basis_guard,
    certify,
)
from .fpcore import Prime
from .homopoly import HomoPoly, binomial_power, binomial_row

# perfbench/run.py --trace 1 sums this table for its Pascal-cache metric.  The
# lattice engine keeps no such table, so it stays empty until that metric goes.
_pascal_cache: dict = {}

# -- polynomial lattice: a row is a pair (F, G) of coefficient lists over F_p,
# ascending in u and without trailing zeros -----------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _generators(mu: Multiplicity, p: int) -> list[tuple[list[int], list[int]]]:
    """(1, -(u^m1 mod (u+1)^m3)) and (0, (u+1)^m3), in the closed form above."""
    m1, _, m3 = mu
    modulus = list(binomial_power(m3, p).coeffs)  # first, so its guard trips first
    if m1 < m3:
        return [([1], [0] * m1 + [p - 1]), ([], modulus)]
    s, q = m1 - m3, 1
    while q < max(m3, s + 1):
        q *= p
    col = binomial_row(q - s - 1, p, min(m3, q - s)) + [0] * max(0, m3 - q + s)
    g = [(a * b if (m1 + j) % 2 else -a * b) % p
         for j, (a, b) in enumerate(zip(binomial_row(m1, p, m3), reversed(col)))]
    return [([1], _trim(g)), ([], modulus)]


def _leading(row, mu: Multiplicity) -> tuple[int, int]:
    """(shifted degree, leading position); ties go to G, the right position."""
    f, g = row
    df = len(f) - 1 + mu.mu1 if f else -1
    dg = len(g) - 1 + mu.mu2 if g else -1
    return (dg, 1) if dg >= df else (df, 0)


class LatticeBasis(NamedTuple):
    """Weak Popov rows (low, high) of shifted degrees d1 <= d2; at d1 = d2
    the row led by F, the left position, is low."""

    low: tuple[list[int], list[int]]
    high: tuple[list[int], list[int]]
    degrees: tuple[int, int]
    steps: int  # cancellations: c u^t times the lower row off the higher


def lattice_basis(mu, p: int) -> LatticeBasis:
    """Mulders-Storjohann reduction of the generators to weak Popov form."""
    mu, p = as_multiplicity(mu), Prime(p)
    rows = _generators(mu, p)
    steps = 0
    while True:
        (s0, j0), (s1, j1) = (_leading(r, mu) for r in rows)
        if j0 != j1:
            break
        hi, lo = rows if s0 >= s1 else rows[::-1]
        t = abs(s0 - s1)
        c = hi[j0][-1] * pow(lo[j0][-1], p - 2, p) % p
        for a, b in zip(hi, lo):
            end = t + len(b)
            a.extend([0] * (end - len(a)))
            a[t:end] = [(x - c * y) % p for x, y in zip(a[t:end], b)]
            _trim(a)
        steps += 1
    if (s0, j0) > (s1, j1):
        rows.reverse()
        s0, s1 = s1, s0
    return LatticeBasis(rows[0], rows[1], (s0, s1), steps)


# -- the basis read-out ---------------------------------------------------------


def _coords(row, mu: Multiplicity, d: int) -> list[int]:
    """The row as a degree-d slice vector: F's coefficients, then G's."""
    sizes = (max(0, d - mu.mu1 + 1), max(0, d - mu.mu2 + 1))
    return [c for part, n in zip(row, sizes) for c in (part + [0] * n)[:n]]


def _normalized(vec: list[int], p: int) -> list[int]:
    """vec scaled so that its last nonzero coordinate is 1."""
    inv = pow(next(a for a in reversed(vec) if a), p - 2, p)
    return [a * inv % p for a in vec]


def _reduced_high(basis: LatticeBasis, mu: Multiplicity, p: int) -> list[int]:
    """The high row at degree d2, cleared at the last coordinates of the
    low row's shifts x^i y^(d2-d1-i) * low from the top down, normalized:
    the d2-slice's one canonical basis field that is not a multiple of low.
    The low row's last coordinate is the smaller one, also at d1 = d2."""
    d1, d2 = basis.degrees
    h = _coords(basis.high, mu, d2)
    support = [(k, a) for k, a in enumerate(_coords(basis.low, mu, d2)) if a]
    top, lead = support[-1]
    inv = pow(lead, p - 2, p)
    for i in range(d2 - d1, -1, -1):
        c = h[top + i] * inv % p
        if c:
            for k, a in support:
                h[k + i] = (h[k + i] - c * a) % p
    return _normalized(h, p)


def _vector_field(mu: Multiplicity, p: int, d: int, vec: list[int]) -> VectorField:
    """The slice vector, whose entries are residues already, as a field."""
    n_f = max(0, d - mu.mu1 + 1)
    f, g = (0,) * mu.mu1 + tuple(vec[:n_f]), tuple(vec[n_f:]) + (0,) * mu.mu2
    return VectorField(*(HomoPoly._canonical(p, h if any(h) else ()) for h in (f, g)))


# -- public solver -----------------------------------------------------------


def slice_dim(mu, p: int, d: int) -> int:
    """Dimension of the degree-d graded piece."""
    d1, d2 = lattice_basis(mu, p).degrees
    return max(0, d - d1 + 1) + max(0, d - d2 + 1)


def oracle_delta(mu, p: int) -> int:
    """Exponent gap d2 - d1 from the reduced lattice (no basis built)."""
    d1, d2 = lattice_basis(mu, p).degrees
    return d2 - d1


def oracle_exponents(mu, p: int) -> tuple[int, int, BasisPair]:
    """Exponents (d1, d2) and a Saito-certified canonical basis: the
    d1-slice's first canonical field, and the first field of the d2-slice's
    canonical basis that is not a multiple of it."""
    mu, p = basis_guard(as_multiplicity(mu)), Prime(p)
    basis = lattice_basis(mu, p)
    d1, d2 = basis.degrees
    low = _vector_field(mu, p, d1, _normalized(_coords(basis.low, mu, d1), p))
    high = _vector_field(mu, p, d2, _reduced_high(basis, mu, p))
    return d1, d2, certify(low, high, mu)
