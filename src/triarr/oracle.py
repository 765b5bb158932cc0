"""Ground-truth solver: the logarithmic module as a rank-2 polynomial lattice.

With u = x/y, a degree-d field f dx + g dy (x^m1 | f, y^m2 | g) is the pair
(F, G) = (f(u, 1)/u^m1, g(u, 1)) with u^m1 F + G = 0 mod (u + 1)^m3 and shifted
degree max(deg F + m1, deg G + m2) <= d.  Mulders-Storjohann (J. Symbolic
Comput. 35, 2003) brings the generators (1, -(u^m1 mod (u + 1)^m3)) and
(0, (u + 1)^m3) to weak Popov form; the rows' shifted degrees d1 <= d2 are the
exponents, and the rows' shifts span every slice.  Slice coordinates are F's
coefficients, then G's; emitted bases are reduced echelon read from the last
column.  Saito's criterion certifies every pair.  No ball geometry is used,
so the solver stays an independent referee for fastexp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    saito_check,
)
from .fpcore import binom_mod_p
from .homopoly import HomoPoly, binomial_power

# perfbench/run.py --trace 1 sums this table for its Pascal-cache metric.  The
# lattice engine keeps no such table, so it stays empty until that metric goes.
_pascal_cache: dict = {}

# -- polynomial lattice: a row is a pair (F, G) of coefficient lists over F_p,
# ascending in u and without trailing zeros -----------------------------------


def _taylor_shift(c: list[int], p: int) -> list[int]:
    """Coefficients of R(u + 1) for R(v) = sum c_k v^k: blocks of q = p^i
    coefficients, shifted recursively, joined by Horner in (u + 1)^q = u^q + 1."""
    n = len(c)
    if n <= 1:
        return list(c)
    q = 1
    while q * p < n:
        q *= p
    blocks = [_taylor_shift(c[i : i + q], p) for i in range(0, n, q)]
    acc = blocks.pop()
    for block in reversed(blocks):
        acc = [0] * q + acc
        for i in range(len(acc) - q):
            acc[i] += acc[i + q]
        for i, b in enumerate(block):
            acc[i] += b
        acc = [a % p for a in acc]
    return acc


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _generators(mu: Multiplicity, p: int) -> list[tuple[list[int], list[int]]]:
    """(1, -(u^m1 mod (u+1)^m3)) and (0, (u+1)^m3)."""
    m1, _, m3 = mu
    # with v = u + 1, -(u^m1 mod (u+1)^m3) is -(v - 1)^m1 cut below v^m3
    neg = [binom_mod_p(m1, k, p) * (-1) ** (m1 - k + 1) % p for k in range(min(m3, m1 + 1))]
    return [([1], _trim(_taylor_shift(neg, p))), ([], list(binomial_power(m3, p).coeffs))]


def _leading(row, mu: Multiplicity) -> tuple[int, int]:
    """(shifted degree, leading position); ties go to G, the right position."""
    f, g = row
    df = len(f) - 1 + mu.mu1 if f else -1
    dg = len(g) - 1 + mu.mu2 if g else -1
    return (dg, 1) if dg >= df else (df, 0)


class LatticeBasis(NamedTuple):
    """Weak Popov rows (low, high) of shifted degrees d1 <= d2."""

    low: tuple[list[int], list[int]]
    high: tuple[list[int], list[int]]
    degrees: tuple[int, int]
    steps: int  # cancellations: c u^t times the lower row off the higher


def lattice_basis(mu, p: int) -> LatticeBasis:
    """Mulders-Storjohann reduction of the generators to weak Popov form."""
    mu = as_multiplicity(mu)
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
            if len(a) < len(b) + t:
                a.extend([0] * (len(b) + t - len(a)))
            for i, x in enumerate(b, t):
                a[i] = (a[i] - c * x) % p
            _trim(a)
        steps += 1
    if s0 > s1:
        rows.reverse()
        s0, s1 = s1, s0
    return LatticeBasis(rows[0], rows[1], (s0, s1), steps)


# -- canonical slice bases ------------------------------------------------------


def _coords(row, mu: Multiplicity, d: int, shift: int = 0) -> list[int]:
    """u^shift * row as a degree-d slice vector: F's coefficients, then G's."""
    sizes = (max(0, d - mu.mu1 + 1), max(0, d - mu.mu2 + 1))
    return [c for part, n in zip(row, sizes) for c in ([0] * shift + part + [0] * n)[:n]]


def _last(vec: list[int]) -> int:
    """Index of the last nonzero coordinate (-1 for the zero vector)."""
    return max((i for i, a in enumerate(vec) if a), default=-1)


def _normalized(vec: list[int], p: int) -> list[int]:
    inv = pow(vec[_last(vec)], p - 2, p)
    return [a * inv % p for a in vec]


def _minus(v: list[int], c: int, w: list[int], p: int) -> list[int]:
    """v - c * w."""
    return [(a - c * b) % p for a, b in zip(v, w)] if c else v


def _echelon(vecs: list[list[int]], p: int) -> list[list[int]]:
    """Reduced echelon basis of the span, read from the last column,
    in ascending order of each vector's last nonzero coordinate."""
    pivots: dict[int, list[int]] = {}  # last coordinate -> vector, mutually reduced
    for v in vecs:
        for t, w in pivots.items():
            v = _minus(v, v[t], w, p)
        t = _last(v)
        if t >= 0:
            v = _normalized(v, p)
            pivots = {s: _minus(w, w[t], v, p) for s, w in pivots.items()}
            pivots[t] = v
    return [pivots[t] for t in sorted(pivots)]


def _reduced_high(basis: LatticeBasis, mu: Multiplicity, p: int) -> list[int]:
    """The high row at degree d2, cleared at the last coordinates of the
    low row's shifts x^i y^(d2-d1-i) * low from the top down, normalized:
    the d2-slice's one canonical basis field that is not a multiple of low."""
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
    n_f = max(0, d - mu.mu1 + 1)
    f = [0] * mu.mu1 + vec[:n_f]
    g = vec[n_f:] + [0] * mu.mu2
    return VectorField(HomoPoly(p, f), HomoPoly(p, g))


# -- public solver -----------------------------------------------------------


@dataclass(frozen=True)
class DegreeSlice:
    """F_p-basis of the degree-d graded piece of the logarithmic module."""

    degree: int
    basis: list[VectorField]

    @property
    def dim(self) -> int:
        return len(self.basis)


def slice_dim(mu, p: int, d: int) -> int:
    """Dimension of the degree-d graded piece."""
    d1, d2 = lattice_basis(mu, p).degrees
    return max(0, d - d1 + 1) + max(0, d - d2 + 1)


def degree_slice(mu, p: int, d: int) -> DegreeSlice:
    """Canonical basis of the degree-d graded piece, by last coordinate."""
    mu = as_multiplicity(mu)
    basis = lattice_basis(mu, p)
    spans = [
        _coords(row, mu, d, i)
        for row, deg in zip(basis[:2], basis.degrees)
        for i in range(d - deg + 1)
    ]
    return DegreeSlice(d, [_vector_field(mu, p, d, v) for v in _echelon(spans, p)])


def oracle_delta(mu, p: int) -> int:
    """Exponent gap d2 - d1 from the reduced lattice (no basis built)."""
    d1, d2 = lattice_basis(mu, p).degrees
    return d2 - d1


def oracle_exponents(mu, p: int) -> tuple[int, int, BasisPair]:
    """Exponents (d1, d2) and a Saito-certified canonical basis: the
    d1-slice's first canonical field, and the first field of the d2-slice's
    canonical basis that is not a multiple of it."""
    mu = as_multiplicity(mu)
    basis = lattice_basis(mu, p)
    d1, d2 = basis.degrees
    if d1 == d2:
        low, high = _echelon([_coords(basis.low, mu, d1), _coords(basis.high, mu, d2)], p)
    else:
        low = _normalized(_coords(basis.low, mu, d1), p)
        high = _reduced_high(basis, mu, p)
    low, high = _vector_field(mu, p, d1, low), _vector_field(mu, p, d2, high)
    if not saito_check(low, high, mu):
        raise CertificationError(f"failed to certify a basis for {tuple(mu)}")
    return d1, d2, BasisPair(low, high, certified=True)
