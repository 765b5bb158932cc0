"""Prime-field residues and base-p digit combinatorics.

Everything downstream (polynomial coefficients, lattice formulas, the
lattice solver) reduces to the handful of primitives here: validated
prime moduli, base-p digit vectors, Lucas binomials (as plain int
residues) and the digit-dominance set G_m.
"""

from __future__ import annotations

from math import comb
from operator import index

# Desk-scale guardrails: |mu| and ball radii stay at most 2^32, digit-dominance
# sets at most 2^20 entries.
DEGREE_GUARD = 1 << 32
GSET_GUARD = 1 << 20
# Longest dense list built (polynomial coefficients, binomial rows), checked
# by homopoly.dense_guard before the list is.  The costliest pair below it,
# the binomial basis for (0, 0, 2^22 - 1) over F_2, takes about 3 s and
# 210 MB to build and certify (2-core VM); uses stay below |mu| = 10^4.
DENSE_ROW_GUARD = 1 << 22


class GuardError(ValueError):
    """Input would exceed the desk-scale guard for this operation."""


def guarded_power(p: int, k: int, what: str) -> int:
    """p^k for k >= 0, refused with GuardError past DEGREE_GUARD before it is formed."""
    if k > 32 or p**k > DEGREE_GUARD:  # k first: past 32, p^k >= 2^33 is never formed
        raise GuardError(f"{what} {p}^{k} exceeds the desk-scale guard")
    return p**k


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class Prime(int):
    """A validated prime modulus (a non-integer raises TypeError); behaves
    exactly like the underlying int.  Public functions that take p validate it
    here; a Prime is returned as it is, so nested calls repeat no trial division."""

    def __new__(cls, p) -> "Prime":
        if isinstance(p, Prime):
            return p
        p = index(p)
        if p >= 1 << 31:
            raise GuardError(f"modulus {p} exceeds the supported 31-bit range")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


def digits(m: int, p: int) -> list[int]:
    """Base-p digit vector of m, least significant first, trailing zeros trimmed."""
    if m < 0:
        raise ValueError("digits requires m >= 0")
    p = Prime(p)
    out = []
    while m:
        m, r = divmod(m, p)
        out.append(r)
    return out


def binom_mod_p(m: int, j: int, p: int) -> int:
    """Binomial coefficient C(m, j) mod p via the Lucas digit product.

    Returns the canonical residue in range(p) as a plain int.  Follows the
    usual convention C(a, b) = 0 for b < 0 or b > a.
    """
    p = Prime(p)
    if j < 0 or j > m:
        return 0
    acc = 1
    while j:
        m, cm = divmod(m, p)
        j, cj = divmod(j, p)
        acc = acc * comb(cm, cj) % p  # comb is 0 when cj > cm
    return acc


def g_set(m: int, p: int) -> list[int]:
    """All g >= 0 whose base-p digits are dominated by those of m, ascending.

    Equivalently (Lucas): the g with C(m, g) not divisible by p.  The set is
    symmetric under g -> m - g.
    """
    if m < 0:
        raise ValueError("g_set requires m >= 0")
    ds = digits(m, p)
    size = 1
    for c in ds:
        size *= c + 1
        if size > GSET_GUARD:
            raise GuardError(f"G_{m} would have more than {GSET_GUARD} elements")
    members = [0]
    for c in reversed(ds):  # most significant first, so members stay ascending
        members = [g * p + t for g in members for t in range(c + 1)]
    return members


def least_dominated(m: int, lo: int, p: int) -> int | None:
    """Least j >= lo whose base-p digits are each <= those of m, or None.

    Equivalently (Lucas): the least j >= lo with C(m, j) not divisible by p.
    Keeps lo's digits above the highest digit that exceeds m's, raises the
    lowest of those that has room and clears everything below it.
    """
    p = Prime(p)
    lo = max(lo, 0)
    if lo > m:
        return None
    q, rest, room, exceeded = 1, lo, None, False
    while m:  # q = p^i at digit i; room is the lowest q with room above an excess
        (m, cm), (rest, cl) = divmod(m, p), divmod(rest, p)
        if cl > cm:
            room, exceeded = None, True
        elif cl < cm and room is None:
            room = q
        q *= p
    return room and (lo // room + 1) * room if exceeded else lo
