"""Prime-field residues and base-p digit combinatorics.

Everything downstream (polynomial coefficients, lattice formulas, the
lattice solver) reduces to the handful of primitives here: validated
prime moduli, base-p digit vectors, Lucas binomials (as plain int
residues) and the digit-dominance set G_m.
"""

from __future__ import annotations

from itertools import product

# Desk-scale guardrails: degrees stay below 2^32, digit-dominance sets
# below 2^20 entries.
DEGREE_GUARD = 1 << 32
GSET_GUARD = 1 << 20


class GuardError(ValueError):
    """Input would exceed the desk-scale guard for this operation."""


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
    """A validated prime modulus; behaves exactly like the underlying int."""

    def __new__(cls, p) -> "Prime":
        p = int(p)
        if p >= 1 << 31:
            raise GuardError(f"modulus {p} exceeds the supported 31-bit range")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


def digits(m: int, p: int) -> list[int]:
    """Base-p digit vector of m, least significant first, trailing zeros trimmed."""
    if m < 0:
        raise ValueError("digits requires m >= 0")
    out = []
    while m:
        m, r = divmod(m, p)
        out.append(r)
    return out


def from_digits(ds, p: int) -> int:
    """Inverse of :func:`digits`."""
    value = 0
    for d in reversed(list(ds)):
        value = value * p + d
    return value


def s_index(m: int, p: int) -> int:
    """Index of the least nonzero base-p digit of m (m >= 1)."""
    if m <= 0:
        raise ValueError("s_index is undefined for m = 0")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def binom_mod_p(m: int, j: int, p: int) -> int:
    """Binomial coefficient C(m, j) mod p via the Lucas digit product.

    Returns the canonical residue in range(p) as a plain int.  Follows the
    usual convention C(a, b) = 0 for b < 0 or b > a.
    """
    if j < 0 or j > m:
        return 0
    acc = 1
    while j:
        m, cm = divmod(m, p)
        j, cj = divmod(j, p)
        if cj > cm:
            return 0
        # small-digit binomial, exact
        num, den = 1, 1
        for t in range(cj):
            num *= cm - t
            den *= t + 1
        acc = acc * ((num // den) % p) % p
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
    members = []
    for choice in product(*(range(c + 1) for c in ds)):
        members.append(from_digits(choice, p))
    members.sort()
    return members


def least_dominated(m: int, lo: int, p: int) -> int | None:
    """Least j >= lo whose base-p digits are each <= those of m, or None.

    Equivalently (Lucas): the least j >= lo with C(m, j) not divisible by p.
    Keeps lo's digits above the highest digit that exceeds m's, raises the
    lowest of those that has room and clears everything below it.
    """
    lo = max(lo, 0)
    if lo > m:
        return None
    md, ld = digits(m, p), digits(lo, p)
    ld += [0] * (len(md) - len(ld))
    top = next((i for i in reversed(range(len(md))) if ld[i] > md[i]), None)
    if top is None:
        return lo
    for k in range(top + 1, len(md)):
        if ld[k] < md[k]:
            return from_digits([0] * k + [ld[k] + 1] + ld[k + 1 :], p)
    return None
