"""Exact arithmetic on homogeneous bivariate polynomials over F_p.

A nonzero polynomial of degree d is the coefficient vector (a_0, ..., a_d)
with a_j the coefficient of x^j y^(d-j); coefficients are canonical residues
in [0, p).  The zero polynomial is a distinguished degreeless value so that
divisibility tests need no fake degree bookkeeping.

The three divisibility tests that define logarithmic membership live here:
by x^k and y^k (coefficient-window checks) and by (x+y)^c.  The latter
divides the dehomogenization h(u, 1), which loses nothing because x + y is
coprime to y.  Over F_p, Frobenius gives (u + 1)^(p^i) = u^(p^i) + 1, so
(u + 1)^c is the product of s_p(c) sparse factors u^q + 1, one per unit of
each base-p digit of c; exact division by each is a stride-q recurrence, and
the test costs O(degree * s_p(c)) steps instead of O(degree * c).  It needs
no derivative, which would lose information in characteristic p.
"""

from __future__ import annotations

from .fpcore import DEGREE_GUARD, GuardError, binom_mod_p


class HomoPoly:
    """Homogeneous bivariate polynomial over F_p (immutable)."""

    __slots__ = ("p", "degree", "coeffs")

    def __init__(self, p: int, coeffs):
        """Build from an ascending-in-x coefficient vector.

        An empty or all-zero vector yields the zero polynomial.
        """
        p = int(p)
        cs = tuple(map(p.__rmod__, map(int, coeffs)))
        if not any(cs):
            cs = ()
        self.p = p
        self.degree = len(cs) - 1 if cs else None
        self.coeffs = cs
        if self.degree is not None and self.degree > DEGREE_GUARD:
            raise GuardError(f"degree {self.degree} exceeds the desk-scale guard")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "HomoPoly":
        return cls(p, ())

    @classmethod
    def constant(cls, p: int, c: int) -> "HomoPoly":
        return cls(p, (c,))

    @classmethod
    def monomial(cls, p: int, i: int, j: int, c: int = 1) -> "HomoPoly":
        """c * x^i * y^j."""
        if i < 0 or j < 0:
            raise ValueError("monomial exponents must be nonnegative")
        coeffs = [0] * (i + j + 1)
        coeffs[i] = c
        return cls(p, coeffs)

    @classmethod
    def from_terms(cls, p: int, terms) -> "HomoPoly":
        """Sum of (i, j, c) monomial triples; all must share total degree."""
        terms = list(terms)
        if not terms:
            return cls.zero(p)
        d = terms[0][0] + terms[0][1]
        coeffs = [0] * (d + 1)
        for i, j, c in terms:
            if i + j != d:
                raise ValueError("terms of mixed total degree")
            coeffs[i] = (coeffs[i] + c) % p
        return cls(p, coeffs)

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def coeff(self, i: int) -> int:
        """Coefficient of x^i y^(degree-i); 0 outside the stored window."""
        if self.is_zero or i < 0 or i > self.degree:
            return 0
        return self.coeffs[i]

    def terms(self):
        """Nonzero (i, j, c) triples, ascending x-power."""
        if self.is_zero:
            return
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
        return HomoPoly(p, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "HomoPoly":
        return HomoPoly(self.p, [-c for c in self.coeffs])

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

    def scale(self, c: int) -> "HomoPoly":
        c %= self.p
        return HomoPoly(self.p, [c * a % self.p for a in self.coeffs])

    def times_x_power(self, k: int) -> "HomoPoly":
        if self.is_zero or k == 0:
            return self
        return HomoPoly(self.p, (0,) * k + self.coeffs)

    def times_y_power(self, k: int) -> "HomoPoly":
        if self.is_zero or k == 0:
            return self
        return HomoPoly(self.p, self.coeffs + (0,) * k)

    def div_x_power(self, k: int) -> "HomoPoly":
        """Exact division by x^k; raises if not divisible."""
        if self.is_zero or k == 0:
            return self
        if not self.divisible_by_axis("x", k):
            raise ValueError(f"not divisible by x^{k}")
        return HomoPoly(self.p, self.coeffs[k:])

    def div_y_power(self, k: int) -> "HomoPoly":
        """Exact division by y^k; raises if not divisible."""
        if self.is_zero or k == 0:
            return self
        if not self.divisible_by_axis("y", k):
            raise ValueError(f"not divisible by y^{k}")
        return HomoPoly(self.p, self.coeffs[: len(self.coeffs) - k])

    # -- divisibility and projective comparison ------------------------

    def divisible_by_axis(self, axis: str, k: int) -> bool:
        """Whether x^k (axis 'x') or y^k (axis 'y') divides this polynomial."""
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        if k <= 0 or self.is_zero:
            return True
        d = self.degree
        if k > d:
            return False
        window = self.coeffs[:k] if axis == "x" else self.coeffs[d - k + 1 :]
        return not any(window)

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
        if c > self.degree:
            return False
        return not any(self.remainder_mod_linear(c))

    def frobenius_scale(self, q: int) -> "HomoPoly":
        """The q-th power h^q for q a power of p.

        Coefficients in F_p are Frobenius-fixed, so the map just spreads the
        coefficient at x^j y^(d-j) to x^(qj) y^(q(d-j)).
        """
        t = int(q)
        if t < 1:
            raise ValueError("q must be a positive power of p")
        while t % self.p == 0:
            t //= self.p
        if t != 1:
            raise ValueError(f"{q} is not a power of {self.p}")
        if self.is_zero or q == 1:
            return self
        out = [0] * (q * self.degree + 1)
        for i, a in enumerate(self.coeffs):
            out[q * i] = a
        return HomoPoly(self.p, out)

    def projectively_equal(self, other: "HomoPoly") -> bool:
        """Whether self = c * other for some nonzero scalar c."""
        self._check_modulus(other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.degree != other.degree:
            return False
        p = self.p
        pivot = next(i for i, b in enumerate(other.coeffs) if b)
        c = self.coeffs[pivot] * pow(other.coeffs[pivot], p - 2, p) % p
        if c == 0:
            return False
        return all(a == c * b % p for a, b in zip(self.coeffs, other.coeffs))

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


def binomial_power(m: int, p: int) -> HomoPoly:
    """(x + y)^m over F_p, with coefficients given by the Lucas binomials."""
    if m < 0:
        raise ValueError("binomial_power requires m >= 0")
    if m > DEGREE_GUARD:
        raise GuardError(f"degree {m} exceeds the desk-scale guard")
    return HomoPoly(p, [binom_mod_p(m, j, p) for j in range(m + 1)])
