"""Logarithmic vector fields on the three concurrent lines x, y, x+y.

The arrangement is fixed as {ker x, ker y, ker(x+y)}; any three distinct
concurrent lines reduce to this one by a linear change of coordinates, and
fixing coordinates makes the (x+y)-divisibility test concrete.

A vector field theta = f dx + g dy with f, g homogeneous of one common
degree belongs to the module of multiplicity mu = (m1, m2, m3) iff
x^m1 | f, y^m2 | g and (x+y)^m3 | f + g.  Two members form a basis exactly
when their coefficient determinant is a nonzero scalar multiple of
Q = x^m1 y^m2 (x+y)^m3 (Saito's criterion).

For two members Q always divides det = f1 g2 - f2 g1: x^m1 divides f1 and
f2, y^m2 divides g1 and g2, and g_i = -f_i mod (x+y)^m3 gives
det = -f1 f2 + f2 f1 = 0 mod (x+y)^m3.  So det = c Q with c != 0 exactly when
both fields are nonzero, their degrees sum to |mu| and the scalar c is
nonzero.  Q's coefficient at x^m1 y^(m2+m3) is C(m3, 0) = 1, so c is det's
coefficient there, and since x^m1 divides f1 and f2 that coefficient is
f1[m1] g2[0] - f2[m1] g1[0]: the criterion costs two memberships and O(1).
"""

from __future__ import annotations

from typing import NamedTuple

from .fpcore import DEGREE_GUARD, GuardError, Prime
from .homopoly import HomoPoly, binomial_power, dense_guard, frobenius_root


class CertificationError(RuntimeError):
    """A pair that must certify as a basis failed Saito's criterion.

    This always signals an implementation bug, never a mathematical failure.
    """


class Multiplicity(NamedTuple):
    """Multiplicity triple (m1, m2, m3) for the lines x, y, x+y."""

    mu1: int
    mu2: int
    mu3: int

    @property
    def total(self) -> int:
        return self.mu1 + self.mu2 + self.mu3

    @property
    def balanced(self) -> bool:
        """max(mu) <= |mu| / 2: no line outweighs the other two together."""
        return 2 * max(self) <= self.total

    def scaled(self, c: int) -> "Multiplicity":
        return Multiplicity(c * self.mu1, c * self.mu2, c * self.mu3)


def as_multiplicity(value) -> Multiplicity:
    """Coerce a triple to a validated Multiplicity."""
    if isinstance(value, Multiplicity):
        mu = value
    else:
        a, b, c = value
        mu = Multiplicity(int(a), int(b), int(c))
    if min(mu) < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {tuple(mu)}")
    if mu.total > DEGREE_GUARD:
        raise GuardError(f"|mu| = {mu.total} exceeds the desk-scale guard")
    return mu


def basis_guard(mu: Multiplicity) -> Multiplicity:
    """mu, when a basis for it fits the dense-row guard.

    A basis of mu has degrees at most |mu|, so each component is a list of
    at most |mu| + 1 coefficients; larger bases are refused before any list
    is built.
    """
    dense_guard(mu.total + 1, "a basis component")
    return mu


def dist1(mu, nu) -> int:
    """1-norm distance between two lattice points."""
    return sum(abs(a - b) for a, b in zip(mu, nu))


class VectorField:
    """theta = f dx + g dy with f, g homogeneous of equal degree (or zero)."""

    __slots__ = ("f", "g")

    def __init__(self, f: HomoPoly, g: HomoPoly):
        if f.p != g.p:
            raise ValueError("component modulus mismatch")
        if not (f.is_zero or g.is_zero) and f.degree != g.degree:
            raise ValueError(
                f"components must share a degree, got {f.degree} and {g.degree}"
            )
        self.f = f
        self.g = g

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def degree(self) -> int | None:
        """Common degree of the nonzero components (None for the zero field)."""
        if not self.f.is_zero:
            return self.f.degree
        return self.g.degree

    @property
    def is_zero(self) -> bool:
        return self.f.is_zero and self.g.is_zero

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.f, self.g))

    def scale(self, c: int) -> "VectorField":
        return VectorField(self.f.scale(c), self.g.scale(c))

    def frobenius(self, q: int) -> "VectorField":
        return VectorField(self.f.frobenius_scale(q), self.g.frobenius_scale(q))

    def to_text(self) -> str:
        """Canonical text form "(f) dx + (g) dy".

        Fields proportional to dy - dx (the x+y-killing shape) print as
        "(g) dy - (g) dx" so that sign-free residues stay readable.
        """
        if self.is_zero:
            return "(0) dx + (0) dy"
        if self.f.is_zero:
            return f"({self.g.to_text()}) dy"
        if self.g.is_zero:
            return f"({self.f.to_text()}) dx"
        if self.f == -self.g:
            t = self.g.to_text()
            return f"({t}) dy - ({t}) dx"
        return f"({self.f.to_text()}) dx + ({self.g.to_text()}) dy"

    def __repr__(self):
        return f"VectorField({self.to_text()})"


class _PairFields(NamedTuple):
    low: VectorField
    high: VectorField
    certified: bool = False


class BasisPair(_PairFields):
    """Ordered homogeneous basis (low, high) with deg low <= deg high."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        dl, dh = self.low.degree, self.high.degree
        if dl is not None and dh is not None and dl > dh:
            raise ValueError("basis pair must be ordered by degree")
        return self

    @property
    def exponents(self) -> tuple[int, int]:
        return (self.low.degree, self.high.degree)


def defining_poly(mu, p: int) -> HomoPoly:
    """x^m1 y^m2 (x+y)^m3 over F_p."""
    mu, p = as_multiplicity(mu), Prime(p)
    dense_guard(mu.total + 1, "a defining polynomial")
    return binomial_power(mu.mu3, p).times_monomial(mu.mu1, mu.mu2)


def in_module(theta: VectorField, mu) -> bool:
    """Membership of theta in the logarithmic module of multiplicity mu.
    theta(x + y) = f + g is formed at the common Frobenius root: (F + G)^q."""
    mu = as_multiplicity(mu)
    if not (theta.f.divisible_by_axis("x", mu.mu1) and theta.g.divisible_by_axis("y", mu.mu2)):
        return False
    q, (f, g) = frobenius_root(theta.f, theta.g)
    return (f + g).divisible_by_linear_power(-(-mu.mu3 // q))


def saito_check(t1: VectorField, t2: VectorField, mu) -> bool:
    """Saito's criterion: both fields in the module and det = c * Q, c != 0.

    Neither det nor Q is built: given membership, the degree sum and the one
    coefficient c = f1[m1] g2[0] - f2[m1] g1[0] decide (module docstring).
    """
    mu = as_multiplicity(mu)
    if t1.is_zero or t2.is_zero or t1.degree + t2.degree != mu.total:
        return False
    if not (in_module(t1, mu) and in_module(t2, mu)):
        return False
    m1 = mu.mu1
    return (t1.f.coeff(m1) * t2.g.coeff(0) - t2.f.coeff(m1) * t1.g.coeff(0)) % t1.p != 0
