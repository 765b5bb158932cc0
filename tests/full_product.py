"""Test-local full product check: Saito's criterion with the determinant built.

``saito_check`` decides a basis from membership and one determinant
coefficient.  The reference here builds the determinant f1 g2 - f2 g1 and
the defining polynomial x^m1 y^m2 (x+y)^m3 in full and compares them up to a
nonzero scalar, so tests can check the shortcut against the definition.
"""

from __future__ import annotations

from triarr.derivmod import VectorField, defining_poly, in_module
from triarr.homopoly import HomoPoly


def projectively_equal(a: HomoPoly, b: HomoPoly) -> bool:
    """Whether a = c * b for some nonzero scalar c."""
    assert a.p == b.p, (a.p, b.p)
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    if a.degree != b.degree:
        return False
    p = a.p
    pivot = next(i for i, c in enumerate(b.coeffs) if c)
    c = a.coeffs[pivot] * pow(b.coeffs[pivot], p - 2, p) % p
    if c == 0:
        return False
    return all(x == c * y % p for x, y in zip(a.coeffs, b.coeffs))


def apply_to_sum(theta: VectorField) -> HomoPoly:
    """theta(x + y) = f + g, formed at full degree."""
    return theta.f + theta.g


def saito_det(t1: VectorField, t2: VectorField) -> HomoPoly:
    """Coefficient determinant f1*g2 - f2*g1."""
    return t1.f * t2.g - t2.f * t1.g


def full_product_check(t1: VectorField, t2: VectorField, mu) -> bool:
    """Saito's criterion evaluated in full: membership, then the determinant
    f1 g2 - f2 g1 compared with x^m1 y^m2 (x+y)^m3 up to a nonzero scalar."""
    return (
        in_module(t1, mu)
        and in_module(t2, mu)
        and projectively_equal(saito_det(t1, t2), defining_poly(mu, t1.p))
    )
