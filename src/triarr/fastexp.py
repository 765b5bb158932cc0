"""Closed-form exponents from the geometry of the multiplicity lattice.

The lattice points with positive exponent gap decompose into connected
components; every balanced component is a 1-norm ball of radius p^k around
a center in p^k * (balanced, odd-sum lattice points).  Computing the gap
for a balanced mu therefore reduces to locating the unique ball that can
contain it for each scale p^m and taking the largest qualifying scale:

  k = max({0} | {m > 0 : 2 p^m <= |mu| and mu lies in a radius-p^m ball
                  around p^m * (balanced odd) }).

A balanced mu never lies in a ball around an unbalanced center q * nu: with
nu_i the largest part of nu, 2 nu_i - |nu| >= 1, and d = mu - q nu with
|d|_1 < q gives 2 mu_i - |mu| = q (2 nu_i - |nu|) + d_i - sum_(j != i) d_j > 0.
So for balanced mu every ball found at a scale qualifies.

For k = 0 the gap is the parity of |mu|; for k > 0 the gap falls off
linearly across the ball, gap = p^k - |mu - center|_1.  Either way the two
exponents sum to |mu|, so they are (|mu| - gap) / 2 and (|mu| + gap) / 2.
Unbalanced multiplicities short-circuit: gap = 2 max(mu) - |mu|.

The walk is one integer pass over q = p, p^2, ..., with mu and p validated
once at the public entry point.  One divmod per coordinate writes mu = q a + b
(0 <= b_i < q), and the one ball test, _locate, tells which of four exclusive
cases holds mu (C/D for |a| even, E/F for |a| odd); k's case is the tag.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivmod import Multiplicity, as_multiplicity, dist1
from .fpcore import GuardError, Prime, guarded_power

# Scales rejected for an unbalanced center; the benchmark reads it.  It stays
# 0: no such ball holds a balanced mu (module docstring).
filter_stats = {"unbalanced_center_rejections": 0}

# Most points enumerate_centers scans (about a minute of looping); verify's
# default centers box at p = 7 has 197^3 of them at radius 1.
CENTER_CANDIDATE_GUARD = 1 << 23


class ExponentReport(NamedTuple):
    """Exponent gap, exponent pair and component geometry for one mu."""

    mu: Multiplicity
    p: int
    delta: int
    exponents: tuple[int, int]
    tag: str  # Unbalanced | K0Odd | K0Even | CaseC | CaseD | CaseE | CaseF
    k: int = 0
    center: Multiplicity | None = None
    alpha: Multiplicity | None = None
    beta: Multiplicity | None = None

    @property
    def radius(self) -> int | None:
        return self.p**self.k if self.center is not None else None


class CenterSet(NamedTuple):
    """All component centers of radius p^k inside a bounding box."""

    p: int
    k: int
    box: Multiplicity
    centers: list[Multiplicity]

    @property
    def radius(self) -> int:
        return self.p**self.k


def _locate(mu, q: int):
    """(case, s, alpha, beta) when mu = q alpha + beta lies in the radius-q ball
    around q (alpha + s), else None; C tests only max(beta), E only min(beta)."""
    (a1, b1), (a2, b2), (a3, b3) = divmod(mu[0], q), divmod(mu[1], q), divmod(mu[2], q)
    alpha, beta = (a1, a2, a3), (b1, b2, b3)
    btot = b1 + b2 + b3
    if (a1 + a2 + a3) % 2 == 0:
        top = max(beta)
        if 2 * top > btot:
            return "C", ((1, 0, 0), (0, 1, 0), (0, 0, 1))[beta.index(top)], alpha, beta
        if btot > 2 * q:
            return "D", (1, 1, 1), alpha, beta
    else:
        ctot = 3 * q - btot  # |q*(1,1,1) - beta|
        low = min(beta)
        if 2 * (q - low) > ctot:
            return "E", ((0, 1, 1), (1, 0, 1), (1, 1, 0))[beta.index(low)], alpha, beta
        if ctot > 2 * q:
            return "F", (0, 0, 0), alpha, beta
    return None


def _walk(mu: Multiplicity, p: int):
    """The scale walk for a balanced mu: the last m with 2 p^m <= |mu| whose
    ball holds mu, and _locate's answer there, or (0, None)."""
    k, best = 0, None
    m, q, total = 1, p, mu.total
    while 2 * q <= total:
        located = _locate(mu, q)
        if located is not None:
            k, best = m, located
        m, q = m + 1, q * p
    return k, best


def fast_exponents(mu, p: int) -> ExponentReport:
    """Exponent gap and pair for any mu: the distance to the ball's center."""
    mu, p = as_multiplicity(mu), Prime(p)
    total, balanced = mu.total, mu.balanced
    k, located = _walk(mu, p) if balanced else (0, None)
    alpha = beta = None
    if not balanced:  # the dominant line decides: gap 2 max - |mu|
        delta, tag, center = 2 * max(mu) - total, "Unbalanced", None
    elif located:
        case, shift, a, b = located  # mu = q a + b, in the ball around q (a + shift)
        alpha, beta, q = Multiplicity(*a), Multiplicity(*b), p**k
        center = Multiplicity(*(q * (x + s) for x, s in zip(a, shift)))
        delta, tag = q - dist1(mu, center), "Case" + case
    elif total % 2:  # a balanced odd point outside every larger ball
        delta, tag, center = 1, "K0Odd", mu
    else:
        delta, tag, center = 0, "K0Even", None
    return ExponentReport(
        mu=mu, p=p, delta=delta, exponents=((total - delta) // 2, (total + delta) // 2),
        tag=tag, k=k, center=center, alpha=alpha, beta=beta,
    )


def delta_zero(mu, p: int) -> bool:
    """Whether the exponent gap vanishes, decided without the center's
    distance: balanced, even total, and no ball on the scale walk."""
    mu, p = as_multiplicity(mu), Prime(p)
    return mu.balanced and mu.total % 2 == 0 and _walk(mu, p)[0] == 0


def enumerate_centers(p: int, k: int, box) -> CenterSet:
    """All radius-p^k component centers within the box (componentwise).

    A center of radius p^k is a point zeta = p^k*nu (nu balanced, |nu| odd)
    in no radius-p^m ball around p^m*(balanced odd lattice) for m > k.  The
    balls scale by p: _locate(p^k nu, p^m) finds a ball exactly when
    _locate(nu, p^(m-k)) does, with the same case and alpha and p^k times
    the beta, so zeta is a center exactly when nu's walk finds no ball; the
    walk's bound 2 p^m <= |nu| loses no scale, since such a ball holds only
    totals above 2 p^m.  A box of over CENTER_CANDIDATE_GUARD candidates, or
    a radius over 2^32, raises GuardError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    box, p = as_multiplicity(box), Prime(p)
    q = guarded_power(p, k, "radius")
    if (box.mu1 // q + 1) * (box.mu2 // q + 1) * (box.mu3 // q + 1) > CENTER_CANDIDATE_GUARD:
        raise GuardError(f"box {tuple(box)} exceeds the {CENTER_CANDIDATE_GUARD}-candidate guard")
    centers = []  # ascending, since nu runs through the box in order
    for n1 in range(box.mu1 // q + 1):
        for n2 in range(box.mu2 // q + 1):
            for n3 in range(box.mu3 // q + 1):
                nu = Multiplicity(n1, n2, n3)
                if nu.total % 2 and nu.balanced and _walk(nu, p)[0] == 0:
                    centers.append(nu.scaled(q))
    return CenterSet(p=p, k=k, box=box, centers=centers)
