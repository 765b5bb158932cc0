"""Closed-form exponents from the geometry of the multiplicity lattice.

The lattice points with positive exponent gap decompose into connected
components; every balanced component is a 1-norm ball of radius p^k around
a center in p^k * (balanced, odd-sum lattice points).  Computing the gap
for a balanced mu therefore reduces to locating the unique ball that can
contain it for each scale p^m and taking the largest qualifying scale:

  k = max({0} | {m > 0 : 2 p^m <= |mu| and mu lies in a radius-p^m ball
                  around p^m * (balanced odd) }).

For k = 0 the gap is the parity of |mu|; for k > 0 the gap falls off
linearly across the ball, gap = p^k - |mu - center|_1.  Either way the two
exponents sum to |mu|, so they are (|mu| - gap) / 2 and (|mu| + gap) / 2.
The ball is found by writing mu = p^k a + b with 0 <= b_i < p^k; which of
four mutually exclusive cases locates it (C/D for |a| even, E/F for |a|
odd) is kept as the tag.  Unbalanced multiplicities short-circuit:
gap = 2 max(mu) - |mu|.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivmod import Multiplicity, as_multiplicity, dist1
from .fpcore import DEGREE_GUARD, GuardError, Prime

# Open-question instrumentation: counts scales where a lattice ball exists
# but its center is unbalanced (and the scale was therefore rejected).
filter_stats = {"unbalanced_center_rejections": 0}

# Most points enumerate_centers scans (about a minute of looping); verify's
# default centers box at p = 7 has 197^3 of them at radius 1.
CENTER_CANDIDATE_GUARD = 1 << 23


class BallHit(NamedTuple):
    """The unique radius-p^k ball around p^k*(odd lattice) containing mu."""

    center: Multiplicity
    case: str  # one of "C", "D", "E", "F"
    alpha: Multiplicity  # mu = p^k * alpha + beta, 0 <= beta_i < p^k
    beta: Multiplicity


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


def ball_center(mu, p: int, k: int) -> BallHit | None:
    """Locate the radius-p^k ball around p^k*(odd-sum lattice) containing mu.

    Returns None when mu lies in no such ball.  The center is unique:
    distinct odd-sum points are >= 2 apart in the 1-norm, so the scaled
    open balls are disjoint.  Comparisons of halves are done as doubled
    integers to keep everything exact.
    """
    mu, p = as_multiplicity(mu), Prime(p)
    if k < 1:
        raise ValueError("ball_center requires k >= 1")
    q = p**k
    alpha = Multiplicity(*(c // q for c in mu))
    beta = Multiplicity(*(c % q for c in mu))
    btot = beta.total
    if alpha.total % 2 == 0:
        for i in range(3):
            if 2 * beta[i] > btot:
                center = Multiplicity(
                    *(q * (a + (1 if t == i else 0)) for t, a in enumerate(alpha))
                )
                return BallHit(center, "C", alpha, beta)
        if btot > 2 * q:
            center = Multiplicity(*(q * (a + 1) for a in alpha))
            return BallHit(center, "D", alpha, beta)
    else:
        ctot = 3 * q - btot  # |p^k*(1,1,1) - beta|
        for i in range(3):
            if 2 * (q - beta[i]) > ctot:
                center = Multiplicity(
                    *(q * (a + (0 if t == i else 1)) for t, a in enumerate(alpha))
                )
                return BallHit(center, "E", alpha, beta)
        if ctot > 2 * q:
            center = Multiplicity(*(q * a for a in alpha))
            return BallHit(center, "F", alpha, beta)
    return None


def _walk(mu: Multiplicity, p: int) -> tuple[int, BallHit | None]:
    """The one scale walk: the last m with 2 p^m <= |mu| whose ball has a
    balanced center, and that ball; (0, None) when there is none."""
    k, best = 0, None
    m = 1
    while 2 * p**m <= mu.total:
        hit = ball_center(mu, p, m)
        if hit is not None:
            if hit.center.balanced:
                k, best = m, hit
            else:
                filter_stats["unbalanced_center_rejections"] += 1
        m += 1
    return k, best


def fast_exponents(mu, p: int) -> ExponentReport:
    """Exponent gap and pair for any mu: the distance to the ball's center."""
    mu, p = as_multiplicity(mu), Prime(p)
    total = mu.total
    if not mu.balanced:  # the dominant line decides: gap 2 max - |mu|
        top = max(mu)
        return ExponentReport(
            mu=mu, p=p, delta=2 * top - total, exponents=(total - top, top), tag="Unbalanced"
        )
    k, hit = _walk(mu, p)
    if hit is None:
        if total % 2:
            return ExponentReport(
                mu=mu,
                p=p,
                delta=1,
                exponents=((total - 1) // 2, (total + 1) // 2),
                tag="K0Odd",
                center=mu,  # a balanced odd point outside every larger ball
            )
        return ExponentReport(
            mu=mu, p=p, delta=0, exponents=(total // 2, total // 2), tag="K0Even"
        )
    delta = p**k - dist1(mu, hit.center)
    return ExponentReport(
        mu=mu,
        p=p,
        delta=delta,
        exponents=((total - delta) // 2, (total + delta) // 2),
        tag="Case" + hit.case,
        k=k,
        center=hit.center,
        alpha=hit.alpha,
        beta=hit.beta,
    )


def delta_zero(mu, p: int) -> bool:
    """Whether the exponent gap vanishes, decided without the case formulas.

    Independent cross-check route: balanced, even total, and no qualifying
    ball at any scale m >= 1.
    """
    mu, p = as_multiplicity(mu), Prime(p)
    if not mu.balanced or mu.total % 2:
        return False
    m = 1
    while 2 * p**m <= mu.total:
        hit = ball_center(mu, p, m)
        if hit is not None and hit.center.balanced:
            return False
        m += 1
    return True


def enumerate_centers(p: int, k: int, box) -> CenterSet:
    """All radius-p^k component centers within the box (componentwise).

    A center of radius p^k is a point zeta = p^k*nu (nu balanced, |nu| odd)
    in no radius-p^m ball around p^m*(balanced odd lattice) for m > k.  The
    balls scale by p: ball_center(p^k nu, p, m) is p^k ball_center(nu, p, m-k),
    and the scales up to k add no ball and no rejection, so zeta is a center
    exactly when nu's walk finds no ball, with the same rejections.  The
    walk's bound 2 p^m <= |nu| loses no scale, since such a ball holds only
    totals above 2 p^m.  A box with more than CENTER_CANDIDATE_GUARD points
    p^k * nu raises GuardError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    box, p = as_multiplicity(box), Prime(p)
    # p >= 2, so k > 32 already exceeds the guard; no box admits such a ball
    if k > 32 or p**k > DEGREE_GUARD:
        raise GuardError(f"radius {p}^{k} exceeds the desk-scale guard")
    q = p**k
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
