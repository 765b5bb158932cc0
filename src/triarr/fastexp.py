"""Closed-form exponents from the geometry of the multiplicity lattice.

The lattice points with positive exponent gap decompose into connected
components; every balanced component is a 1-norm ball of radius p^k around
a center in p^k * (balanced, odd-sum lattice points).  Computing the gap
for a balanced mu therefore reduces to locating the unique ball that can
contain it for each scale p^m and taking the largest qualifying scale:

  k = max({0} | {m > 0 : 2 p^m <= |mu| and mu lies in a radius-p^m ball
                  around p^m * (balanced odd) }).

For k = 0 the gap is the parity of |mu|; for k > 0 write mu = p^k a + b
with 0 <= b_i < p^k and read the gap and both exponents off one of four
mutually exclusive cases (C/D for |a| even, E/F for |a| odd).  Unbalanced
multiplicities short-circuit: gap = 2 max(mu) - |mu|.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .derivmod import Multiplicity, as_multiplicity
from .fpcore import DEGREE_GUARD, GuardError

log = logging.getLogger(__name__)

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
    axis: int | None  # distinguished index i (0-based) for cases C and E
    alpha: Multiplicity  # mu = p^k * alpha + beta, 0 <= beta_i < p^k
    beta: Multiplicity


@dataclass(frozen=True)
class ExponentReport:
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


@dataclass(frozen=True)
class CenterSet:
    """All component centers of radius p^k inside a bounding box."""

    p: int
    k: int
    box: Multiplicity
    centers: list[Multiplicity]

    @property
    def radius(self) -> int:
        return self.p**self.k


def is_balanced(mu) -> bool:
    """max(mu) <= |mu| / 2."""
    mu = as_multiplicity(mu)
    return 2 * mu.max_part <= mu.total


def unbalanced_exponents(mu, p: int) -> ExponentReport:
    """Gap 2*max - |mu| with exponents (|mu| - max, max); rejects balanced mu."""
    mu = as_multiplicity(mu)
    if is_balanced(mu):
        raise ValueError(f"{tuple(mu)} is balanced")
    top = mu.max_part
    return ExponentReport(
        mu=mu,
        p=p,
        delta=2 * top - mu.total,
        exponents=(mu.total - top, top),
        tag="Unbalanced",
    )


def decompose(mu, p: int, k: int) -> tuple[Multiplicity, Multiplicity]:
    """Componentwise Euclidean division mu = p^k * alpha + beta, 0 <= beta_i < p^k."""
    mu = as_multiplicity(mu)
    if k < 1:
        raise ValueError("decompose requires k >= 1")
    q = p**k
    alpha = Multiplicity(*(c // q for c in mu))
    beta = Multiplicity(*(c % q for c in mu))
    return alpha, beta


def ball_center(mu, p: int, k: int) -> BallHit | None:
    """Locate the radius-p^k ball around p^k*(odd-sum lattice) containing mu.

    Returns None when mu lies in no such ball.  The center is unique:
    distinct odd-sum points are >= 2 apart in the 1-norm, so the scaled
    open balls are disjoint.  Comparisons of halves are done as doubled
    integers to keep everything exact.
    """
    mu = as_multiplicity(mu)
    if k < 1:
        raise ValueError("ball_center requires k >= 1")
    q = p**k
    alpha, beta = decompose(mu, p, k)
    btot = beta.total
    if alpha.total % 2 == 0:
        for i in range(3):
            if 2 * beta[i] > btot:
                center = Multiplicity(
                    *(q * (a + (1 if t == i else 0)) for t, a in enumerate(alpha))
                )
                return BallHit(center, "C", i, alpha, beta)
        if btot > 2 * q:
            center = Multiplicity(*(q * (a + 1) for a in alpha))
            return BallHit(center, "D", None, alpha, beta)
    else:
        ctot = 3 * q - btot  # |p^k*(1,1,1) - beta|
        for i in range(3):
            if 2 * (q - beta[i]) > ctot:
                center = Multiplicity(
                    *(q * (a + (0 if t == i else 1)) for t, a in enumerate(alpha))
                )
                return BallHit(center, "E", i, alpha, beta)
        if ctot > 2 * q:
            center = Multiplicity(*(q * a for a in alpha))
            return BallHit(center, "F", None, alpha, beta)
    return None


def _walk(mu: Multiplicity, p: int) -> tuple[int, BallHit | None]:
    """The one scale walk: the last m with 2 p^m <= |mu| whose ball has a
    balanced center, and that ball; (0, None) when there is none."""
    k, best = 0, None
    m = 1
    while 2 * p**m <= mu.total:
        hit = ball_center(mu, p, m)
        if hit is not None:
            if is_balanced(hit.center):
                k, best = m, hit
            else:
                filter_stats["unbalanced_center_rejections"] += 1
                log.debug(
                    "scale %d rejected for %s: center %s is unbalanced",
                    m,
                    tuple(mu),
                    tuple(hit.center),
                )
        m += 1
    return k, best


def compute_k(mu, p: int) -> int:
    """Largest scale m with 2 p^m <= |mu| whose ball (with balanced center)
    contains mu; 0 when there is none.  Rejects unbalanced input."""
    mu = as_multiplicity(mu)
    if not is_balanced(mu):
        raise ValueError(f"{tuple(mu)} is unbalanced")
    return _walk(mu, p)[0]


_CASE_TAG = {"C": "CaseC", "D": "CaseD", "E": "CaseE", "F": "CaseF"}


def fast_exponents(mu, p: int) -> ExponentReport:
    """Exponent gap and pair for any mu, by the closed-form case analysis."""
    mu = as_multiplicity(mu)
    if not is_balanced(mu):
        return unbalanced_exponents(mu, p)
    total = mu.total
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
    q = p**k
    alpha, beta = hit.alpha, hit.beta
    atot, btot = alpha.total, beta.total
    if hit.case == "C":
        i = hit.axis
        rest = btot - beta[i]
        delta = beta[i] - rest
        exponents = (atot // 2 * q + rest, atot // 2 * q + beta[i])
    elif hit.case == "D":
        delta = btot - 2 * q
        exponents = (atot // 2 * q + q, atot // 2 * q + btot - q)
    elif hit.case == "E":
        i = hit.axis
        rest = btot - beta[i]
        delta = rest - beta[i] - q
        exponents = ((atot + 1) // 2 * q + beta[i], (atot - 1) // 2 * q + rest)
    else:  # "F"
        delta = q - btot
        exponents = ((atot - 1) // 2 * q + btot, (atot + 1) // 2 * q)
    return ExponentReport(
        mu=mu,
        p=p,
        delta=delta,
        exponents=exponents,
        tag=_CASE_TAG[hit.case],
        k=k,
        center=hit.center,
        alpha=alpha,
        beta=beta,
    )


def delta_zero(mu, p: int) -> bool:
    """Whether the exponent gap vanishes, decided without the case formulas.

    Independent cross-check route: balanced, even total, and no qualifying
    ball at any scale m >= 1.
    """
    mu = as_multiplicity(mu)
    if not is_balanced(mu) or mu.total % 2:
        return False
    m = 1
    while 2 * p**m <= mu.total:
        hit = ball_center(mu, p, m)
        if hit is not None and is_balanced(hit.center):
            return False
        m += 1
    return True


def enumerate_centers(p: int, k: int, box) -> CenterSet:
    """All radius-p^k component centers within the box (componentwise).

    A center of radius p^k is a point of p^k*(balanced odd lattice) not
    contained in any radius-p^m ball around p^m*(balanced odd lattice) for
    m > k, i.e. one whose scale walk ends at k: zeta = p^k*nu is its own
    case-F center at scale k, and the walk's bound 2 p^m <= |zeta| loses no
    scale because such a ball holds only points of total above 2 p^m.  A box
    with more than CENTER_CANDIDATE_GUARD points p^k * nu raises GuardError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    # p >= 2, so k > 32 already exceeds the guard; no box admits such a ball
    if k > 32 or p**k > DEGREE_GUARD:
        raise GuardError(f"radius {p}^{k} exceeds the desk-scale guard")
    box = as_multiplicity(box)
    q = p**k
    if (box.mu1 // q + 1) * (box.mu2 // q + 1) * (box.mu3 // q + 1) > CENTER_CANDIDATE_GUARD:
        raise GuardError(f"box {tuple(box)} exceeds the {CENTER_CANDIDATE_GUARD}-candidate guard")
    centers = []
    for n1 in range(0, box.mu1 // q + 1):
        for n2 in range(0, box.mu2 // q + 1):
            for n3 in range(0, box.mu3 // q + 1):
                nu = Multiplicity(n1, n2, n3)
                if nu.total % 2 == 0 or not is_balanced(nu):
                    continue
                zeta = nu.scaled(q)
                if compute_k(zeta, p) == k:
                    centers.append(zeta)
    centers.sort()
    return CenterSet(p=p, k=k, box=box, centers=centers)
