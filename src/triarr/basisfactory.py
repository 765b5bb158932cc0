"""Explicit bases: binomial pairs, their validity region, and basis transport.

For mu = (m1, m2, m) the binomial pair is

    psi      = sum_{j >= m1} C(m, j) x^j y^(m-j) dx
               + sum_{j < m1} C(m, j) x^j y^(m-j) dy          (degree m)
    psi_alt  = x^m1 y^m2 (dy - dx)                            (degree m1+m2)

psi always satisfies the x- and (x+y)-conditions and the pair's determinant
is exactly x^m1 y^m2 (x+y)^m, so the pair is a basis precisely when y^m2
divides the dy-part: equivalently C(m, j) = 0 mod p for every j strictly
between m - m2 and m1.  The set of such mu at fixed third coordinate m is a
lower set; gamma_slice reads its maximal elements and the minimal elements
of the complement off the digit-dominance set G_m.

transport moves a certified basis along one of three lattice symmetries:
the q-th power Frobenius (mu -> q mu), the shift theta -> theta(x) x^(p^d) dx
- theta(y) y^(p^d) dy (mu -> mu + (p^d, p^d, 0), guaranteed when m3 <= p^d),
and the reflection theta -> dual inside the cube of side p^d
(mu -> (p^d - m1, p^d - m2, m3)).  plan_basis walks mu down by the first
symmetry that applies until it can seed a binomial pair (or falls back to
the lattice solver), moves the seed back up one map per run of equal hops,
and certifies the pair it emits once, at mu.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    basis_guard,
    certify,
)
from .fpcore import DEGREE_GUARD, GuardError, Prime, g_set, guarded_power, least_dominated
from .homopoly import HomoPoly, binomial_row
from .oracle import oracle_exponents


class NotInGammaError(ValueError):
    """The binomial pair is not a basis for this multiplicity."""


class TransformStep(NamedTuple):
    """One basis-transport step, in the order the planner applies it."""

    kind: str  # FrobeniusLift | PeriodShift | Dual
    param: int  # q for FrobeniusLift, d for the others

    def __str__(self):
        return f"{self.kind}({self.param})"


class GammaSlice(NamedTuple):
    """The binomial-basis region at fixed third coordinate m, and G_m."""

    m: int
    p: int
    maximal_elements: list[Multiplicity]
    minimal_complement: list[Multiplicity]
    g_set: list[int]


def gamma_membership(mu, p: int) -> bool:
    """Whether the binomial pair is a basis at mu (third coordinate = m).

    Holds iff C(m, j) = 0 mod p for all integers m - m2 < j < m1, i.e. iff
    the least j > m - m2 with C(m, j) nonzero is at least m1 or absent.
    """
    mu, p = as_multiplicity(mu), Prime(p)
    j = least_dominated(mu.mu3, mu.mu3 - mu.mu2 + 1, p)
    return j is None or j >= mu.mu1


def psi_fields(mu, p: int) -> tuple[VectorField, VectorField]:
    """The binomial pair (psi, psi_alt) for mu, without certification."""
    mu, p = basis_guard(as_multiplicity(mu)), Prime(p)
    m = mu.mu3
    row = tuple(binomial_row(m, p, m + 1))
    k = min(mu.mu1, m + 1)  # terms x^j y^(m-j) with j < m1 go to dy
    f, g = (0,) * k + row[k:], row[:k] + (0,) * (m + 1 - k)
    psi = VectorField(*(HomoPoly._canonical(p, h if any(h) else ()) for h in (f, g)))
    mono = HomoPoly.monomial(p, mu.mu1, mu.mu2)
    psi_alt = VectorField(-mono, mono)
    return psi, psi_alt


def _normalized(pair: BasisPair) -> BasisPair:
    """Rescale the low element so its highest-x nonzero coefficient is 1."""
    low = pair.low
    comp = low.f if not low.f.is_zero else low.g
    lead = next(comp.coeffs[i] for i in range(comp.degree, -1, -1) if comp.coeffs[i])
    if lead != 1:
        low = low.scale(pow(lead, comp.p - 2, comp.p))
    return BasisPair(low, pair.high, certified=pair.certified)


def psi_basis(mu, p: int) -> BasisPair:
    """Certified binomial basis; exponents are {m, m1+m2}.

    The pair is sorted by degree, so the low element is psi_alt whenever
    m1 + m2 < m.  Raises NotInGammaError outside the validity region.
    """
    mu, p = as_multiplicity(mu), Prime(p)
    if not gamma_membership(mu, p):
        raise NotInGammaError(f"binomial pair is not a basis at {tuple(mu)}")
    return _normalized(certify(*psi_fields(mu, p), mu))


def gamma_slice(m: int, p: int) -> GammaSlice:
    """S_m and B_m, the region's maximal members and minimal non-members at level m, from one G_m.

    With G_m = g_0 < ... < g_t (so g_i + g_(t-i) = m), the maximal elements
    are (g_i, g_(t-i+1), m) for 1 <= i <= t and the minimal complement is
    (g_i + 1, g_(t-i) + 1, m) for 0 <= i <= t; each of the latter has
    m1 + m2 = m + 2 and exponent gap 0.  A level whose points would pass
    the |mu| cap of 2^32 raises GuardError.
    """
    if m < 1:
        raise ValueError("gamma_slice requires m >= 1")
    if 2 * m + 2 > DEGREE_GUARD:  # |mu| of every minimal non-member
        raise GuardError(f"|mu| = {2 * m + 2} at level {m} exceeds the desk-scale guard")
    gs = g_set(m, p)
    top = 2 * m + max(b - a for a, b in zip(gs, gs[1:]))  # largest maximal-member |mu|
    if top > DEGREE_GUARD:
        raise GuardError(f"|mu| = {top} at level {m} exceeds the desk-scale guard")
    t = len(gs) - 1
    return GammaSlice(
        m, p,
        [Multiplicity(gs[i], gs[t - i + 1], m) for i in range(1, t + 1)],
        [Multiplicity(gs[i] + 1, gs[t - i] + 1, m) for i in range(t + 1)],
        gs,
    )


# -- certified transports ----------------------------------------------------


def _hop(fields, mu: Multiplicity, step: TransformStep, n: int = 1):
    """Fields of a basis for mu moved by n equal hops, and their multiplicity,
    which is guarded before any field moves.  n lifts by q are one lift by q^n;
    n shifts by e = p^d map theta to theta(x) x^(ne) dx + (-1)^n theta(y) y^(ne) dy;
    the reflection maps f x^m1 dx + g y^m2 dy to g x^(e-m1) dx - f y^(e-m2) dy.
    Each map is F_p-linear and adds one degree to both fields: pairs keep order."""
    p, (m1, m2, m3) = fields[0].p, mu
    if step.kind == "FrobeniusLift":
        q = step.param**n
        target, move = mu.scaled(q), lambda t: t.frobenius(q)
    elif step.kind == "PeriodShift":
        s = n * guarded_power(p, step.param, "shift")
        target = Multiplicity(m1 + s, m2 + s, m3)
        move = lambda t: VectorField(
            t.f.times_monomial(s, 0), (-t.g if n % 2 else t.g).times_monomial(0, s)
        )
    else:
        e = guarded_power(p, step.param, "cube side")
        target = dual_multiplicity(mu, p, step.param)
        move = lambda t: VectorField(
            t.g.times_monomial(e - m1, -m2), (-t.f).times_monomial(-m1, e - m2)
        )
    basis_guard(target)
    return [move(t) for t in fields], target


def transport(pair: BasisPair, mu, step: TransformStep) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu along one lattice symmetry, certified at the image.

    FrobeniusLift(q) maps mu to q*mu by the q-th power Frobenius, q a power
    of p with q >= p.  PeriodShift(d) maps mu to mu + (p^d, p^d, 0); the
    image is theorem-guaranteed when m3 <= p^d, and outside that range the
    Saito certificate decides, raising CertificationError.  Dual(d) maps mu
    inside the closed cube of side p^d to (p^d - m1, p^d - m2, m3); applied
    twice it returns the original pair up to sign.  d >= 1 for both.
    """
    p = pair.low.p
    least = {"FrobeniusLift": p, "PeriodShift": 1, "Dual": 1}.get(step.kind)
    if least is None or step.param < least:  # frobenius_scale rejects q not a power of p
        raise ValueError(f"{step} is not a transport: FrobeniusLift needs q >= {p}, others d >= 1")
    fields, target = _hop(pair[:2], as_multiplicity(mu), step)
    return _normalized(certify(*fields, target)), target


def dual_multiplicity(mu, p: int, d: int) -> Multiplicity:
    """(p^d - m1, p^d - m2, m3); requires mu inside the cube of side p^d <= 2^32."""
    mu, p = as_multiplicity(mu), Prime(p)
    e = guarded_power(p, d, "cube side")
    if max(mu) > e:
        raise ValueError(f"{tuple(mu)} is not inside the cube of side {e}")
    return Multiplicity(e - mu.mu1, e - mu.mu2, mu.mu3)


# -- the planner --------------------------------------------------------------


def _walk(mu: Multiplicity, p: int) -> tuple[Multiplicity, bool, list[TransformStep]]:
    """Walk mu down by plan_basis's rules: the seed, whether the binomial
    pair seeds it, and the hops from the seed up to mu in the order applied."""
    hops = []
    while not gamma_membership(mu, p):
        if mu.total > 0 and all(c % p == 0 for c in mu):
            hops.append(TransformStep("FrobeniusLift", p))
            mu = Multiplicity(mu.mu1 // p, mu.mu2 // p, mu.mu3 // p)
            continue
        d = 1
        while p ** (d + 1) <= min(mu.mu1, mu.mu2):
            d += 1
        e = p**d
        if mu.mu3 <= e <= min(mu.mu1, mu.mu2):
            hops.append(TransformStep("PeriodShift", d))
            mu = Multiplicity(mu.mu1 - e, mu.mu2 - e, mu.mu3)
            continue
        d = 1
        while p**d < max(mu):
            d += 1
        nu = dual_multiplicity(mu, p, d)
        if not gamma_membership(nu, p):
            return mu, False, hops[::-1]
        hops.append(TransformStep("Dual", d))
        mu = nu
    return mu, True, hops[::-1]


def plan_basis(mu, p: int) -> tuple[BasisPair, list[TransformStep]]:
    """Certified basis for any mu, preferring transported binomial pairs.

    mu is walked down by the first rule that applies: the binomial seed in
    the binomial region; else the Frobenius lift from mu/p when p divides
    every coordinate; else the period shift from mu - (p^d, p^d, 0) with
    the largest theorem-safe d (m3 <= p^d <= min(m1, m2)); else the
    reflection through the smallest enclosing cube if that lands in the
    binomial region; else the lattice solver.  Shifts outside the theorem
    range are never planned: the shifted monomial element has (x+y)-order
    exactly p^d, so such a hop cannot certify.  The seed moves back up one
    map per run of equal hops, and the trace lists every hop in the order
    applied.  Only the emitted pair is certified, at mu; should that fail
    (a bug by construction), the lattice solver answers with an empty
    trace.  A basis beyond the dense-row guard raises GuardError up front.
    """
    mu, p = basis_guard(as_multiplicity(mu)), Prime(p)
    seed, binomial, trace = _walk(mu, p)
    if binomial or trace:  # else the solver's pair at mu is already certified
        fields = psi_fields(seed, p) if binomial else oracle_exponents(seed, p)[2][:2]
        for step, run in groupby(trace):
            fields, seed = _hop(fields, seed, step, len(list(run)))
        try:
            return _normalized(certify(*fields, mu)), trace
        except CertificationError:
            trace = []
    return _normalized(oracle_exponents(mu, p)[2]), trace
