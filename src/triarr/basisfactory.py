"""Explicit bases: binomial pairs, their validity region, and basis transport.

For mu = (m1, m2, m) the binomial pair is

    psi      = sum_{j >= m1} C(m, j) x^j y^(m-j) dx
               + sum_{j < m1} C(m, j) x^j y^(m-j) dy          (degree m)
    psi_alt  = x^m1 y^m2 (dy - dx)                            (degree m1+m2)

psi always satisfies the x- and (x+y)-conditions and the pair's determinant
is exactly x^m1 y^m2 (x+y)^m, so the pair is a basis precisely when y^m2
divides the dy-part: equivalently C(m, j) = 0 mod p for every j strictly
between m - m2 and m1.  The set of such mu at fixed third coordinate m is a
lower set; its maximal elements (s_set) and the minimal elements of the
complement (b_set) are read off the digit-dominance set G_m.

Three certified transports move bases around the lattice: the q-th power
Frobenius (mu -> q mu), the shift theta -> theta(x) x^(p^d) dx -
theta(y) y^(p^d) dy (mu -> mu + (p^d, p^d, 0), guaranteed when m3 <= p^d),
and the reflection theta -> dual inside the cube of side p^d
(mu -> (p^d - m1, p^d - m2, m3)).  plan_basis recurses on the preimage of
the first transport that applies until it can seed a binomial pair (falling
back to the lattice solver), then applies each transport on the way
back up, certifying every hop.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    basis_guard,
    saito_check,
)
from .fpcore import GuardError, g_set, least_dominated
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
    mu = as_multiplicity(mu)
    j = least_dominated(mu.mu3, mu.mu3 - mu.mu2 + 1, p)
    return j is None or j >= mu.mu1


def psi_fields(mu, p: int) -> tuple[VectorField, VectorField]:
    """The binomial pair (psi, psi_alt) for mu, without certification."""
    mu = basis_guard(as_multiplicity(mu))
    m = mu.mu3
    row = binomial_row(m, p, m + 1)
    k = min(mu.mu1, m + 1)  # terms x^j y^(m-j) with j < m1 go to dy
    f, g = [0] * k + row[k:], row[:k] + [0] * (m + 1 - k)
    psi = VectorField(HomoPoly(p, f), HomoPoly(p, g))
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


def _certified_pair(t1: VectorField, t2: VectorField, mu) -> BasisPair:
    if (t1.degree or 0) > (t2.degree or 0):
        t1, t2 = t2, t1
    if not saito_check(t1, t2, mu):
        raise CertificationError(f"pair failed certification for {tuple(mu)}")
    return _normalized(BasisPair(t1, t2, certified=True))


def psi_basis(mu, p: int) -> BasisPair:
    """Certified binomial basis; exponents are {m, m1+m2}.

    The pair is sorted by degree, so the low element is psi_alt whenever
    m1 + m2 < m.  Raises NotInGammaError outside the validity region.
    """
    mu = as_multiplicity(mu)
    if not gamma_membership(mu, p):
        raise NotInGammaError(f"binomial pair is not a basis at {tuple(mu)}")
    psi, psi_alt = psi_fields(mu, p)
    if mu.mu1 + mu.mu2 < mu.mu3:
        return _certified_pair(psi_alt, psi, mu)
    return _certified_pair(psi, psi_alt, mu)


def b_set(m: int, p: int) -> list[Multiplicity]:
    """Minimal elements outside the binomial-basis region at level m.

    These are (g+1, g'+1, m) for complementary pairs g + g' = m in the
    digit-dominance set; each has m1 + m2 = m + 2 and exponent gap 0.
    """
    if m < 1:
        raise ValueError("b_set requires m >= 1")
    return gamma_slice(m, p).minimal_complement


def s_set(m: int, p: int) -> list[Multiplicity]:
    """Maximal elements of the binomial-basis region at level m."""
    if m < 1:
        raise ValueError("s_set requires m >= 1")
    return gamma_slice(m, p).maximal_elements


def gamma_slice(m: int, p: int) -> GammaSlice:
    """S_m and B_m, both read off one G_m.

    With G_m = g_0 < ... < g_t (so g_i + g_(t-i) = m), the maximal elements
    are (g_i, g_(t-i+1), m) for 1 <= i <= t and the minimal complement is
    (g_i + 1, g_(t-i) + 1, m) for 0 <= i <= t.
    """
    if m < 1:
        raise ValueError("gamma_slice requires m >= 1")
    gs = g_set(m, p)
    t = len(gs) - 1
    return GammaSlice(
        m, p,
        [Multiplicity(gs[i], gs[t - i + 1], m) for i in range(1, t + 1)],
        [Multiplicity(gs[i] + 1, gs[t - i] + 1, m) for i in range(t + 1)],
        gs,
    )


# -- certified transports ----------------------------------------------------


def frobenius_lift(pair: BasisPair, mu, q: int) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu to one for q*mu via the q-th power Frobenius."""
    mu = as_multiplicity(mu)
    p = pair.low.p
    if q < p:  # frobenius_scale rejects every q that is not a power of p
        raise ValueError(f"q must be a positive power of {p} with q >= {p}")
    target = basis_guard(mu.scaled(q))
    return _certified_pair(pair.low.frobenius(q), pair.high.frobenius(q), target), target


def _shift_field(theta: VectorField, e: int) -> VectorField:
    """theta(x) x^e dx - theta(y) y^e dy."""
    return VectorField(theta.f.times_x_power(e), (-theta.g).times_y_power(e))


def period_shift(pair: BasisPair, mu, d: int) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu to one for mu + (p^d, p^d, 0).

    The image is theorem-guaranteed when m3 <= p^d; outside that range the
    transform is still attempted and the Saito certificate decides, raising
    CertificationError when the image is not a basis.
    """
    mu = as_multiplicity(mu)
    if d < 1:
        raise ValueError("period_shift requires d >= 1")
    e = pair.low.p**d
    target = basis_guard(Multiplicity(mu.mu1 + e, mu.mu2 + e, mu.mu3))
    fields = (_shift_field(pair.low, e), _shift_field(pair.high, e))
    return _certified_pair(*fields, target), target


def _dual_field(theta: VectorField, mu: Multiplicity, e: int) -> VectorField:
    """Cofactor reflection: f x^m1 dx + g y^m2 dy -> g x^(e-m1) dx - f y^(e-m2) dy."""
    fhat = theta.f.div_x_power(mu.mu1)
    ghat = theta.g.div_y_power(mu.mu2)
    return VectorField(
        ghat.times_x_power(e - mu.mu1), (-fhat).times_y_power(e - mu.mu2)
    )


def dual_basis(pair: BasisPair, mu, d: int) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu to one for (p^d - m1, p^d - m2, m3).

    Requires mu inside the closed cube of side p^d.  Applying the map twice
    returns the original pair up to sign.
    """
    mu = as_multiplicity(mu)
    if d < 1:
        raise ValueError("dual_basis requires d >= 1")
    target = basis_guard(dual_multiplicity(mu, pair.low.p, d))
    e = pair.low.p**d
    fields = (_dual_field(pair.low, mu, e), _dual_field(pair.high, mu, e))
    return _certified_pair(*fields, target), target


def dual_multiplicity(mu, p: int, d: int) -> Multiplicity:
    """(p^d - m1, p^d - m2, m3); requires mu inside the cube of side p^d."""
    mu = as_multiplicity(mu)
    e = p**d
    if max(mu) > e:
        raise ValueError(f"{tuple(mu)} is not inside the cube of side {e}")
    return Multiplicity(e - mu.mu1, e - mu.mu2, mu.mu3)


# -- the planner --------------------------------------------------------------


def _plan(mu: Multiplicity, p: int) -> tuple[BasisPair, list[TransformStep]]:
    """plan_basis without its fallback: a failed hop raises CertificationError."""
    if gamma_membership(mu, p):
        return psi_basis(mu, p), []
    if mu.total > 0 and all(c % p == 0 for c in mu):
        pre = Multiplicity(mu.mu1 // p, mu.mu2 // p, mu.mu3 // p)
        pair, trace = _plan(pre, p)
        trace.append(TransformStep("FrobeniusLift", p))
        return frobenius_lift(pair, pre, p)[0], trace
    d = 1
    while p ** (d + 1) <= min(mu.mu1, mu.mu2):
        d += 1
    e = p**d
    if mu.mu3 <= e <= min(mu.mu1, mu.mu2):
        pre = Multiplicity(mu.mu1 - e, mu.mu2 - e, mu.mu3)
        pair, trace = _plan(pre, p)
        trace.append(TransformStep("PeriodShift", d))
        return period_shift(pair, pre, d)[0], trace
    d = 1
    while p**d < max(mu):
        d += 1
    nu = dual_multiplicity(mu, p, d)
    if gamma_membership(nu, p):
        return dual_basis(psi_basis(nu, p), nu, d)[0], [TransformStep("Dual", d)]
    return oracle_exponents(mu, p)[2], []


def plan_basis(mu, p: int) -> tuple[BasisPair, list[TransformStep]]:
    """Certified basis for any mu, preferring transported binomial pairs.

    The first rule that applies decides: the binomial seed when mu is in
    the binomial region; else the Frobenius lift of the plan for mu/p when
    p divides every coordinate; else the period shift of the plan for
    mu - (p^d, p^d, 0) with the largest theorem-safe d (m3 <= p^d <=
    min(m1, m2)); else the reflection through the smallest enclosing cube
    if that lands in the binomial region; else the lattice solver.
    Shifts outside the theorem range are never planned: the shifted image
    of the monomial pair element has (x+y)-order exactly p^d, so such a hop
    cannot certify.  Every hop carries a Saito certificate and the trace
    lists the hops in the order they were applied; the last hop's
    certificate is made at mu itself, so the returned pair is not checked
    again.  A failed hop (a bug by
    construction) anywhere in the recursion falls back to the lattice
    solver at the original mu, with an empty trace.  A plan too long for
    the interpreter's recursion limit (only possible for p above about 200,
    where one level can take p - 1 shifts) raises GuardError.
    """
    mu = as_multiplicity(mu)
    try:
        pair, trace = _plan(mu, p)
    except RecursionError:
        # ~1000 hops; certifying them at such |mu| would take tens of minutes
        raise GuardError(f"plan for {tuple(mu)} exceeds the recursion limit") from None
    except CertificationError:
        _, _, pair = oracle_exponents(mu, p)
        trace = []
    return _normalized(pair), trace
