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
(mu -> (p^d - m1, p^d - m2, m3)).  plan_basis composes inverse transport
steps until it can seed a binomial pair (falling back to the brute-force
solver), then replays the steps forward, certifying each hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    saito_check,
)
from .fpcore import binom_mod_p, g_set
from .homopoly import HomoPoly
from .oracle import oracle_exponents


class NotInGammaError(ValueError):
    """The binomial pair is not a basis for this multiplicity."""


@dataclass(frozen=True)
class TransformStep:
    """One basis-transport step, as replayed in the forward direction."""

    kind: str  # FrobeniusLift | PeriodShift | Dual
    param: int  # q for FrobeniusLift, d for the others
    inverse: bool = False

    def __str__(self):
        arrow = "~" if self.inverse else ""
        return f"{arrow}{self.kind}({self.param})"


@dataclass(frozen=True)
class GammaSlice:
    """The binomial-basis region at fixed third coordinate m."""

    m: int
    p: int
    maximal_elements: list[Multiplicity]
    minimal_complement: list[Multiplicity]


def gamma_membership(mu, p: int) -> bool:
    """Whether the binomial pair is a basis at mu (third coordinate = m).

    Holds iff C(m, j) = 0 mod p for all integers m - m2 < j < m1.
    """
    mu = as_multiplicity(mu)
    m = mu.mu3
    lo = max(0, m - mu.mu2 + 1)
    return all(binom_mod_p(m, j, p) == 0 for j in range(lo, mu.mu1))


def psi_fields(mu, p: int) -> tuple[VectorField, VectorField]:
    """The binomial pair (psi, psi_alt) for mu, without certification."""
    mu = as_multiplicity(mu)
    m = mu.mu3
    f = [0] * (m + 1)
    g = [0] * (m + 1)
    for j in range(m + 1):
        c = binom_mod_p(m, j, p)
        if j >= mu.mu1:
            f[j] = c
        else:
            g[j] = c
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
    gs = g_set(m, p)
    t = len(gs) - 1
    return [Multiplicity(gs[i] + 1, gs[t - i] + 1, m) for i in range(t + 1)]


def s_set(m: int, p: int) -> list[Multiplicity]:
    """Maximal elements of the binomial-basis region at level m."""
    if m < 1:
        raise ValueError("s_set requires m >= 1")
    gs = g_set(m, p)
    t = len(gs) - 1
    return [Multiplicity(gs[i], gs[t - i + 1], m) for i in range(1, t + 1)]


def gamma_slice(m: int, p: int) -> GammaSlice:
    return GammaSlice(m=m, p=p, maximal_elements=s_set(m, p),
                      minimal_complement=b_set(m, p))


# -- certified transports ----------------------------------------------------


def frobenius_lift(pair: BasisPair, mu, q: int) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu to one for q*mu via the q-th power Frobenius."""
    mu = as_multiplicity(mu)
    p = pair.low.p
    t = int(q)
    while t > 1 and t % p == 0:
        t //= p
    if t != 1 or q < p:
        raise ValueError(f"q must be a positive power of {p} with q >= {p}")
    target = mu.scaled(q)
    return _certified_pair(pair.low.frobenius(q), pair.high.frobenius(q), target), target


def _shift_field(theta: VectorField, e: int) -> VectorField:
    """theta(x) x^e dx - theta(y) y^e dy."""
    return VectorField(theta.f.times_x_power(e), (-theta.g).times_y_power(e))


def _unshift_field(theta: VectorField, e: int) -> VectorField:
    return VectorField(theta.f.div_x_power(e), (-theta.g).div_y_power(e))


def period_shift(
    pair: BasisPair, mu, d: int, inverse: bool = False
) -> tuple[BasisPair, Multiplicity]:
    """Transport a basis for mu to one for mu +/- (p^d, p^d, 0).

    The forward image is theorem-guaranteed when m3 <= p^d; outside that
    range the transform is still attempted and the Saito certificate
    decides, raising CertificationError when the image is not a basis.
    """
    mu = as_multiplicity(mu)
    if d < 1:
        raise ValueError("period_shift requires d >= 1")
    e = pair.low.p**d
    if inverse:
        if mu.mu1 < e or mu.mu2 < e:
            raise ValueError(f"cannot shift {tuple(mu)} down by {e}")
        target = Multiplicity(mu.mu1 - e, mu.mu2 - e, mu.mu3)
        fields = (_unshift_field(pair.low, e), _unshift_field(pair.high, e))
    else:
        target = Multiplicity(mu.mu1 + e, mu.mu2 + e, mu.mu3)
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
    e = pair.low.p**d
    if max(mu) > e:
        raise ValueError(f"{tuple(mu)} is not inside the cube of side {e}")
    target = Multiplicity(e - mu.mu1, e - mu.mu2, mu.mu3)
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


def _min_power_at_least(p: int, n: int) -> int:
    d = 1
    while p**d < n:
        d += 1
    return d


def plan_basis(mu, p: int) -> tuple[BasisPair, list[TransformStep]]:
    """Certified basis for any mu, preferring transported binomial pairs.

    Planning walks mu downward: direct binomial seed when available, else
    divide out a common factor p (inverse Frobenius), else shift down by
    the largest theorem-safe p^d (m3 <= p^d <= min(m1, m2)), else reflect
    through the smallest enclosing cube if that lands in the binomial
    region, else seed from the brute-force solver.  Shifts outside the
    theorem range are never planned: the shifted image of the monomial
    pair element has (x+y)-order exactly p^d, so such a hop cannot
    certify.  The recorded steps are replayed forward with a Saito
    certificate at every hop; a failed hop (a bug by construction) falls
    back to the brute-force solver at the original mu.
    """
    mu = as_multiplicity(mu)
    original = mu
    steps: list[TransformStep] = []  # recorded while planning downward
    pre_trace: list[TransformStep] = []  # dual applied eagerly at the seed
    seed: BasisPair | None = None
    while True:
        if gamma_membership(mu, p):
            seed = psi_basis(mu, p)
            break
        if mu.total > 0 and all(c % p == 0 for c in mu):
            steps.append(TransformStep("FrobeniusLift", p))
            mu = Multiplicity(mu.mu1 // p, mu.mu2 // p, mu.mu3 // p)
            continue
        shifted = False
        if min(mu.mu1, mu.mu2) >= p:
            d = 1
            while p ** (d + 1) <= min(mu.mu1, mu.mu2):
                d += 1
            while d >= 1:
                e = p**d
                if mu.mu3 <= e:
                    steps.append(TransformStep("PeriodShift", d))
                    mu = Multiplicity(mu.mu1 - e, mu.mu2 - e, mu.mu3)
                    shifted = True
                    break
                d -= 1
        if shifted:
            continue
        d = _min_power_at_least(p, max(mu)) if max(mu) else 1
        nu = dual_multiplicity(mu, p, d)
        if gamma_membership(nu, p):
            seed = dual_basis(psi_basis(nu, p), nu, d)[0]
            pre_trace = [TransformStep("Dual", d)]
            break
        _, _, seed = oracle_exponents(mu, p)
        break

    try:
        pair = seed
        for step in reversed(steps):
            if step.kind == "FrobeniusLift":
                pair, mu = frobenius_lift(pair, mu, step.param)
            else:
                pair, mu = period_shift(pair, mu, step.param)
        trace = pre_trace + list(reversed(steps))
    except CertificationError:
        _, _, pair = oracle_exponents(original, p)
        mu, trace = original, []

    if mu != original or not saito_check(pair.low, pair.high, original):
        raise CertificationError(f"planner lost certification for {tuple(original)}")
    return _normalized(pair), trace
