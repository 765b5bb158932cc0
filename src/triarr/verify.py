"""Differential and property sweeps tying the closed form to the oracle.

Every suite is exact (no tolerances) and exhaustive on its box, and every
basis built along the way must carry a Saito certificate.  A suite is a
generator over (p, box, seed) that yields one value per check: None when
the check holds, else the counterexample text; run_suite counts the checks
and failures and keeps the first counterexample.  A box of more than
DENSE_ROW_GUARD points (duality's cube of side p^2 from p = 13 on) is
refused before the suite's first check.  Each suite below, with the
settings it reads and what it checks on its default box:

    differential  box        fast == oracle, on 12^3 (10^3 for p >= 5)
    adjacency     box        |gap(mu) - gap(nu)| = 1 for neighbours, on 8^3
    frobenius     box        gap(p mu) = p gap(mu) and lifts certify, on 6^3
    periodicity   box        gap(mu + (p^d, p^d, 0)) = gap(mu), d <= 3, on 8^3
    duality                  gap(dual) = gap(mu), on cubes of side p and p^2
    gamma                    the binomial-basis region, for m <= 20
    centers       box        the gap profile on every ball, on (4p^2)^3
    saito         box, seed  every construction path certifies, 60 mu in 10^3
    golden                   worked examples, at their own primes
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterator, NamedTuple

from . import basisfactory, fastexp, oracle
from .basisfactory import TransformStep
from .derivmod import Multiplicity, as_multiplicity, dist1, in_module, saito_check
from .fpcore import Prime, binom_mod_p, g_set
from .homopoly import dense_guard

DEFAULT_SEED = 20250810

Checks = Iterator[str | None]


class SuiteResult(NamedTuple):
    """Checks and failures of one suite; p is None for suites whose checks fix
    their own primes."""

    name: str
    p: int | None
    checks: int
    failures: int
    first_counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        label = self.name if self.p is None else f"{self.name} (p={self.p})"
        if self.passed:
            return f"{label}: PASS ({self.checks} checks)"
        first = self.first_counterexample
        return f"{label}: FAIL ({self.checks} checks, {self.failures} failures, first: {first})"


def _box_points(bound) -> Iterator[Multiplicity]:
    """The box 0 <= mu <= bound, last coordinate fastest; a box of more than
    DENSE_ROW_GUARD points raises GuardError when this is called."""
    b = as_multiplicity(bound)
    dense_guard((b.mu1 + 1) * (b.mu2 + 1) * (b.mu3 + 1), f"box {tuple(b)}", "points")
    return map(Multiplicity._make, product(*(range(c + 1) for c in b)))


def _unless(ok: bool, text: str) -> str | None:
    return None if ok else text


# -- differential -------------------------------------------------------------


def _differential(p: int, box, seed: int) -> Checks:
    """fast_exponents == oracle_exponents on the whole box, plus parity and
    delta_zero: the walk's zero-gap answer, made without the center's distance."""
    for mu in _box_points(box or ((10, 10, 10) if p >= 5 else (12, 12, 12))):
        report = fastexp.fast_exponents(mu, p)
        d1, d2, pair = oracle.oracle_exponents(mu, p)
        problem = None
        if report.exponents != (d1, d2) or report.delta != d2 - d1:
            problem = f"fast {report.exponents} vs oracle {(d1, d2)}"
        elif not pair.certified:
            problem = "oracle basis not certified"
        elif fastexp.delta_zero(mu, p) != (report.delta == 0):
            problem = "delta_zero disagrees with fast path"
        elif report.delta % 2 != mu.total % 2:
            problem = "gap parity differs from |mu| parity"
        yield problem and f"mu={tuple(mu)}: {problem}"


# -- lattice symmetries --------------------------------------------------------


def _adjacency(p: int, box, seed: int) -> Checks:
    """|gap(mu) - gap(nu)| = 1 for adjacent mu, nu — oracle values."""
    delta = {mu: oracle.oracle_delta(mu, p) for mu in _box_points(box or (8, 8, 8))}
    for mu, dmu in delta.items():
        for axis in range(3):
            nu = Multiplicity(*(c + (1 if t == axis else 0) for t, c in enumerate(mu)))
            if nu in delta:
                yield _unless(abs(dmu - delta[nu]) == 1, f"mu={tuple(mu)}, nu={tuple(nu)}")


def _fast_gap(mu, p: int) -> int:
    return fastexp.fast_exponents(mu, p).delta


def _transports(p: int, hops, factor: int, gap) -> Checks:
    """One check per (mu, step, image) hop: the pair basisfactory.transport
    moves must certify at the expected image, whose gap by `gap` is factor
    times gap(mu).  The oracle basis at mu is solved once per mu."""
    mu0 = None
    for mu, step, image in hops:
        if mu != mu0:
            mu0, (d1, d2, pair) = mu, oracle.oracle_exponents(mu, p)
        try:
            moved, got = basisfactory.transport(pair, mu, step)
            ok = got == image and moved.certified
        except Exception:  # a transport that raises is a failed check
            ok = False
        ok = ok and gap(image, p) == factor * (d2 - d1)
        param = "q" if step.kind == "FrobeniusLift" else "d"
        yield _unless(ok, f"mu={tuple(mu)}, {param}={step.param}")


def _frobenius(p: int, box, seed: int) -> Checks:
    """gap(p mu) = p gap(mu), and the lifted pair certifies."""
    hops = ((mu, TransformStep("FrobeniusLift", p), mu.scaled(p))
            for mu in _box_points(box or (6, 6, 6)))
    return _transports(p, hops, p, _fast_gap)


def _periodicity(p: int, box, seed: int) -> Checks:
    """gap(mu + (p^d, p^d, 0)) = gap(mu) whenever mu3 <= p^d, for d <= 3."""
    hops = (
        (mu, TransformStep("PeriodShift", d), Multiplicity(mu.mu1 + p**d, mu.mu2 + p**d, mu.mu3))
        for mu in _box_points(box or (8, 8, 8)) for d in (1, 2, 3) if mu.mu3 <= p**d
    )
    return _transports(p, hops, 1, _fast_gap)


def _duality(p: int, box, seed: int) -> Checks:
    """gap(mu-dual) = gap(mu) on the cubes of side p and p^2, read by the
    oracle so that the check stays lattice-only; both cubes are guarded
    before the first check."""
    cubes = [(d, _box_points((p**d,) * 3)) for d in (1, 2)]
    hops = ((mu, TransformStep("Dual", d), basisfactory.dual_multiplicity(mu, p, d))
            for d, cube in cubes for mu in cube)
    return _transports(p, hops, 1, oracle.oracle_delta)


# -- binomial-basis region ------------------------------------------------------


def _gamma(p: int, box, seed: int) -> Checks:
    """Both characterizations of the binomial-basis region against the oracle.

    For every m <= 20 and every (m1, m2) <= m + 2: membership by the
    binomial-vanishing test == (oracle exponents == {m, m1+m2}); the
    minimal complement elements are exactly the gap-0 points on
    m1 + m2 = m + 2; and C(m, j) != 0 iff gap(j+1, m+1-j, m) = 0.
    """
    for m in range(1, 21):
        gs = basisfactory.gamma_slice(m, p)
        bset = {tuple(b) for b in gs.minimal_complement}
        for m1, m2 in product(range(m + 3), repeat=2):
            mu = Multiplicity(m1, m2, m)
            member = basisfactory.gamma_membership(mu, p)
            d1, d2, pair = oracle.oracle_exponents(mu, p)
            expected = tuple(sorted((m, m1 + m2)))
            ok = member == ((d1, d2) == expected) and pair.certified
            yield _unless(ok, f"membership vs oracle at mu={tuple(mu)}")
            if member:
                psi = basisfactory.psi_basis(mu, p)
                ok = psi.certified and tuple(sorted(psi.exponents)) == expected
                yield _unless(ok, f"binomial pair at mu={tuple(mu)}")
            if m1 + m2 == m + 2:
                ok = (tuple(mu) in bset) == (d2 - d1 == 0)
                yield _unless(ok, f"minimal-complement test at mu={tuple(mu)}")
        for kappa in gs.maximal_elements:
            ok = basisfactory.gamma_membership(kappa, p)
            yield _unless(ok, f"maximal element {tuple(kappa)} not a member")
        for j in range(m + 1):
            nonzero = binom_mod_p(m, j, p) != 0
            gap = oracle.oracle_delta(Multiplicity(j + 1, m + 1 - j, m), p)
            yield _unless(nonzero == (gap == 0), f"binomial equivalence at m={m}, j={j}")


# -- center geometry -------------------------------------------------------------


def _ball_problem(p: int, zeta: Multiplicity, radius: int) -> str | None:
    """The first break of the gap profile around zeta in box order, else None."""
    # inside the ball the gap falls off linearly; on the two shells just
    # outside it comes back up, so expect |radius - r| through r = radius+1
    ranges = [range(max(0, c - radius - 1), c + radius + 2) for c in zeta]
    for mu in map(Multiplicity._make, product(*ranges)):
        r = dist1(mu, zeta)
        if r > radius + 1:
            continue
        if oracle.oracle_delta(mu, p) != abs(radius - r):
            return f"zeta={tuple(zeta)}, mu={tuple(mu)}: gap profile broken"
    if radius > 1:
        _, _, pair = oracle.oracle_exponents(zeta, p)
        if any(i % p or j % p for c in (pair.low.f, pair.low.g) for i, j, _ in c.terms()):
            return f"zeta={tuple(zeta)}: low basis not in F[x^p, y^p]"
    return None


def _centers(p: int, box, seed: int) -> Checks:
    """Every enumerated center realizes gap = p^k - |mu - zeta| on its ball,
    its own radius is p^k, and (radius > 1) its low basis lives in F[x^p,y^p].

    Two checks per center: its radius, then its ball profile and support."""
    box = as_multiplicity(box or (4 * p * p,) * 3)
    k = 0
    while p**k <= box.total:
        for zeta in fastexp.enumerate_centers(p, k, box).centers:
            radius = fastexp.fast_exponents(zeta, p).delta
            yield _unless(radius == p**k, f"zeta={tuple(zeta)} radius is not p^{k}")
            yield _ball_problem(p, zeta, radius)
        k += 1


# -- basis certification sample ---------------------------------------------------


def _saito(p: int, box, seed: int) -> Checks:
    """60 random mu: bases from every construction path certify, and random
    module members stay members under addition, scaling and Frobenius."""
    rng = random.Random(seed)
    b = as_multiplicity(box or (10, 10, 10))
    for _ in range(60):
        mu = Multiplicity(*(rng.randint(0, c) for c in b))
        d1, d2, pair = oracle.oracle_exponents(mu, p)
        yield _unless(pair.certified, f"oracle at {tuple(mu)}")
        planned, _ = basisfactory.plan_basis(mu, p)
        ok = saito_check(planned.low, planned.high, mu) and planned.exponents == (d1, d2)
        yield _unless(ok, f"plan at {tuple(mu)}")
        if basisfactory.gamma_membership(mu, p):
            psi = basisfactory.psi_basis(mu, p)
            yield _unless(psi.certified, f"binomial pair at {tuple(mu)}")
        # module closure spot-checks on the certified low element
        theta = pair.low
        c = rng.randrange(1, p) if p > 2 else 1
        ok = in_module(theta.scale(c), mu) and in_module(theta.frobenius(p), mu.scaled(p))
        yield _unless(ok, f"module closure at {tuple(mu)}")


# -- golden fixed points ------------------------------------------------------------


def _golden(p: int, box, seed: int) -> Checks:
    """Spot values fixed by worked examples: exponents, sets, binomial rows."""
    expected_exp = [
        ((41, 52, 31), 3, 8, (58, 66)),
        ((3, 3, 4), 2, 2, (4, 6)),
        ((3, 3, 4), 3, 2, (4, 6)),
        ((3, 3, 4), 5, 0, (5, 5)),
        ((0, 0, 5), 2, 5, (0, 5)),
        ((1, 1, 1), 7, 1, (1, 2)),
    ]
    for mu, q, delta, exp in expected_exp:
        r = fastexp.fast_exponents(mu, q)
        yield _unless((r.delta, r.exponents) == (delta, exp), f"exponents at {mu}, p={q}")
    r = fastexp.fast_exponents((41, 52, 31), 3)
    yield _unless(r.k == 3 and r.center == (54, 54, 27), "component of (41,52,31) at p=3")
    ok = g_set(16, 3) == [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
    yield _unless(ok, "digit-dominance set of 16 at p=3")
    row = [1, 1, 0, 2, 2, 0, 1, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1]
    ok = [binom_mod_p(16, j, 3) for j in range(17)] == row
    yield _unless(ok, "binomial row m=16, p=3")
    gs = basisfactory.gamma_slice(16, 3)
    yield _unless(len(gs.minimal_complement) == 12, "size of b_set(16, 3)")
    yield _unless(len(gs.maximal_elements) == 11, "size of s_set(16, 3)")
    pair = basisfactory.psi_basis((3, 3, 4), 3)
    yield _unless(
        pair.low.to_text() == "(x^4 + x^3*y) dx + (x*y^3 + y^4) dy"
        and pair.high.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx",
        "binomial basis text at (3,3,4), p=3",
    )


# name -> generator of checks over the shared (p, box, seed) settings
SUITES: dict[str, Callable[..., Checks]] = {
    "differential": _differential,
    "adjacency": _adjacency,
    "frobenius": _frobenius,
    "periodicity": _periodicity,
    "duality": _duality,
    "gamma": _gamma,
    "centers": _centers,
    "saito": _saito,
    "golden": _golden,
}


def run_suite(name: str, p: int, box=None, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Run one suite: count its checks and failures, keep the first
    counterexample.  The golden suite fixes its own primes, so it reports no p.
    A suite that makes no check on its box raises ValueError rather than pass."""
    results = list(SUITES[name](Prime(p), box, seed))
    if not results:
        where = "its default box" if box is None else f"box {tuple(box)}"
        raise ValueError(f"suite {name!r} made no check on {where}")
    failures = [r for r in results if r is not None]
    first = failures[0] if failures else None
    return SuiteResult(name, None if name == "golden" else p, len(results), len(failures), first)


def run_suites(names: list[str], p: int, box=None, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run the named suites with shared p/box/seed settings; the names are
    checked, and at least one is required, before any suite runs."""
    if not names:
        raise ValueError(f"no suite named; pick from {sorted(SUITES)}")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    return [run_suite(name, p, box, seed) for name in names]
