"""Differential and property sweeps tying the closed form to the oracle.

Every suite is exhaustive on its box and exact (no tolerances): the
closed-form engine must agree with the lattice solver point for point,
the lattice must show the adjacency / self-similarity / periodicity /
duality symmetries, the binomial-basis region must match its two
characterizations, and every ball around an enumerated center must realize
the predicted gap profile.  Each suite reports the number of checks and the
first counterexample, if any; every basis built along the way must carry a
Saito certificate (a failure is counted, never silently dropped).
"""

from __future__ import annotations

import random
from itertools import product

from . import basisfactory, fastexp, oracle
from .derivmod import (
    Multiplicity,
    as_multiplicity,
    dist1,
    in_module,
    saito_check,
)
from .fpcore import binom_mod_p

DEFAULT_SEED = 20250810


class SuiteResult:
    """Checks and failures of one suite; p is None for suites whose checks fix
    their own primes."""

    __slots__ = ("name", "p", "checks", "failures", "first_counterexample")

    def __init__(self, name: str, p: int | None, checks: int = 0, failures: int = 0,
                 first_counterexample: str | None = None):
        self.name, self.p = name, p
        self.checks, self.failures = checks, failures
        self.first_counterexample = first_counterexample

    def __eq__(self, other):
        if not isinstance(other, SuiteResult):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = describe() if callable(describe) else describe

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if not self.passed:
            extra = f", {self.failures} failures, first: {self.first_counterexample}"
        label = self.name if self.p is None else f"{self.name} (p={self.p})"
        return f"{label}: {status} ({self.checks} checks{extra})"


def _box_points(bound) -> list[Multiplicity]:
    b = as_multiplicity(bound)
    return [
        Multiplicity(a, bb, c)
        for a in range(b.mu1 + 1)
        for bb in range(b.mu2 + 1)
        for c in range(b.mu3 + 1)
    ]


# -- differential -------------------------------------------------------------


def run_differential(p: int, bound=None) -> SuiteResult:
    """fast_exponents == oracle_exponents on the whole box, plus parity and
    the independent zero-gap route."""
    if bound is None:
        bound = (10, 10, 10) if p >= 5 else (12, 12, 12)
    res = SuiteResult("differential", p)
    for mu in _box_points(bound):
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
        res.record(
            problem is None,
            lambda mu=mu, problem=problem: f"mu={tuple(mu)}: {problem}",
        )
    return res


# -- lattice symmetries --------------------------------------------------------


def run_adjacency(p: int, bound=None) -> SuiteResult:
    """|gap(mu) - gap(nu)| = 1 for adjacent mu, nu — oracle values."""
    if bound is None:
        bound = (8, 8, 8)
    res = SuiteResult("adjacency", p)
    b = as_multiplicity(bound)
    delta: dict[Multiplicity, int] = {}
    for mu in _box_points(b):
        delta[mu] = oracle.oracle_delta(mu, p)
    for mu, dmu in delta.items():
        for axis in range(3):
            nu = Multiplicity(*(c + (1 if t == axis else 0) for t, c in enumerate(mu)))
            if nu not in delta:
                continue
            res.record(
                abs(dmu - delta[nu]) == 1,
                lambda mu=mu, nu=nu: f"mu={tuple(mu)}, nu={tuple(nu)}",
            )
    return res


def run_frobenius(p: int, bound=None) -> SuiteResult:
    """gap(p*mu) = p * gap(mu), with the lifted basis certifying at p*mu."""
    if bound is None:
        bound = (6, 6, 6)
    res = SuiteResult("frobenius", p)
    for mu in _box_points(bound):
        d1, d2, pair = oracle.oracle_exponents(mu, p)
        target = mu.scaled(p)
        ok = True
        try:
            lifted, _ = basisfactory.frobenius_lift(pair, mu, p)
            ok = lifted.certified and lifted.exponents == (p * d1, p * d2)
        except Exception:
            ok = False
        ok = ok and fastexp.fast_exponents(target, p).delta == p * (d2 - d1)
        res.record(ok, lambda mu=mu: f"mu={tuple(mu)}")
    return res


def run_periodicity(p: int = 2, bound=None, ds=(1, 2, 3)) -> SuiteResult:
    """gap(mu + (p^d, p^d, 0)) = gap(mu) whenever mu3 <= p^d, bases certify."""
    if bound is None:
        bound = (8, 8, 8)
    res = SuiteResult("periodicity", p)
    for mu in _box_points(bound):
        base = None
        for d in ds:
            e = p**d
            if mu.mu3 > e:
                continue
            if base is None:
                base = oracle.oracle_exponents(mu, p)
            d1, d2, pair = base
            target = Multiplicity(mu.mu1 + e, mu.mu2 + e, mu.mu3)
            ok = True
            try:
                shifted, got = basisfactory.period_shift(pair, mu, d)
                ok = got == target and shifted.certified
            except Exception:
                ok = False
            ok = ok and fastexp.fast_exponents(target, p).delta == d2 - d1
            res.record(ok, lambda mu=mu, d=d: f"mu={tuple(mu)}, d={d}")
    return res


def run_duality(p: int, ds=(1, 2)) -> SuiteResult:
    """gap(mu-dual) = gap(mu) on the cube of side p^d, dual bases certify."""
    res = SuiteResult("duality", p)
    for d in ds:
        e = p**d
        for mu in _box_points((e, e, e)):
            d1, d2, pair = oracle.oracle_exponents(mu, p)
            target = basisfactory.dual_multiplicity(mu, p, d)
            ok = True
            try:
                dual, got = basisfactory.dual_basis(pair, mu, d)
                ok = got == target and dual.certified
            except Exception:
                ok = False
            ok = ok and oracle.oracle_delta(target, p) == d2 - d1
            res.record(ok, lambda mu=mu, d=d: f"mu={tuple(mu)}, d={d}")
    return res


# -- binomial-basis region ------------------------------------------------------


def run_gamma(p: int, max_m: int = 20) -> SuiteResult:
    """Both characterizations of the binomial-basis region against the oracle.

    For every m <= max_m and every (m1, m2) <= m + 2: membership by the
    binomial-vanishing test == (oracle exponents == {m, m1+m2}); the
    minimal complement elements are exactly the gap-0 points on
    m1 + m2 = m + 2; and C(m, j) != 0 iff gap(j+1, m+1-j, m) = 0.
    """
    res = SuiteResult("gamma", p)
    for m in range(1, max_m + 1):
        bset = {tuple(b) for b in basisfactory.b_set(m, p)}
        sset = basisfactory.s_set(m, p)
        for m1, m2 in product(range(m + 3), repeat=2):
            mu = Multiplicity(m1, m2, m)
            member = basisfactory.gamma_membership(mu, p)
            d1, d2, pair = oracle.oracle_exponents(mu, p)
            expected = tuple(sorted((m, m1 + m2)))
            res.record(
                member == ((d1, d2) == expected) and pair.certified,
                lambda mu=mu: f"membership vs oracle at mu={tuple(mu)}",
            )
            if member:
                psi = basisfactory.psi_basis(mu, p)
                res.record(
                    psi.certified and tuple(sorted(psi.exponents)) == expected,
                    lambda mu=mu: f"binomial pair at mu={tuple(mu)}",
                )
            if m1 + m2 == m + 2:
                res.record(
                    (tuple(mu) in bset) == (d2 - d1 == 0),
                    lambda mu=mu: f"minimal-complement test at mu={tuple(mu)}",
                )
        for kappa in sset:
            res.record(
                basisfactory.gamma_membership(kappa, p),
                lambda kappa=kappa: f"maximal element {tuple(kappa)} not a member",
            )
        for j in range(m + 1):
            nonzero = binom_mod_p(m, j, p) != 0
            gap = oracle.oracle_delta(Multiplicity(j + 1, m + 1 - j, m), p)
            res.record(
                nonzero == (gap == 0),
                lambda m=m, j=j: f"binomial equivalence at m={m}, j={j}",
            )
    return res


# -- center geometry -------------------------------------------------------------


def _ball_problem(p: int, zeta: Multiplicity, radius: int) -> str | None:
    """The first break of the gap profile around zeta in box order, else None."""
    # inside the ball the gap falls off linearly; on the two shells just
    # outside it comes back up, so expect |radius - r| through r = radius+1
    lo = [max(0, c - radius - 1) for c in zeta]
    hi = [c + radius + 2 for c in zeta]
    for m1 in range(lo[0], hi[0]):
        for m2 in range(lo[1], hi[1]):
            for m3 in range(lo[2], hi[2]):
                mu = Multiplicity(m1, m2, m3)
                r = dist1(mu, zeta)
                if r > radius + 1:
                    continue
                if oracle.oracle_delta(mu, p) != abs(radius - r):
                    return f"zeta={tuple(zeta)}, mu={tuple(mu)}: gap profile broken"
    if radius > 1:
        _, _, pair = oracle.oracle_exponents(zeta, p)
        supported = all(
            i % p == 0 and j % p == 0
            for comp in (pair.low.f, pair.low.g)
            for i, j, _ in comp.terms()
        )
        if not supported:
            return f"zeta={tuple(zeta)}: low basis not in F[x^p, y^p]"
    return None


def run_centers(p: int, box=None) -> SuiteResult:
    """Every enumerated center realizes gap = p^k - |mu - zeta| on its ball,
    its own radius is p^k, and (radius > 1) its low basis lives in F[x^p,y^p].

    Two checks per center: its radius, then its ball profile and support."""
    if box is None:
        b = 4 * p * p
        box = (b, b, b)
    box = as_multiplicity(box)
    res = SuiteResult("centers", p)
    k = 0
    while p**k <= box.total:
        for zeta in fastexp.enumerate_centers(p, k, box).centers:
            radius = fastexp.fast_exponents(zeta, p).delta
            res.record(
                radius == p**k,
                lambda zeta=zeta, k=k: f"zeta={tuple(zeta)} radius is not p^{k}",
            )
            problem = _ball_problem(p, zeta, radius)
            res.record(problem is None, problem)
        k += 1
    return res


# -- basis certification sample ---------------------------------------------------


def run_saito(p: int, bound=None, seed: int = DEFAULT_SEED, samples: int = 60) -> SuiteResult:
    """Random sample: bases from every construction path certify, and random
    module members stay members under addition, scaling and Frobenius."""
    if bound is None:
        bound = (10, 10, 10)
    res = SuiteResult("saito", p)
    rng = random.Random(seed)
    b = as_multiplicity(bound)
    for _ in range(samples):
        mu = Multiplicity(*(rng.randint(0, c) for c in b))
        d1, d2, pair = oracle.oracle_exponents(mu, p)
        res.record(pair.certified, lambda mu=mu: f"oracle at {tuple(mu)}")
        planned, _ = basisfactory.plan_basis(mu, p)
        res.record(
            saito_check(planned.low, planned.high, mu)
            and planned.exponents == (d1, d2),
            lambda mu=mu: f"plan at {tuple(mu)}",
        )
        if basisfactory.gamma_membership(mu, p):
            psi = basisfactory.psi_basis(mu, p)
            res.record(psi.certified, lambda mu=mu: f"binomial pair at {tuple(mu)}")
        # module closure spot-checks on the certified low element
        theta = pair.low
        c = rng.randrange(1, p) if p > 2 else 1
        res.record(
            in_module(theta.scale(c), mu)
            and in_module(theta.frobenius(p), mu.scaled(p)),
            lambda mu=mu: f"module closure at {tuple(mu)}",
        )
    return res


# -- golden fixed points ------------------------------------------------------------


def run_golden() -> SuiteResult:
    """Spot values fixed by worked examples: exponents, sets, binomial rows."""
    from .fpcore import g_set

    res = SuiteResult("golden", None)
    expected_exp = [
        ((41, 52, 31), 3, 8, (58, 66)),
        ((3, 3, 4), 2, 2, (4, 6)),
        ((3, 3, 4), 3, 2, (4, 6)),
        ((3, 3, 4), 5, 0, (5, 5)),
        ((0, 0, 5), 2, 5, (0, 5)),
        ((1, 1, 1), 7, 1, (1, 2)),
    ]
    for mu, p, delta, exp in expected_exp:
        r = fastexp.fast_exponents(mu, p)
        res.record(
            (r.delta, r.exponents) == (delta, exp),
            lambda mu=mu, p=p: f"exponents at {mu}, p={p}",
        )
    r = fastexp.fast_exponents((41, 52, 31), 3)
    res.record(
        r.k == 3 and r.center == (54, 54, 27),
        "component of (41,52,31) at p=3",
    )
    res.record(
        g_set(16, 3) == [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16],
        "digit-dominance set of 16 at p=3",
    )
    res.record(
        [binom_mod_p(16, j, 3) for j in range(17)]
        == [1, 1, 0, 2, 2, 0, 1, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1],
        "binomial row m=16, p=3",
    )
    res.record(len(basisfactory.b_set(16, 3)) == 12, "size of b_set(16, 3)")
    res.record(len(basisfactory.s_set(16, 3)) == 11, "size of s_set(16, 3)")
    pair = basisfactory.psi_basis((3, 3, 4), 3)
    res.record(
        pair.low.to_text() == "(x^4 + x^3*y) dx + (x*y^3 + y^4) dy"
        and pair.high.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx",
        "binomial basis text at (3,3,4), p=3",
    )
    return res


# name -> suite run with the shared (p, box, seed) settings
SUITES = {
    "differential": lambda p, box, seed: run_differential(p, box),
    "adjacency": lambda p, box, seed: run_adjacency(p, box),
    "frobenius": lambda p, box, seed: run_frobenius(p, box),
    "periodicity": lambda p, box, seed: run_periodicity(p, box),
    "duality": lambda p, box, seed: run_duality(p),
    "gamma": lambda p, box, seed: run_gamma(p),
    "centers": lambda p, box, seed: run_centers(p, box),
    "saito": lambda p, box, seed: run_saito(p, box, seed=seed),
    "golden": lambda p, box, seed: run_golden(),
}


def run_suites(names: list[str], p: int, box=None, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run the named suites with shared p/box/seed settings.

    Every name is checked before any suite runs.
    """
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    return [SUITES[name](p, box, seed) for name in names]
