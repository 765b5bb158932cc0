import itertools
import random

import dense_referee as dense
import pytest
from full_product import apply_to_sum, full_product_check, projectively_equal, saito_det
from test_homopoly import axis_window, divisible_by_long_division, refusal_peak_bytes

from triarr import derivmod, homopoly
from triarr.basisfactory import TransformStep, plan_basis, transport
from triarr.derivmod import (
    BasisPair,
    Multiplicity,
    VectorField,
    as_multiplicity,
    defining_poly,
    dist1,
    in_module,
    saito_check,
)
from triarr.fastexp import fast_exponents
from triarr.fpcore import GuardError
from triarr.homopoly import HomoPoly, binomial_power, frobenius_root
from triarr.oracle import oracle_exponents


def recorded_certificates():
    """The distinct (low, high, mu) that plan_basis and oracle_exponents
    certify on [0,8]^3 for p = 2, 3, 5, 7 (origin excluded), in order."""
    seen = {}
    for p in (2, 3, 5, 7):
        for mu in itertools.product(range(9), repeat=3):
            if any(mu):
                for pair in (plan_basis(mu, p)[0], oracle_exponents(mu, p)[2]):
                    seen.setdefault((pair.low, pair.high, mu))
    return list(seen)


def perturbed(rng, low, high, mu):
    """Seeded near misses and near hits around a certified pair."""
    p = low.p
    yield high, low, mu
    yield low, low, mu
    yield high, high, mu
    # one multiplicity raised or lowered by one
    nu = list(mu)
    i = rng.randrange(3)
    nu[i] += 1 if nu[i] == 0 else rng.choice((1, -1))
    yield low, high, tuple(nu)
    # one coefficient of the high field changed
    f, g = (list(h.coeffs) or [0] * (high.degree + 1) for h in (high.f, high.g))
    cs = rng.choice((f, g))
    cs[rng.randrange(len(cs))] += rng.randrange(1, p)
    yield low, VectorField(HomoPoly(p, f), HomoPoly(p, g)), mu
    # the high field rescaled plus a multiple of the low one
    mult = HomoPoly(p, [rng.randrange(p) for _ in range(high.degree - low.degree + 1)])
    c = rng.randrange(1, p)
    yield low, VectorField(high.f.scale(c) + low.f * mult, high.g.scale(c) + low.g * mult), mu


def euler_field(p):
    return VectorField(HomoPoly.monomial(p, 1, 0), HomoPoly.monomial(p, 0, 1))


def dx(p):
    return VectorField(HomoPoly(p, (1,)), HomoPoly.zero(p))


def dy(p):
    return VectorField(HomoPoly.zero(p), HomoPoly(p, (1,)))


class TestMultiplicity:
    def test_coercion_and_totals(self):
        mu = as_multiplicity((3, 3, 4))
        assert mu == Multiplicity(3, 3, 4)
        assert mu.total == 10 and max(mu) == 4 and mu.balanced
        assert not as_multiplicity((0, 1, 2)).balanced

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_multiplicity((1, -1, 0))

    def test_guard(self):
        with pytest.raises(GuardError):
            as_multiplicity((1 << 33, 0, 0))

    def test_only_integers_accepted(self):
        # int() truncated these: fast_exponents((41.9, 52, 31), 3.7) answered
        # for (41, 52, 31) at p = 3
        for value in (("41", 52.5, True), (41.9, 52, 31), (41, 52, 31.0)):
            with pytest.raises(TypeError):
                as_multiplicity(value)
        for mu, p in (((41.9, 52, 31), 3.7), ((41.9, 52, 31), 3), ((41, 52, 31), 3.0)):
            with pytest.raises(TypeError):
                fast_exponents(mu, p)

    def test_caller_built_multiplicity_checked(self):
        # a Multiplicity was returned unchecked: fast_exponents(Multiplicity(41.9,
        # 52, 31), 3) answered delta = 8.899...
        with pytest.raises(TypeError):
            as_multiplicity(Multiplicity(41, 52.5, 31))
        with pytest.raises(TypeError):
            fast_exponents(Multiplicity(41.9, 52, 31), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            as_multiplicity(Multiplicity(1, -1, 0))
        with pytest.raises(GuardError):
            as_multiplicity(Multiplicity(1 << 33, 0, 0))
        mu = Multiplicity(41, 52, 31)
        assert as_multiplicity(mu) is mu
        coerced = as_multiplicity(Multiplicity(True, 52, 31))
        assert coerced == (1, 52, 31) and type(coerced) is Multiplicity
        assert all(type(c) is int for c in coerced)

    def test_dist1(self):
        assert dist1((41, 52, 31), (54, 54, 27)) == 13 + 2 + 4


class TestVectorField:
    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            VectorField(HomoPoly(3, (1,)), HomoPoly.monomial(3, 1, 0))

    def test_zero_component_allowed(self):
        v = dy(5)
        assert v.degree == 0 and v.f.is_zero

    @pytest.mark.parametrize("p", (0, 1, 4))
    def test_modulus_that_is_not_prime_refused(self, p):
        # at p = 4 this built a field over Z/4 that in_module then judged
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            VectorField(HomoPoly(p, [2, 0]), HomoPoly(p, [0, 2]))

    def test_text_forms(self):
        p = 3
        assert euler_field(p).to_text() == "(x) dx + (y) dy"
        mono = HomoPoly.monomial(p, 3, 3)
        psi_alt = VectorField(-mono, mono)
        assert psi_alt.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx"
        assert dx(p).to_text() == "(1) dx"


class TestDefiningPoly:
    def test_empty_arrangement(self):
        assert defining_poly((0, 0, 0), 5).to_text() == "1"

    def test_xy(self):
        assert defining_poly((1, 1, 0), 7) == HomoPoly.monomial(7, 1, 1)

    def test_direct_expansion_334_p5(self):
        # x^3 y^3 (x+y)^4 expanded term by term
        q = defining_poly((3, 3, 4), 5)
        expect = (
            HomoPoly.monomial(5, 3, 3) * binomial_power(4, 5)
        )
        assert q == expect and q.degree == 10

    def test_random_against_product(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rng.choice([2, 3, 5])
            mu = tuple(rng.randrange(6) for _ in range(3))
            prod = (
                HomoPoly.monomial(p, mu[0], 0)
                * HomoPoly.monomial(p, 0, mu[1])
                * binomial_power(mu[2], p)
            )
            assert defining_poly(mu, p) == prod

    def test_refused_before_it_allocates(self, monkeypatch):
        # |mu| + 1 = 2^22 + 1 coefficients, refused before the 32 MB list
        assert refusal_peak_bytes(lambda: defining_poly((1 << 22, 0, 0), 2)) < 1 << 20
        monkeypatch.setattr(homopoly, "DENSE_ROW_GUARD", 9)
        assert defining_poly((4, 0, 4), 2).degree == 8
        with pytest.raises(GuardError):
            defining_poly((5, 0, 4), 2)


class TestInModule:
    def test_euler_everywhere_at_ones(self):
        for p in (2, 3, 5):
            assert in_module(euler_field(p), (1, 1, 1))

    def test_psi_alt_shape(self):
        for p in (2, 3, 5):
            mono = HomoPoly.monomial(p, 2, 3)
            theta = VectorField(-mono, mono)
            assert in_module(theta, (2, 3, 5))
            assert in_module(theta, (2, 3, 100))  # theta(x+y) = 0

    def test_dx_fails_at_x(self):
        assert not in_module(dx(3), (1, 0, 0))

    def test_closure_under_addition_and_poly_multiples(self):
        rng = random.Random(9)
        for _ in range(25):
            p = rng.choice([2, 3, 5])
            mu = tuple(rng.randrange(4) for _ in range(3))
            members = dense.degree_slice(mu, p, sum(mu) // 2 + 1)
            if len(members) < 2:
                continue
            a, b = members[0], members[1]
            s = VectorField(a.f + b.f, a.g + b.g)
            assert in_module(s, mu)
            mono = HomoPoly.monomial(p, 1, 1)
            assert in_module(VectorField(a.f * mono, a.g * mono), mu)

    def test_frobenius_containment(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            for _ in range(10):
                mu = tuple(rng.randrange(4) for _ in range(3))
                for theta in dense.degree_slice(mu, p, sum(mu) // 2 + 1)[:2]:
                    q = p ** rng.choice([1, 2])
                    lifted = theta.frobenius(q)
                    assert in_module(lifted, tuple(q * c for c in mu))


def reference_in_module(theta: VectorField, mu) -> bool:
    """Membership with f + g formed at full degree and tested by long division."""
    m1, m2, m3 = mu
    return (
        axis_window(theta.f, "x", m1)
        and axis_window(theta.g, "y", m2)
        and divisible_by_long_division(apply_to_sum(theta), m3)
    )


def spread(rng, p, q, r, ys=0):
    """y^ys H(x^q, y^q) with (x+y)^r dividing a random nonzero H of degree >= 1."""
    h = HomoPoly.zero(p)
    while h.is_zero:
        h = HomoPoly(p, [rng.randrange(p) for _ in range(rng.randint(2, 5))]) * binomial_power(r, p)
    return h.frobenius_scale(q).times_monomial(0, ys)


class TestInModuleAtTheRoot:
    """in_module forms f + g at the common Frobenius root of f and g."""

    CASES = [(p, k) for p in (2, 3, 5, 7) for k in (1, 2)]

    @staticmethod
    def orders(q, r):
        return sorted({0, 1, q * r, q * r + 1} | ({q * r - 1} if r else set()))

    @pytest.mark.parametrize("p,k", CASES)
    def test_cancellation_to_a_spread_sum(self, p, k):
        # f and g are off-stride, and their off-stride parts cancel in f + g
        rng, q = random.Random(p * 10 + k), p**k
        for r in range(4):
            h = spread(rng, p, q, r)
            off = [rng.randrange(p) if i % q else 0 for i in range(h.degree + 1)]
            off[rng.choice([i for i in range(h.degree + 1) if i % q])] = 1
            e = HomoPoly(p, off)
            theta = VectorField(h + e, -e)
            assert frobenius_root(theta.f, theta.g)[0] == 1 < frobenius_root(apply_to_sum(theta))[0]
            for c in self.orders(q, r):
                assert in_module(theta, (0, 0, c)) == reference_in_module(theta, (0, 0, c))
            assert in_module(theta, (0, 0, q * r))

    @pytest.mark.parametrize("p,k", CASES)
    def test_one_root_per_test(self, p, k, monkeypatch):
        # the root of (f, g) is the only one taken; f + g is tested as it is
        calls = []
        root = homopoly.frobenius_root
        counted = lambda *polys: calls.append(len(polys)) or root(*polys)  # noqa: E731
        monkeypatch.setattr(derivmod, "frobenius_root", counted)
        monkeypatch.setattr(homopoly, "frobenius_root", counted)
        mu, q = (2, 3, 4), p**k
        pair = plan_basis(mu, p)[0]
        lifted, nu = transport(pair, mu, TransformStep("FrobeniusLift", q))
        for theta, at in ((pair.low, mu), (pair.high, mu), (lifted.low, nu), (lifted.high, nu)):
            calls.clear()
            assert in_module(theta, at) and calls == [2], (theta, at, calls)
        calls.clear()
        assert not in_module(euler_field(p), (2, 0, 0)) and calls == []  # x^2 does not divide x

    @pytest.mark.parametrize("p,k", CASES)
    def test_zero_components(self, p, k):
        rng, q = random.Random(p * 20 + k), p**k
        z = HomoPoly.zero(p)
        assert in_module(VectorField(z, z), (5, 5, 50))
        for r in range(4):
            h = spread(rng, p, q, r)
            for theta in (VectorField(h, z), VectorField(z, h)):
                for c in self.orders(q, r):
                    mu = (0, 0, c)
                    assert in_module(theta, mu) == reference_in_module(theta, mu)

    @pytest.mark.parametrize("p,k", CASES)
    def test_zero_top_coefficient(self, p, k):
        # a factor y^ys leaves the top coefficient 0 and the degree off-stride
        rng, q = random.Random(p * 30 + k), p**k
        for r in range(4):
            for ys in (1, q - 1):
                f, g = spread(rng, p, q, r, ys), spread(rng, p, q, r, ys)
                if f.degree != g.degree:
                    continue
                theta = VectorField(f, g)
                assert f.coeffs[-1] == 0 and frobenius_root(f, g)[0] >= q
                for c in self.orders(q, r):
                    for mu in ((0, 0, c), (0, ys, c)):
                        assert in_module(theta, mu) == reference_in_module(theta, mu)


class TestSaito:
    def test_partials(self):
        p = 5
        assert saito_det(dx(p), dy(p)).to_text() == "1"

    def test_alternating(self):
        theta = euler_field(3)
        assert saito_det(theta, theta).is_zero

    def test_euler_pair_basis_at_ones(self):
        p = 7
        mono = HomoPoly.monomial(p, 1, 1)
        second = VectorField(-mono, mono)  # x y (dy - dx), degree 2
        assert saito_check(euler_field(p), second, (1, 1, 1))

    def test_dx_dy_basis_for_empty(self):
        assert saito_check(dx(2), dy(2), (0, 0, 0))

    def test_degree_bookkeeping(self):
        # certified pair degrees always sum to |mu|
        p = 3
        mono = HomoPoly.monomial(p, 1, 1)
        second = VectorField(-mono, mono)
        assert euler_field(p).degree + second.degree == 3

    def test_char0_pair_reduced_mod_3_fails(self):
        # integer-coefficient basis for (3,3,4) away from 2 and 3; its
        # determinant is 6 x^3 y^3 (x+y)^4, which dies mod 2 and mod 3
        for p in (2, 3):
            f1 = HomoPoly(p, [0, 0, 0, 6, 4, 1])
            g1 = HomoPoly(p, [0, 1, 4, 0, 0, 0])
            f2 = HomoPoly(p, [0, 0, 0, 10, 5, 1])
            g2 = HomoPoly(p, [1, 5, 10, 0, 0, 0])
            t1, t2 = VectorField(f1, g1), VectorField(f2, g2)
            assert saito_det(t1, t2).is_zero
            assert not saito_check(t1, t2, (3, 3, 4))

    def test_wakamiko_pair_valid_at_p5(self):
        # same pair works in characteristic 5 (6 is a unit there)
        p = 5
        t1 = VectorField(HomoPoly(p, [0, 0, 0, 6, 4, 1]), HomoPoly(p, [0, 1, 4, 0, 0, 0]))
        t2 = VectorField(HomoPoly(p, [0, 0, 0, 10, 5, 1]), HomoPoly(p, [1, 5, 10, 0, 0, 0]))
        assert saito_check(t1, t2, (3, 3, 4))

    def test_det_alone_does_not_certify(self):
        # det = Q with a non-member second field must fail the check
        p = 3
        mu = (1, 2, 0)
        q_dx = VectorField(defining_poly(mu, p), HomoPoly.zero(p))
        bad = VectorField(HomoPoly.zero(p), HomoPoly(p, (1,)))  # dy
        assert projectively_equal(saito_det(q_dx, bad), defining_poly(mu, p))
        assert not saito_check(q_dx, bad, mu)


class TestSaitoReadOff:
    """saito_check reads c off one coefficient; the full product is the reference."""

    def test_agrees_with_full_product_on_recorded_set(self):
        rng = random.Random(20261018)
        cases = []
        for low, high, mu in recorded_certificates():
            cases.append((low, high, mu))
            cases.extend(perturbed(rng, low, high, mu))
        verdicts = [saito_check(*case) for case in cases]
        for case, verdict in zip(cases, verdicts):
            assert verdict == full_product_check(*case), case
        true = sum(verdicts)
        # both answers are common, so neither side of the criterion is idle
        assert len(cases) > 30000 and 0.3 < true / len(cases) < 0.7

    def test_zero_field(self):
        zero = VectorField(HomoPoly.zero(3), HomoPoly.zero(3))
        for mu in ((0, 0, 0), (0, 0, 1), (1, 0, 0)):
            assert not saito_check(zero, dy(3), mu)
            assert not saito_check(dx(3), zero, mu)
            assert not saito_check(zero, zero, mu)

    def test_nonzero_scalar_with_wrong_degree_sum(self):
        # det = y has coefficient 1 at x^0 y^1, yet deg 0 + deg 1 != |mu| = 0
        p = 3
        y_dy = VectorField(HomoPoly.zero(p), HomoPoly.monomial(p, 0, 1))
        assert not saito_check(dx(p), y_dy, (0, 0, 0))
        assert not full_product_check(dx(p), y_dy, (0, 0, 0))

    def test_equal_fields(self):
        for p in (2, 3, 5):
            assert not saito_check(euler_field(p), euler_field(p), (1, 1, 0))
            low = plan_basis((3, 3, 4), p)[0].low
            assert not saito_check(low, low, (3, 3, 4))


class TestBasisPair:
    def test_ordering_enforced(self):
        p = 3
        lo = dx(p)
        hi = euler_field(p)
        BasisPair(lo, hi)
        with pytest.raises(ValueError):
            BasisPair(hi, lo)
