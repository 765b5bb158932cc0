import itertools
import random
import sys

import pytest

from triarr.basisfactory import (
    NotInGammaError,
    _normalized,
    b_set,
    dual_basis,
    dual_multiplicity,
    frobenius_lift,
    gamma_membership,
    gamma_slice,
    period_shift,
    plan_basis,
    psi_basis,
    psi_fields,
    s_set,
)
from triarr.derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    defining_poly,
    in_module,
    saito_check,
    saito_det,
)
from triarr.fastexp import fast_exponents
from triarr.fpcore import GuardError, binom_mod_p, s_index
from triarr.homopoly import HomoPoly
from triarr.oracle import oracle_delta, oracle_exponents


def _scan_membership(mu, p):
    """The binomial-region definition: one Lucas binomial per m - m2 < j < m1."""
    m1, m2, m = mu
    return all(binom_mod_p(m, j, p) == 0 for j in range(max(0, m - m2 + 1), m1))


def _reference_plan(mu, p):
    """Record-and-replay planner: walk mu down recording steps, replay them up.

    Returns the pair and the trace as strings, for comparison with plan_basis.
    """
    mu = Multiplicity(*mu)
    original = mu
    steps = []  # (kind, param), recorded while walking down
    pre_trace = []  # the reflection, applied eagerly at the seed
    while True:
        if _scan_membership(mu, p):
            seed = psi_basis(mu, p)
            break
        if mu.total > 0 and all(c % p == 0 for c in mu):
            steps.append(("FrobeniusLift", p))
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
                    steps.append(("PeriodShift", d))
                    mu = Multiplicity(mu.mu1 - e, mu.mu2 - e, mu.mu3)
                    shifted = True
                    break
                d -= 1
        if shifted:
            continue
        d = 1
        while p**d < max(mu):
            d += 1
        nu = dual_multiplicity(mu, p, d)
        if _scan_membership(nu, p):
            seed = dual_basis(psi_basis(nu, p), nu, d)[0]
            pre_trace = [("Dual", d)]
            break
        _, _, seed = oracle_exponents(mu, p)
        break
    pair = seed
    for kind, param in reversed(steps):
        if kind == "FrobeniusLift":
            pair, mu = frobenius_lift(pair, mu, param)
        else:
            pair, mu = period_shift(pair, mu, param)
    assert mu == original and saito_check(pair.low, pair.high, original)
    trace = pre_trace + list(reversed(steps))
    return _normalized(pair), [f"{kind}({param})" for kind, param in trace]


class TestGammaMembership:
    def test_paper_334(self):
        assert gamma_membership((3, 3, 4), 3)
        assert gamma_membership((3, 3, 4), 2)
        assert not gamma_membership((3, 3, 4), 5)

    def test_small_sum_always_inside(self):
        for p in (2, 3, 5):
            for m in range(1, 12):
                for m1 in range(m + 2):
                    m2 = m + 1 - m1
                    assert gamma_membership((m1, m2, m), p)

    def test_paper_m16_members(self):
        assert gamma_membership((9, 9, 16), 3)
        assert not gamma_membership((10, 8, 16), 3)

    def test_agrees_with_per_j_definition(self):
        for p in (2, 3, 5, 7):
            for mu in itertools.product(range(25), repeat=3):
                assert gamma_membership(mu, p) == _scan_membership(mu, p), (mu, p)

    def test_far_outside_input_answers_by_digits(self):
        # each would scan 2^30 or more binomials C(m, j) that vanish mod 2
        assert gamma_membership((200_000_000, 0, 1 << 20), 2)
        assert gamma_membership((1 << 30, 1 << 30, 1 << 30), 2)
        assert not gamma_membership((1 << 31, 1 << 30, 1 << 30), 2)

    def test_lower_set_property(self):
        # membership is inherited downward, exhaustively for m <= 20
        for p in (2, 3):
            for m in range(1, 21):
                grid = {}
                for m1 in range(m + 3):
                    for m2 in range(m + 3):
                        grid[(m1, m2)] = gamma_membership((m1, m2, m), p)
                for (m1, m2), member in grid.items():
                    if member:
                        if m1:
                            assert grid[(m1 - 1, m2)]
                        if m2:
                            assert grid[(m1, m2 - 1)]


class TestPsiBasis:
    def test_exact_basis_334_p2(self):
        pair = psi_basis((3, 3, 4), 2)
        assert pair.low.to_text() == "(x^4) dx + (y^4) dy"
        assert pair.high.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx"
        assert pair.exponents == (4, 6) and pair.certified

    def test_exact_basis_334_p3(self):
        pair = psi_basis((3, 3, 4), 3)
        assert pair.low.to_text() == "(x^4 + x^3*y) dx + (x*y^3 + y^4) dy"
        assert pair.high.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx"

    def test_mu1_zero_shape(self):
        for p in (2, 3, 5):
            psi, _ = psi_fields((0, 2, 6), p)
            assert psi.g.is_zero
            assert psi.f == defining_poly((0, 0, 6), p)

    def test_mu1_above_m_shape(self):
        psi, _ = psi_fields((7, 0, 4), 3)
        assert psi.f.is_zero
        assert psi.g == defining_poly((0, 0, 4), 3)

    def test_low_is_alt_when_sum_small(self):
        pair = psi_basis((1, 1, 6), 3)
        assert pair.exponents == (2, 6)
        assert pair.low.degree == 2

    def test_rejects_outside(self):
        with pytest.raises(NotInGammaError):
            psi_basis((3, 3, 4), 5)

    def test_determinant_identity(self):
        # det M(psi, psi_alt) = x^m1 y^m2 (x+y)^m even outside the region
        rng = random.Random(3)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            mu = Multiplicity(rng.randrange(8), rng.randrange(8), rng.randrange(1, 8))
            psi, alt = psi_fields(mu, p)
            det = saito_det(psi, alt)
            assert det.projectively_equal(defining_poly(mu, p))

    def test_exponents_match_oracle_inside_region(self):
        for p in (2, 3):
            for m in range(1, 11):
                for m1 in range(m + 2):
                    for m2 in range(m + 2):
                        mu = Multiplicity(m1, m2, m)
                        if not gamma_membership(mu, p):
                            continue
                        pair = psi_basis(mu, p)
                        assert pair.exponents == oracle_exponents(mu, p)[:2]


class TestSetsAtLevelM:
    def test_paper_b16(self):
        expect = {
            (1, 17, 16), (2, 16, 16), (4, 14, 16), (5, 13, 16), (7, 11, 16),
            (8, 10, 16), (17, 1, 16), (16, 2, 16), (14, 4, 16), (13, 5, 16),
            (11, 7, 16), (10, 8, 16),
        }
        got = {tuple(b) for b in b_set(16, 3)}
        assert got == expect and len(b_set(16, 3)) == 12

    def test_paper_s16(self):
        expect = {
            (1, 16, 16), (3, 15, 16), (4, 13, 16), (6, 12, 16), (7, 10, 16),
            (9, 9, 16), (16, 1, 16), (15, 3, 16), (13, 4, 16), (12, 6, 16),
            (10, 7, 16),
        }
        got = {tuple(s) for s in s_set(16, 3)}
        assert got == expect and len(s_set(16, 3)) == 11

    def test_paper_m4(self):
        assert {tuple(b) for b in b_set(4, 2)} == {(1, 5, 4), (5, 1, 4)}
        assert [tuple(s) for s in s_set(4, 2)] == [(4, 4, 4)]
        assert (3, 3, 4) in s_set(4, 3)

    def test_b_elements_sum_and_gap(self):
        for p in (2, 3, 5):
            for m in range(1, 16):
                for mu in b_set(m, p):
                    assert mu.mu1 + mu.mu2 == m + 2
                    assert not gamma_membership(mu, p)
                    assert oracle_delta(mu, p) == 0

    def test_b_is_exactly_gap0_on_its_line(self):
        for p in (2, 3):
            for m in range(1, 16):
                bset = {tuple(b) for b in b_set(m, p)}
                for m1 in range(m + 3):
                    mu = (m1, m + 2 - m1, m)
                    assert (tuple(mu) in bset) == (oracle_delta(mu, p) == 0)

    def test_s_maximality(self):
        for p in (2, 3):
            for m in range(1, 16):
                for mu in s_set(m, p):
                    assert gamma_membership(mu, p)
                    up1 = (mu.mu1 + 1, mu.mu2, m)
                    up2 = (mu.mu1, mu.mu2 + 1, m)
                    assert not gamma_membership(up1, p)
                    assert not gamma_membership(up2, p)

    def test_complement_is_upper_set_generated_by_b(self):
        # non-membership holds exactly above some minimal complement element
        for p in (2, 3):
            for m in range(1, 17):
                bs = b_set(m, p)
                for m1 in range(m + 4):
                    for m2 in range(m + 4):
                        dominated = any(
                            m1 >= b.mu1 and m2 >= b.mu2 for b in bs
                        )
                        assert gamma_membership((m1, m2, m), p) == (not dominated)

    def test_gamma_slice_bundle(self):
        gs = gamma_slice(16, 3)
        assert gs.m == 16 and gs.p == 3
        assert len(gs.maximal_elements) == 11
        assert len(gs.minimal_complement) == 12

    def test_pair_sum_lemma(self):
        # g + g' = p^s(g) + sum_{e >= s(g)} c_e(m) p^e, and s(g) = s(g')
        from triarr.fpcore import digits

        for p in (2, 3, 5):
            for m in range(1, 40):
                for g, gp, _ in s_set(m, p):
                    if g == 0 or gp == 0:
                        continue
                    s = s_index(g, p)
                    assert s == s_index(gp, p)
                    tail = sum(
                        c * p**e for e, c in enumerate(digits(m, p)) if e >= s
                    )
                    assert g + gp == p**s + tail

    def test_level_range_lemma(self):
        # for (g, g', m) maximal: the levels n at which (g, g', n) stays
        # maximal are exactly g + g' - v for v = 1 .. p^s(g)
        for p in (2, 3):
            for m in (4, 9, 16, 12):
                for g, gp, _ in s_set(m, p):
                    if g == 0:
                        continue
                    s = s_index(g, p)
                    expect = {g + gp - v for v in range(1, p**s + 1)}
                    lo = max(1, g + gp - p**s - 2)
                    hi = g + gp + 2
                    got = {
                        n
                        for n in range(lo, hi)
                        if (g, gp, n) in {tuple(t) for t in s_set(n, p)}
                    }
                    assert got == {n for n in expect if n >= 1}


class TestFrobeniusLift:
    def test_euler_lift(self):
        for p in (2, 3, 5):
            pair = psi_basis((1, 1, 1), p)
            lifted, target = frobenius_lift(pair, (1, 1, 1), p)
            assert target == (p, p, p)
            assert lifted.certified
            assert lifted.low.f == HomoPoly.monomial(p, p, 0)

    def test_lift_via_composition(self):
        pair = psi_basis((1, 2, 2), 3)
        once, mid = frobenius_lift(pair, (1, 2, 2), 3)
        twice, far = frobenius_lift(once, mid, 3)
        direct, far2 = frobenius_lift(pair, (1, 2, 2), 9)
        assert far == far2 == (9, 18, 18)
        assert twice.low == direct.low and twice.high == direct.high

    def test_lift_of_334_at_p5_hits_gap0(self):
        _, _, pair = oracle_exponents((3, 3, 4), 5)
        lifted, target = frobenius_lift(pair, (3, 3, 4), 5)
        assert target == (15, 15, 20)
        assert lifted.certified
        assert oracle_delta((15, 15, 20), 5) == 0

    def test_rejects_non_power(self):
        pair = psi_basis((1, 1, 1), 3)
        with pytest.raises(ValueError):
            frobenius_lift(pair, (1, 1, 1), 6)
        with pytest.raises(ValueError):
            frobenius_lift(pair, (1, 1, 1), 1)


class TestPeriodShift:
    def test_paper_eg334p5(self):
        p = 5
        theta = VectorField(
            HomoPoly(p, [0, 0, 0, 1, -1, 1]), HomoPoly(p, [0, 1, -1, 0, 0, 0])
        )
        theta2 = VectorField(HomoPoly.monomial(p, 5, 0), HomoPoly.monomial(p, 0, 5))
        pair = BasisPair(theta, theta2, certified=True)
        assert saito_check(theta, theta2, (3, 3, 4))
        shifted, target = period_shift(pair, (3, 3, 4), 1)
        assert target == (8, 8, 4)
        assert shifted.low.f.to_text() == "x^10 + 4*x^9*y + x^8*y^2"
        assert shifted.low.g.to_text() == "x^2*y^8 + 4*x*y^9"
        det = saito_det(shifted.low, shifted.high)
        assert det.projectively_equal(defining_poly((8, 8, 4), p))

    def test_degree_bookkeeping(self):
        pair = psi_basis((2, 2, 3), 3)
        shifted, target = period_shift(pair, (2, 2, 3), 1)
        assert target == (5, 5, 3)
        assert shifted.exponents == (pair.exponents[0] + 3, pair.exponents[1] + 3)

    def test_out_of_range_shift_raises_certification(self):
        # the monomial element's image has (x+y)-order exactly p^d, so a
        # shift with m3 > p^d can never be a basis
        pair = psi_basis((14, 25, 31), 3)
        with pytest.raises(CertificationError):
            period_shift(pair, (14, 25, 31), 3)


class TestDualBasis:
    def test_alt_element_dualizes_to_frobenius_pair(self):
        # the dual of x^m1 y^m2 (dy - dx) is x^(p^d) dx + y^(p^d) dy
        p, d = 3, 2
        pair = psi_basis((3, 3, 4), p)
        dual, target = dual_basis(pair, (3, 3, 4), d)
        assert target == (6, 6, 4)
        fields = [dual.low, dual.high]
        expect = VectorField(HomoPoly.monomial(p, 9, 0), HomoPoly.monomial(p, 0, 9))
        assert any(
            fld.f.projectively_equal(expect.f) and fld.g.projectively_equal(expect.g)
            for fld in fields
        )

    def test_involution_up_to_sign(self):
        p, d = 3, 2
        _, _, pair = oracle_exponents((4, 2, 5), p)
        dual, target = dual_basis(pair, (4, 2, 5), d)
        back, source = dual_basis(dual, target, d)
        assert source == (4, 2, 5)
        for a, b in ((back.low, pair.low), (back.high, pair.high)):
            assert a.f.projectively_equal(b.f) and a.g.projectively_equal(b.g)

    def test_gap_invariance_oracle_sweep(self):
        for p in (2, 3):
            for d in (1, 2):
                e = p**d
                for m1 in range(e + 1):
                    for m2 in range(e + 1):
                        for m3 in range(e + 1):
                            mu = Multiplicity(m1, m2, m3)
                            assert oracle_delta(mu, p) == oracle_delta(
                                dual_multiplicity(mu, p, d), p
                            )

    def test_requires_cube(self):
        pair = psi_basis((1, 1, 1), 3)
        with pytest.raises(ValueError):
            dual_basis(pair, (1, 1, 1), 0)
        _, _, big = oracle_exponents((4, 4, 4), 3)
        with pytest.raises(ValueError):
            dual_basis(big, (4, 4, 4), 1)


class TestPlanBasis:
    def test_matches_record_and_replay_reference(self):
        for p in (2, 3, 5, 7):
            for mu in itertools.product(range(9), repeat=3):
                pair, trace = plan_basis(mu, p)
                ref_pair, ref_trace = _reference_plan(mu, p)
                assert pair.low.to_text() == ref_pair.low.to_text(), (mu, p)
                assert pair.high.to_text() == ref_pair.high.to_text(), (mu, p)
                assert [str(t) for t in trace] == ref_trace, (mu, p)

    def test_direct_region_no_steps(self):
        pair, trace = plan_basis((3, 3, 4), 2)
        assert trace == []
        assert pair.low.to_text() == "(x^4) dx + (y^4) dy"

    def test_plan_deeper_than_the_recursion_limit_is_refused(self):
        # one shift by p per level down to the seed (0, 0, 5); each hop would
        # be certified at degree up to 2 * p * k, beyond desk scale
        p, k = 10007, sys.getrecursionlimit() + 1
        with pytest.raises(GuardError):
            plan_basis((p * k, p * k, 5), p)

    def test_oracle_fallback_for_eg31(self):
        # the worked-out shift route is unsound here (see the regression
        # below), so the planner must deliver a certified oracle pair
        pair, trace = plan_basis((41, 52, 31), 3)
        assert trace == []
        assert pair.exponents == (58, 66)
        assert saito_check(pair.low, pair.high, (41, 52, 31))
        # the low generator is the shifted binomial field, made monic
        assert pair.low.f.to_text() == "x^58 + x^57*y + x^55*y^3 + x^54*y^4"

    def test_published_shift_pair_is_not_a_basis(self):
        # regression pin: the degree-66 element claimed alongside that low
        # generator fails membership (its x+y order is 27 < 31), so the
        # claimed transported pair cannot certify
        p = 3
        f = HomoPoly(p, [0] * 41 + [-1] + [0] * 25)
        g = HomoPoly(p, [0] * 14 + [-1] + [0] * 52)
        claimed_high = VectorField(f, g)
        assert not in_module(claimed_high, (41, 52, 31))
        assert claimed_high.apply_to_sum().divisible_by_linear_power(27)
        assert not claimed_high.apply_to_sum().divisible_by_linear_power(28)

    def test_scaled_euler_family(self):
        for p in (2, 3, 5):
            pair, trace = plan_basis((p, p, p), p)
            assert pair.exponents == (p, 2 * p)
            assert saito_check(pair.low, pair.high, (p, p, p))

    def test_theorem_safe_shift_fires(self):
        pair, trace = plan_basis((9, 9, 2), 2)
        assert [t.kind for t in trace] == ["PeriodShift"]
        assert pair.certified

    def test_transport_chain(self):
        pair, trace = plan_basis((8, 8, 4), 5)
        assert [t.kind for t in trace] == ["Dual", "PeriodShift"]
        assert pair.exponents == (10, 10)

    def test_frobenius_descale(self):
        pair, trace = plan_basis((6, 10, 8), 2)
        assert [t.kind for t in trace] == ["FrobeniusLift"]
        assert pair.exponents == oracle_exponents((6, 10, 8), 2)[:2]

    def test_matches_oracle_on_box(self):
        rng = random.Random(17)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            mu = Multiplicity(*(rng.randrange(11) for _ in range(3)))
            pair, _ = plan_basis(mu, p)
            assert saito_check(pair.low, pair.high, mu)
            assert pair.exponents == oracle_exponents(mu, p)[:2]

    def test_low_element_is_monic(self):
        rng = random.Random(23)
        for _ in range(30):
            p = rng.choice([2, 3])
            mu = Multiplicity(*(rng.randrange(9) for _ in range(3)))
            pair, _ = plan_basis(mu, p)
            comp = pair.low.f if not pair.low.f.is_zero else pair.low.g
            lead = next(
                comp.coeffs[i] for i in range(comp.degree, -1, -1) if comp.coeffs[i]
            )
            assert lead == 1


class TestGammaOracleEquivalence:
    def test_membership_iff_oracle_exponents(self):
        # membership == (oracle exponents sorted == {m, m1+m2}), m <= 12
        for p in (2, 3):
            for m in range(1, 13):
                for m1 in range(m + 3):
                    for m2 in range(m + 3):
                        mu = Multiplicity(m1, m2, m)
                        expect = tuple(sorted((m, m1 + m2)))
                        got = oracle_exponents(mu, p)[:2]
                        assert gamma_membership(mu, p) == (got == expect)

    def test_boundary_low_generator_is_stretched_binomial_field(self):
        # one step above the region the lower generator is x (or y) times
        # the binomial field of the member below; only testable where the
        # gap is positive, i.e. m1 + m2 > m + 2, where the lower generator
        # is unique up to scalars
        hits = 0
        for p in (2, 3):
            for m in range(2, 10):
                for m1 in range(m + 2):
                    for m2 in range(m + 2):
                        mu = Multiplicity(m1, m2, m)
                        if m1 + m2 < m + 2 or not gamma_membership(mu, p):
                            continue
                        for step, mono in ((0, (1, 0)), (1, (0, 1))):
                            nu = Multiplicity(
                                m1 + (step == 0), m2 + (step == 1), m
                            )
                            if gamma_membership(nu, p):
                                continue
                            psi, _ = psi_fields(mu, p)
                            alpha = HomoPoly.monomial(p, *mono)
                            _, _, pair = oracle_exponents(nu, p)
                            # one common scalar for both components
                            scal = None
                            for got, want in (
                                (pair.low.f, psi.f * alpha),
                                (pair.low.g, psi.g * alpha),
                            ):
                                if want.is_zero:
                                    assert got.is_zero
                                    continue
                                j = next(i for i, v in enumerate(want.coeffs) if v)
                                c = got.coeff(j) * pow(want.coeffs[j], p - 2, p) % p
                                assert scal in (None, c) and c != 0
                                scal = c
                                assert got == want.scale(c)
                            hits += 1
        assert hits > 20  # the regime is actually exercised

    def test_binomial_vanishing_iff_gap0_line(self):
        for p in (2, 3, 5):
            for m in range(1, 13):
                for j in range(m + 1):
                    nonzero = binom_mod_p(m, j, p) != 0
                    gap = oracle_delta((j + 1, m + 1 - j, m), p)
                    assert nonzero == (gap == 0)


class TestEveryFactoryBasisCertifies:
    def test_fast_report_consistency(self):
        rng = random.Random(4)
        for _ in range(40):
            p = rng.choice([2, 3])
            mu = Multiplicity(*(rng.randrange(10) for _ in range(3)))
            pair, _ = plan_basis(mu, p)
            r = fast_exponents(mu, p)
            assert pair.exponents == r.exponents
