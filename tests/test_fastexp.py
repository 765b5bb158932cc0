import pytest
from digit_helpers import s_index

from triarr import fastexp
from triarr.basisfactory import gamma_slice
from triarr.derivmod import Multiplicity, as_multiplicity, dist1
from triarr.fastexp import ball_center, delta_zero, enumerate_centers, fast_exponents
from triarr.fpcore import Prime
from triarr.oracle import oracle_delta, oracle_exponents


def box(bound):
    return [
        Multiplicity(a, b, c)
        for a in range(bound + 1)
        for b in range(bound + 1)
        for c in range(bound + 1)
    ]


class TestBalanced:
    def test_examples(self):
        assert as_multiplicity((3, 3, 4)).balanced
        assert not as_multiplicity((0, 0, 1)).balanced
        assert as_multiplicity((41, 52, 31)).balanced
        assert as_multiplicity((0, 0, 0)).balanced


class TestUnbalanced:
    def test_pure_linear_power(self):
        r = fast_exponents((0, 0, 5), 2)
        assert r.delta == 5 and r.exponents == (0, 5) and r.tag == "Unbalanced"

    def test_oracle_confirms_104(self):
        r = fast_exponents((1, 0, 4), 3)
        assert r.delta == 3 and r.exponents == (1, 4) and r.tag == "Unbalanced"
        assert oracle_exponents((1, 0, 4), 3)[:2] == (1, 4)

    def test_axis_square(self):
        r = fast_exponents((2, 0, 0), 7)
        assert r.delta == 2 and r.exponents == (0, 2) and r.tag == "Unbalanced"

    def test_rejects_balanced(self):
        # a balanced mu never takes the dominant-line formula, even when
        # 2 max(mu) - |mu| would have the right parity
        assert fast_exponents((1, 1, 1), 3).tag == "K0Odd"
        assert fast_exponents((2, 1, 1), 3).tag == "K0Even"


class TestDecompose:
    # the ball's alpha and beta: mu = p^k * alpha + beta, 0 <= beta_i < p^k
    def test_paper_eg31(self):
        hit = ball_center((41, 52, 31), 3, 3)
        assert (hit.alpha, hit.beta) == ((1, 1, 1), (14, 25, 4))

    def test_zero(self):
        assert ball_center((0, 0, 0), 5, 2) is None
        hit = ball_center((25, 25, 25), 5, 2)
        assert (hit.alpha, hit.beta) == ((1, 1, 1), (0, 0, 0))

    def test_componentwise(self):
        hit = ball_center((9, 8, 4), 5, 1)
        assert (hit.alpha, hit.beta) == ((1, 1, 0), (4, 3, 4))

    def test_requires_positive_k(self):
        with pytest.raises(ValueError, match="ball_center requires k >= 1"):
            ball_center((1, 1, 1), 3, 0)


class TestBallCenter:
    def test_paper_eg31_case_e(self):
        hit = ball_center((41, 52, 31), 3, 3)
        assert hit is not None
        assert hit.center == (54, 54, 27) and hit.case == "E"

    def test_334_p5_outside_all_balls(self):
        assert ball_center((3, 3, 4), 5, 1) is None

    def test_center_contains_itself_case_f(self):
        for p, k in [(2, 1), (3, 2), (5, 1)]:
            q = p**k
            hit = ball_center((q, q, q), p, k)
            assert hit is not None and hit.case == "F"
            assert hit.center == (q, q, q)

    def test_membership_and_uniqueness_against_definition(self):
        # the returned center is within open distance p^k, lies in
        # p^k*(odd lattice), and is the only such point that close
        for p in (2, 3):
            for k in (1, 2):
                q = p**k
                for mu in box(2 * q):
                    hit = ball_center(mu, p, k)
                    candidates = [
                        Multiplicity(q * a, q * b, q * c)
                        for a in range(0, 5)
                        for b in range(0, 5)
                        for c in range(0, 5)
                        if (a + b + c) % 2 == 1
                        and dist1(mu, (q * a, q * b, q * c)) < q
                    ]
                    if hit is None:
                        assert candidates == []
                    else:
                        assert candidates == [hit.center]


class TestBalancedPointsSeeBalancedCenters:
    # The lemma behind the scale walk taking every ball it finds: a ball
    # around an unbalanced center q * nu holds only unbalanced mu.  Every
    # scale 2 p^k <= |mu| that the box reaches is checked, and the unbalanced
    # points of the box show that such balls are there to be found.
    @pytest.mark.parametrize("p, side", [(2, 25), (3, 28), (5, 40), (7, 36)])
    def test_every_ball_holding_a_balanced_mu_has_a_balanced_center(self, p, side):
        p = Prime(p)
        unbalanced_hits = 0
        for mu in box(side):
            k = 1
            while 2 * p**k <= mu.total:
                hit = ball_center(mu, p, k)
                if hit is not None and not hit.center.balanced:
                    assert not mu.balanced, (mu, k, hit.center)
                    unbalanced_hits += 1
                k += 1
        assert unbalanced_hits > 0


class TestComputeK:
    # k is the largest scale whose ball, with balanced center, holds mu
    def test_paper_eg31(self):
        assert fast_exponents((41, 52, 31), 3).k == 3

    def test_small_range_empty(self):
        assert fast_exponents((1, 1, 1), 2).k == 0

    def test_334_p2(self):
        # the qualifying ball sits at scale 2: center (4,4,4) = 4*(1,1,1),
        # and the oracle agrees that gap((4,4,4)) = 4 while gap(mu) = 2
        assert fast_exponents((3, 3, 4), 2).k == 2
        assert oracle_delta((4, 4, 4), 2) == 4
        assert oracle_delta((3, 3, 4), 2) == 2

    def test_rejects_unbalanced(self, monkeypatch):
        # an unbalanced mu walks no scale: k = 0 without a ball search
        def no_search(mu, p, k):
            raise AssertionError("ball search on an unbalanced mu")

        monkeypatch.setattr(fastexp, "ball_center", no_search)
        r = fast_exponents((5, 0, 0), 3)
        assert r.k == 0 and r.tag == "Unbalanced"


class TestFastExponents:
    def test_paper_eg31(self):
        r = fast_exponents((41, 52, 31), 3)
        assert r.delta == 8 and r.exponents == (58, 66)
        assert r.tag == "CaseE" and r.k == 3 and r.center == (54, 54, 27)
        assert r.alpha == (1, 1, 1) and r.beta == (14, 25, 4)

    def test_one_ball_search_per_scale(self, monkeypatch):
        # |mu| = 124 admits the scales 3, 9 and 27 (2 * 81 > 124)
        scales = []

        def counting(mu, p, k):
            scales.append(k)
            return ball_center(mu, p, k)

        monkeypatch.setattr(fastexp, "ball_center", counting)
        assert fast_exponents((41, 52, 31), 3).k == 3
        assert scales == [1, 2, 3]

    def test_euler_point(self):
        for p in (2, 3, 5, 7):
            r = fast_exponents((1, 1, 1), p)
            assert r.delta == 1 and r.exponents == (1, 2) and r.tag == "K0Odd"
            assert r.center == (1, 1, 1)

    def test_334_p5(self):
        r = fast_exponents((3, 3, 4), 5)
        assert r.delta == 0 and r.exponents == (5, 5) and r.tag == "K0Even"

    def test_report_invariants_on_box(self):
        for p in (2, 3):
            for mu in box(8):
                r = fast_exponents(mu, p)
                assert sum(r.exponents) == mu.total
                assert r.exponents[1] - r.exponents[0] == r.delta
                assert r.delta % 2 == mu.total % 2
                if r.center is not None:
                    assert dist1(mu, r.center) < p**r.k
                    scaled = Multiplicity(*(c // p**r.k for c in r.center))
                    assert scaled.total % 2 == 1 and scaled.balanced
                    assert all(c % p**r.k == 0 for c in r.center)

    def test_case_exclusivity(self):
        # for fixed k at most one case fires: the hit is unique, so re-running
        # with each beta rotated must never produce two distinct centers
        for p in (2, 3):
            for k in (1, 2):
                for mu in box(2 * p**k):
                    hit = ball_center(mu, p, k)
                    if hit is None:
                        continue
                    assert dist1(mu, hit.center) < p**k


class TestLargePrime:
    def test_char0_formula_when_p_exceeds_total(self):
        # Wakamiko's characteristic-0 exponents hold whenever p > |mu|.
        for p in (19, 23, 29):
            for mu in box(6):
                n, top = mu.total, max(mu)
                if n >= p:
                    continue
                if 2 * top <= n:
                    expected = (n // 2, n - n // 2)
                else:
                    expected = (n - top, top)
                assert fast_exponents(mu, p).exponents == expected, (mu, p)
                assert oracle_exponents(mu, p)[:2] == expected, (mu, p)


class TestSelfSimilarity:
    def test_delta_scales_by_p(self):
        for p in (2, 3, 5):
            for mu in box(6):
                base = fast_exponents(mu, p).delta
                scaled = fast_exponents(mu.scaled(p), p).delta
                assert scaled == p * base


class TestDeltaZero:
    def test_examples(self):
        assert delta_zero((3, 3, 4), 5)
        assert not delta_zero((3, 3, 4), 3)
        assert delta_zero((0, 0, 0), 2)

    def test_matches_fast_path_on_box(self):
        for p in (2, 3, 5):
            for mu in box(7):
                assert delta_zero(mu, p) == (fast_exponents(mu, p).delta == 0)


class TestEnumerateCenters:
    def test_paper_eg31_center_found(self):
        cs = enumerate_centers(3, 3, (60, 60, 60))
        assert Multiplicity(54, 54, 27) in cs.centers
        assert cs.radius == 27

    def test_smallest_centers_p2(self):
        cs = enumerate_centers(2, 0, (3, 3, 3))
        assert Multiplicity(1, 1, 1) in cs.centers
        for zeta in cs.centers:
            assert zeta.total % 2 == 1 and zeta.balanced

    def test_empty_box(self):
        assert enumerate_centers(3, 1, (1, 1, 1)).centers == []

    def test_centers_are_local_maxima_of_oracle_gap(self):
        for p in (2, 3):
            for k in (0, 1):
                for zeta in enumerate_centers(p, k, (9, 9, 9)).centers:
                    gap = oracle_delta(zeta, p)
                    assert gap == p**k
                    for axis in range(3):
                        for step in (-1, 1):
                            nb = list(zeta)
                            nb[axis] += step
                            if min(nb) < 0:
                                continue
                            assert oracle_delta(tuple(nb), p) == gap - 1

    def test_matches_exclusion_definition(self):
        # reference: p^k * (balanced odd) points of the box lying in no
        # balanced-center ball at any scale m > k with p^m <= |zeta|
        def reference(p, k, bound):
            q = p**k
            found = []
            for nu in box(max(bound) // q):
                zeta = nu.scaled(q)
                if nu.total % 2 == 0 or not nu.balanced:
                    continue
                if any(z > b for z, b in zip(zeta, bound)):
                    continue
                m = k + 1
                while p**m <= zeta.total:
                    hit = ball_center(zeta, p, m)
                    if hit is not None and hit.center.balanced:
                        break
                    m += 1
                else:
                    found.append(zeta)
            return sorted(found)

        cases = [
            (bound, p, k)
            for bound in ((9, 9, 9), (30, 20, 25), (36, 36, 36))
            for p in (2, 3, 5, 7)
            for k in (0, 1, 2)
        ]
        # radius p^3 with room for several centers and for larger balls
        cases += [((70, 60, 64), p, 3) for p in (2, 3)]
        for bound, p, k in cases:
            got = enumerate_centers(p, k, bound).centers
            assert got == reference(p, k, bound), (bound, p, k)

    def test_scaled_center_theorem(self):
        # (g, g', m) maximal with m = g + g' - p^s(g) is a center of radius
        # p^s(g); exercised through the digit machinery at p = 3, m = 16
        for m, p in [(16, 3), (4, 2), (9, 3)]:
            for kappa in gamma_slice(m, p).maximal_elements:
                g, gp, _ = kappa
                if g == 0 or g + gp - p ** s_index(g, p) != m:
                    continue
                k = s_index(g, p)
                cs = enumerate_centers(p, k, (g + 1, gp + 1, m + 1))
                assert kappa in cs.centers
