"""Acceptance gate: every criterion checked exactly, one PASS line each.

Everything here is exact integer/field arithmetic: tolerances are zero,
boxes are exhaustive as stated, and expected values come either from the
worked examples or from an independent route computed inside the test.
Run with -s to see the per-criterion lines.
"""

import time

from full_product import projectively_equal, saito_det

from triarr import verify
from triarr.atlas import AtlasSpec, build_atlas
from triarr.basisfactory import (
    TransformStep,
    gamma_membership,
    gamma_slice,
    plan_basis,
    psi_basis,
    transport,
)
from triarr.derivmod import (
    BasisPair,
    Multiplicity,
    VectorField,
    defining_poly,
    saito_check,
)
from triarr.fastexp import fast_exponents, filter_stats
from triarr.fpcore import binom_mod_p, g_set
from triarr.homopoly import HomoPoly
from triarr.oracle import oracle_exponents


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


class TestCriterion1Golden:
    def test_1a_eg31_values_and_runtime(self):
        fast_exponents((41, 52, 31), 3)  # warm any caches
        best = min(
            _timed(lambda: fast_exponents((41, 52, 31), 3))[0] for _ in range(5)
        )
        elapsed, r = _timed(lambda: fast_exponents((41, 52, 31), 3))
        assert r.delta == 8 and r.exponents == (58, 66)
        assert r.k == 3 and r.center == (54, 54, 27)
        assert best < 1e-3, f"fast path took {best * 1e3:.3f} ms"
        t_oracle, (d1, d2, pair) = _timed(lambda: oracle_exponents((41, 52, 31), 3))
        assert (d1, d2) == (58, 66) and pair.certified
        assert t_oracle < 5.0, f"oracle took {t_oracle:.2f} s"
        report(
            "1a golden (41,52,31) p=3: PASS "
            f"(fast {best * 1e6:.0f} us, oracle {t_oracle * 1e3:.0f} ms)"
        )

    def test_1b_binomial_bases_334(self):
        for p, low_text in (
            (2, "(x^4) dx + (y^4) dy"),
            (3, "(x^4 + x^3*y) dx + (x*y^3 + y^4) dy"),
        ):
            pair = psi_basis((3, 3, 4), p)
            assert pair.exponents == (4, 6)
            assert pair.low.to_text() == low_text
            assert pair.high.to_text() == "(x^3*y^3) dy - (x^3*y^3) dx"
            assert oracle_exponents((3, 3, 4), p)[:2] == (4, 6)
        report("1b golden (3,3,4) p=2,3 exact binomial bases: PASS")

    def test_1c_334_p5_shift(self):
        p = 5
        assert fast_exponents((3, 3, 4), p).delta == 0
        theta = VectorField(
            HomoPoly(p, [0, 0, 0, 1, -1, 1]), HomoPoly(p, [0, 1, -1, 0, 0, 0])
        )
        theta2 = VectorField(HomoPoly.monomial(p, 5, 0), HomoPoly.monomial(p, 0, 5))
        assert saito_check(theta, theta2, (3, 3, 4))
        shifted, target = transport(
            BasisPair(theta, theta2, certified=True), (3, 3, 4), TransformStep("PeriodShift", 1)
        )
        assert target == (8, 8, 4) and shifted.certified
        det = saito_det(shifted.low, shifted.high)
        assert projectively_equal(det, defining_poly((8, 8, 4), p))
        report("1c golden (3,3,4) p=5 gap 0 and shifted basis for (8,8,4): PASS")

    def test_1d_m16_p3_lists(self):
        assert g_set(16, 3) == [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
        gs = gamma_slice(16, 3)
        bs = {tuple(b) for b in gs.minimal_complement}
        ss = {tuple(s) for s in gs.maximal_elements}
        assert len(bs) == 12 and bs == {
            (1, 17, 16), (2, 16, 16), (4, 14, 16), (5, 13, 16), (7, 11, 16),
            (8, 10, 16), (17, 1, 16), (16, 2, 16), (14, 4, 16), (13, 5, 16),
            (11, 7, 16), (10, 8, 16),
        }
        assert len(ss) == 11 and ss == {
            (1, 16, 16), (3, 15, 16), (4, 13, 16), (6, 12, 16), (7, 10, 16),
            (9, 9, 16), (16, 1, 16), (15, 3, 16), (13, 4, 16), (12, 6, 16),
            (10, 7, 16),
        }
        row = [binom_mod_p(16, j, 3) for j in range(17)]
        assert row == [1, 1, 0, 2, 2, 0, 1, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1]
        report("1d golden m=16 p=3 set and binomial-row data: PASS")


class TestCriterion2Differential:
    def test_2_fast_equals_oracle(self):
        start = time.perf_counter()
        before = filter_stats["unbalanced_center_rejections"]
        for p, bound, points in ((2, 12, 2197), (3, 12, 2197), (5, 10, 1331)):
            r = verify.run_suite("differential", p, (bound, bound, bound))
            assert r.passed and r.checks == points, r.line()
        elapsed = time.perf_counter() - start
        assert elapsed < 600, "differential sweep exceeded the runtime budget"
        rejections = filter_stats["unbalanced_center_rejections"] - before
        report(
            "2 differential fast==oracle on 2x2197+1331 points: PASS "
            f"({elapsed:.1f} s; unbalanced-center rejections observed: {rejections})"
        )


class TestCriterion3Properties:
    def test_3_adjacency(self):
        for p in (2, 3):
            r = verify.run_suite("adjacency", p, (8, 8, 8))
            assert r.passed, r.line()
        report("3 adjacency |gap difference| = 1 (mu_i <= 8, p=2,3): PASS")

    def test_3_frobenius(self):
        for p in (2, 3, 5):
            r = verify.run_suite("frobenius", p, (6, 6, 6))
            assert r.passed, r.line()
        report("3 frobenius gap(p*mu) = p*gap(mu) + lifts certify (mu_i <= 6): PASS")

    def test_3_periodicity(self):
        r = verify.run_suite("periodicity", 2, (8, 8, 8))  # d = 1, 2, 3
        assert r.passed, r.line()
        report("3 periodicity gap(mu + (2^d,2^d,0)) = gap(mu), d=1,2,3: PASS")

    def test_3_duality(self):
        for p in (2, 3):
            r = verify.run_suite("duality", p)  # d = 1, 2
            assert r.passed, r.line()
        report("3 duality gap(mu-dual) = gap(mu) on cubes, p=2,3, d=1,2: PASS")

    def test_3_gamma_characterizations(self):
        for p in (2, 3):
            r = verify.run_suite("gamma", p)  # m <= 20
            assert r.passed, r.line()
        report("3 binomial-basis region characterizations, m <= 20, p=2,3: PASS")

    def test_3_center_geometry(self):
        for p in (2, 3):
            r = verify.run_suite("centers", p)  # box (4p^2, 4p^2, 4p^2)
            assert r.passed, r.line()
        report("3 center geometry: gap profile on every ball + low-basis "
               "divisibility: PASS")


class TestCriterion4SaitoEverywhere:
    def test_4_every_emitted_basis_certifies(self):
        checked = 0
        for p in (2, 3):
            for m1 in range(7):
                for m2 in range(7):
                    for m3 in range(7):
                        mu = Multiplicity(m1, m2, m3)
                        d1, d2, pair = oracle_exponents(mu, p)
                        assert pair.certified
                        assert saito_check(pair.low, pair.high, mu)
                        planned, _ = plan_basis(mu, p)
                        assert saito_check(planned.low, planned.high, mu)
                        checked += 2
                        if gamma_membership(mu, p):
                            psi = psi_basis(mu, p)
                            assert saito_check(psi.low, psi.high, mu)
                            checked += 1
                        steps = [TransformStep("FrobeniusLift", p)]
                        if m3 <= p:
                            steps.append(TransformStep("PeriodShift", 1))
                        if max(mu) <= p * p:
                            steps.append(TransformStep("Dual", 2))
                        for step in steps:
                            moved, image = transport(pair, mu, step)
                            assert saito_check(moved.low, moved.high, image)
                            checked += 1
        report(f"4 every emitted basis certifies (all paths, {checked} bases): PASS")


class TestCriterion5AtlasRegression:
    def test_5_sierpinski_plane(self):
        # zero-gap atlas on the plane |mu| = 2*2^5 - 2 versus the binomial
        # parity pattern; the independent route composes the cube reflection
        # (side 2^5) with the gap-0 line criterion, giving
        #   gap = 0  <=>  C(mu3, 31 - mu1) is odd,
        # where the binomial is evaluated by the Lucas digit product.
        total = 2 * 2**5 - 2
        spec = AtlasSpec(
            p=2, mode="sum", value=total, max_mu1=total, max_mu2=total, cell="zero"
        )
        grid = build_atlas(spec)
        filled = 0
        for m1 in range(total + 1):
            for m2 in range(total + 1):
                m3 = total - m1 - m2
                cell = grid.values[m1][m2]
                if m3 < 0:
                    assert cell is None
                    continue
                predicted = binom_mod_p(m3, 31 - m1, 2) != 0
                assert cell == (1 if predicted else 0), (m1, m2, m3)
                filled += cell
        assert filled > 0
        report(
            "5 zero-gap atlas on |mu| = 62 matches the Lucas parity pattern "
            f"cell for cell ({filled} filled cells): PASS"
        )


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out
