import random
import time
import tracemalloc

import pytest
from full_product import projectively_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from triarr import homopoly
from triarr.basisfactory import TransformStep, psi_basis, psi_fields, transport
from triarr.fpcore import GuardError, binom_mod_p
from triarr.homopoly import HomoPoly, binomial_power, binomial_row, frobenius_root

PRIMES = [2, 3, 5, 7]


def random_poly(rng, p, degree):
    coeffs = [rng.randrange(p) for _ in range(degree + 1)]
    return HomoPoly(p, coeffs)


@st.composite
def polys(draw, max_degree=8):
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(st.lists(st.integers(0, 6), min_size=d + 1, max_size=d + 1))
    return HomoPoly(p, coeffs)


class TestConstruction:
    def test_all_zero_collapses_to_zero(self):
        h = HomoPoly(5, [0, 0, 0])
        assert h.is_zero and h.degree is None and h.coeffs == ()

    def test_reduction(self):
        assert HomoPoly(3, [4, 7, 9]).coeffs == (1, 1, 0)

    def test_monomial_and_terms(self):
        h = HomoPoly.monomial(5, 2, 3, 4)
        assert h.degree == 5 and list(h.terms()) == [(2, 3, 4)]

    @pytest.mark.parametrize("p", (0, 1, 4))
    @pytest.mark.parametrize("build", [
        lambda p: HomoPoly(p, [1, 2, 3]),
        lambda p: HomoPoly.zero(p),
        lambda p: HomoPoly.monomial(p, 1, 0),
    ], ids=["init", "zero", "monomial"])
    def test_modulus_that_is_not_prime_refused(self, build, p):
        # p = 1 made every polynomial zero, p = 0 raised ZeroDivisionError
        # and p = 4 built polynomials over Z/4
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            build(p)


    def test_coefficients_that_are_not_integers_refused(self):
        # int() truncated them: [1, 2.5] built x + 2y over F_3
        for build in (
            lambda: HomoPoly(3, [1, 2.5]),
            lambda: HomoPoly(3, ["1", 2]),
            lambda: HomoPoly.monomial(3, 1, 0, 1.5),
            lambda: HomoPoly(3, [1, 2]).frobenius_scale(3.0),
        ):
            with pytest.raises(TypeError):
                build()


def refusal_peak_bytes(build) -> int:
    """Traced peak of a call that must raise GuardError."""
    tracemalloc.start()
    try:
        with pytest.raises(GuardError):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# each builds a polynomial of k + 1 coefficients, k a power of 2
DENSE_BUILDERS = {
    "monomial": lambda k: HomoPoly.monomial(2, k, 0),
    "times_monomial_x": lambda k: HomoPoly(2, (1,)).times_monomial(k, 0),
    "times_monomial_y": lambda k: HomoPoly(2, (1,)).times_monomial(0, k),
    "frobenius_scale": lambda k: HomoPoly(2, [1, 1]).frobenius_scale(k),
}


@pytest.mark.parametrize("name", DENSE_BUILDERS)
def test_dense_builder_refuses_before_it_allocates(name, monkeypatch):
    # 2^22 + 1 coefficients would be a 32 MB list; the refusal traces none of it
    build = DENSE_BUILDERS[name]
    assert refusal_peak_bytes(lambda: build(1 << 22)) < 1 << 20
    monkeypatch.setattr(homopoly, "DENSE_ROW_GUARD", 9)
    assert build(8).degree == 8
    with pytest.raises(GuardError):
        build(16)


class TestAdd:
    def test_disjoint_supports(self):
        # x^4 + x^3 y over F_3
        a = HomoPoly.monomial(3, 4, 0)
        b = HomoPoly.monomial(3, 3, 1)
        assert (a + b).coeffs == (0, 0, 0, 1, 1)

    def test_zero_identity(self):
        h = HomoPoly(2, [1, 1])
        assert h + HomoPoly.zero(2) == h
        assert HomoPoly.zero(2) + h == h

    def test_additive_inverse(self):
        h = HomoPoly(7, [1, 2, 3])
        assert (h + (-h)).is_zero

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HomoPoly(3, [1]) + HomoPoly(3, [1, 1])


class TestTimesMonomial:
    # h = x (x + y) = x y + x^2 over F_3: x divides it once, y not at all
    h = HomoPoly(3, [0, 1, 1])

    def test_shift_and_exact_division(self):
        assert self.h.times_monomial(2, 1).coeffs == (0, 0, 0, 1, 1, 0)
        assert self.h.times_monomial(-1, 0) == HomoPoly(3, [1, 1])
        assert self.h.times_monomial(2, 1).times_monomial(-3, -1) == HomoPoly(3, [1, 1])

    @pytest.mark.parametrize("i, j", [(-2, 0), (-4, 0), (0, -1), (0, -4), (-1, -1), (2, -1)])
    def test_inexact_division_raises(self, i, j):
        with pytest.raises(ValueError, match="not divisible"):
            self.h.times_monomial(i, j)

    @pytest.mark.parametrize("i, j", [(0, 0), (2, 1), (-2, 0), (0, -5)])
    def test_zero_shifts_to_itself(self, i, j):
        assert HomoPoly.zero(3).times_monomial(i, j).is_zero


class TestCanonicalResults:
    """Operations that skip the public constructor's reduction must still
    return what that constructor would build from the same coefficients."""

    @staticmethod
    def assert_canonical(h):
        rebuilt = HomoPoly(h.p, h.coeffs)
        assert (h.coeffs, h.degree) == (rebuilt.coeffs, rebuilt.degree) and h == rebuilt
        assert type(h.coeffs) is tuple
        assert h.is_zero == (h.coeffs == ()) == (not any(h.coeffs))

    def test_every_trusted_path(self):
        rng = random.Random(41)
        for _ in range(300):
            p = rng.choice(PRIMES)
            d = rng.randrange(6)
            a, b = random_poly(rng, p, d), random_poly(rng, p, d)
            k = rng.randrange(4)
            i, j = rng.randrange(4), rng.randrange(4)
            mu = (rng.choice([0, rng.randrange(8)]), rng.randrange(8), rng.randrange(8))
            outs = [a + b, a + (-a), -a, a.times_monomial(k, 0), a.times_monomial(0, k),
                    a.times_monomial(k, 0).times_monomial(-k, 0),
                    a.times_monomial(0, k).times_monomial(0, -k),
                    a.times_monomial(k, k).times_monomial(-k, k),
                    a.frobenius_scale(p), a.frobenius_scale(p * p), binomial_power(d, p),
                    HomoPoly.monomial(p, i, j, rng.randrange(-3, 4) * p),
                    HomoPoly.monomial(p, i, j, rng.randrange(-3, 4) * p - 1)]
            outs += [a.scale(c) for c in (0, 1, -1, p - 1, p + 1, rng.randrange(-99, 99))]
            outs += [h for field in psi_fields(mu, p) for h in (field.f, field.g)]
            for h in outs:
                self.assert_canonical(h)
            assert (a + (-a)).coeffs == () and (a + (-a)).is_zero
            assert (-a).times_monomial(k, 0).times_monomial(-k, 0) == -a
            assert a.scale(0).coeffs == () and a.scale(p + 1) == a
            assert HomoPoly.monomial(p, i, j, p).coeffs == ()

    def test_psi_fields_sides_that_vanish(self):
        # m1 > m3 sends every term of (x+y)^m3 to dy, and m1 = 0 every term to dx
        for p in PRIMES:
            psi, _ = psi_fields((5, 0, 2), p)
            assert psi.f.coeffs == () and psi.g == binomial_power(2, p)
            psi, _ = psi_fields((0, 3, 4), p)
            assert psi.f == binomial_power(4, p) and psi.g.coeffs == ()

    def test_unreduced_top_entry_is_kept(self):
        # homogeneous vectors are not trimmed: y^2 is (1, 0, 0)
        y2 = HomoPoly.monomial(3, 0, 2)
        for h in (y2 + y2, -y2, y2.times_monomial(0, 1), y2.frobenius_scale(3)):
            self.assert_canonical(h)
            assert h.coeffs[-1] == 0


class TestMul:
    def test_x_times_y(self):
        x = HomoPoly.monomial(5, 1, 0)
        y = HomoPoly.monomial(5, 0, 1)
        assert (x * y).coeffs == (0, 1, 0)

    def test_freshman_dream(self):
        s = HomoPoly(2, [1, 1])
        assert (s * s).coeffs == (1, 0, 1)

    def test_against_integer_convolution(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice(PRIMES)
            a = random_poly(rng, p, rng.randrange(6))
            b = random_poly(rng, p, rng.randrange(6))
            if a.is_zero or b.is_zero:
                continue
            expect = [0] * (a.degree + b.degree + 1)
            for i, ca in enumerate(a.coeffs):
                for j, cb in enumerate(b.coeffs):
                    expect[i + j] += ca * cb
            assert (a * b).coeffs == tuple(c % p for c in expect) or all(
                c % p == 0 for c in expect
            )


class TestBinomialPower:
    def test_paper_row_m16_p3(self):
        assert list(binomial_power(16, 3).coeffs) == [
            1, 1, 0, 2, 2, 0, 1, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1,
        ]

    def test_constant_one(self):
        assert binomial_power(0, 7).coeffs == (1,)

    def test_frobenius_powers(self):
        for p in PRIMES:
            for k in (1, 2):
                h = binomial_power(p**k, p)
                assert list(h.terms()) == [(0, p**k, 1), (p**k, 0, 1)]

    def test_lucas_cross_check(self):
        # the digit-product row against one Lucas binomial per coefficient
        for p in (2, 3, 5, 7, 11):
            for m in range(400):
                row = [binom_mod_p(m, j, p) for j in range(m + 1)]
                assert list(binomial_power(m, p).coeffs) == row, (m, p)
                for n in {0, 1, m // p, m // 2, m, m + 1}:
                    assert binomial_row(m, p, n) == row[:n], (m, p, n)

    def test_digit_rows_at_large_primes(self):
        # one digit row per digit of m, built by the multiplicative recurrence
        for p in (1009, 2003):
            for m in (p - 1, (p - 1) // 2, 3 * p - 1):
                row = binomial_row(m, p, m + 1)
                assert len(row) == m + 1
                for j in list(range(0, m + 1, m // 50 + 1)) + [m - 1, m]:
                    assert row[j] == binom_mod_p(m, j, p), (m, p, j)
        start = time.perf_counter()
        binomial_power(2002, 2003)
        assert time.perf_counter() - start < 1.0  # was 2.4 s with Lucas entries

    def test_row_guard_bounds_the_row_length(self, monkeypatch):
        monkeypatch.setattr(homopoly, "DENSE_ROW_GUARD", 9)
        assert binomial_power(8, 2).degree == 8
        assert binomial_row(100, 3, 9) == [binom_mod_p(100, j, 3) for j in range(9)]
        with pytest.raises(GuardError):
            binomial_power(9, 2)
        with pytest.raises(GuardError):
            binomial_row(100, 3, 10)

    def test_agrees_with_repeated_multiplication(self):
        for p in PRIMES:
            s = HomoPoly(p, [1, 1])
            acc = HomoPoly(p, (1,))
            for m in range(12):
                assert acc == binomial_power(m, p)
                acc = acc * s


def long_division(h: HomoPoly, c: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of h(u, 1) by the monic (u + 1)^c, by textbook
    long division; h nonzero with c <= degree.  Zero divisor terms are
    skipped, so a spread divisor (u^q + 1)^r costs r + 1 terms per step."""
    p = h.p
    divisor = [(i, dc) for i, dc in enumerate(binomial_power(c, p).coeffs) if dc]
    rem = list(h.coeffs)
    quot = [0] * (len(rem) - c)
    for top in range(len(rem) - 1, c - 1, -1):
        lead = rem[top] % p
        quot[top - c] = lead
        if lead:
            for i, dc in divisor:
                rem[top - c + i] = (rem[top - c + i] - lead * dc) % p
    return quot, [r % p for r in rem]


def axis_window(h: HomoPoly, axis: str, k: int) -> bool:
    """Whether x^k (axis 'x') or y^k (axis 'y') divides h, by the coefficient
    window one axis at a time."""
    if k <= 0 or h.is_zero:
        return True
    if k > h.degree:
        return False
    return not any(h.coeffs[:k] if axis == "x" else h.coeffs[h.degree - k + 1 :])


def divisible_by_long_division(h: HomoPoly, c: int) -> bool:
    """Whether (x + y)^c divides h, by long_division."""
    if c <= 0 or h.is_zero:
        return True
    if c > h.degree:
        return False
    return not any(long_division(h, c)[1])


class TestDivisibility:
    def test_axis_examples(self):
        h = HomoPoly.monomial(5, 3, 1)  # x^3 y
        assert h.divisible_by_monomial(3, 0)
        assert not h.divisible_by_monomial(4, 0)
        assert h.divisible_by_monomial(0, 1)
        assert not h.divisible_by_monomial(0, 2)
        assert h.divisible_by_monomial(3, 1)
        assert not h.divisible_by_monomial(3, 2)

    def test_zero_divisible_by_everything(self):
        z = HomoPoly.zero(3)
        assert z.divisible_by_monomial(100, 0)
        assert z.divisible_by_monomial(0, 100)
        assert z.divisible_by_monomial(100, 100)
        assert z.divisible_by_linear_power(100)

    def test_psi_dy_component(self):
        # x y^3 + y^4 over F_3 is divisible by y^3
        h = HomoPoly(3, [1, 1, 0, 0, 0])
        assert h.divisible_by_monomial(0, 3)
        assert not h.divisible_by_monomial(0, 4)

    def test_axis_agrees_with_division_then_remultiplication(self):
        rng = random.Random(11)
        x = lambda p: HomoPoly.monomial(p, 1, 0)
        y = lambda p: HomoPoly.monomial(p, 0, 1)
        for _ in range(60):
            p = rng.choice(PRIMES)
            base = random_poly(rng, p, rng.randrange(5))
            k = rng.randrange(4)
            for (i, j), mono in (((k, 0), x(p)), ((0, k), y(p))):
                h = base
                for _ in range(k):
                    h = h * mono
                assert h.divisible_by_monomial(i, j)
                if not h.is_zero and k:
                    back = h.times_monomial(-i, -j)
                    for _ in range(k):
                        back = back * mono
                    assert back == h


    @pytest.mark.parametrize("p", PRIMES)
    def test_monomial_agrees_with_the_axis_windows(self, p):
        # x^i y^j divides h iff x^i and y^j both do; the degrees run past the
        # polynomial's, alone and summed, and the zero polynomial is included
        rng = random.Random(40 + p)
        hs = [HomoPoly.zero(p)] + [
            random_poly(rng, p, rng.randrange(7)).times_monomial(rng.randrange(4), rng.randrange(4))
            for _ in range(40)
        ]
        for h in hs:
            top = (h.degree or 0) + 3
            for i in range(top):
                for j in range(top):
                    want = axis_window(h, "x", i) and axis_window(h, "y", j)
                    assert h.divisible_by_monomial(i, j) == want, (h, i, j)


class TestRemainderModLinear:
    def test_linear_power_itself(self):
        assert binomial_power(4, 5).remainder_mod_linear(4) == [0, 0, 0, 0]

    def test_x_squared_at_minus_one(self):
        assert HomoPoly.monomial(3, 2, 0).remainder_mod_linear(1) == [1]

    def test_paper_psi_sum(self):
        # x^4 + x^3 y + x y^3 + y^4 = (x+y)^4 over F_3
        h = HomoPoly(3, [1, 1, 0, 1, 1])
        assert h.remainder_mod_linear(4) == [0, 0, 0, 0]
        assert h == binomial_power(4, 3)

    @settings(max_examples=120, deadline=None)
    @given(polys(max_degree=6), st.integers(min_value=0, max_value=8))
    def test_multiples_have_zero_remainder(self, h, c):
        p = h.p
        prod = h * binomial_power(c, p)
        assert prod.remainder_mod_linear(c) == [0] * c
        assert prod.divisible_by_linear_power(c)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_frobenius_power_is_alternating_stride_sum(self, p, k):
        # (u+1)^(p^k) = u^c + 1 with c = p^k, and u^c = -1 modulo it
        c = p**k
        rng = random.Random(c)
        for degree in (c // 2, c - 1, c, 3 * c + 2, 5 * c + 1):
            h = random_poly(rng, p, degree)
            a = h.coeffs
            want = [sum((-1) ** t * a[i] for t, i in enumerate(range(j, len(a), c))) % p for j in range(c)]
            assert h.remainder_mod_linear(c) == want

    @settings(max_examples=120, deadline=None)
    @given(
        polys(max_degree=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=40),
    )
    def test_divisibility_agrees_with_long_division(self, base, e, c):
        # independent oracle: textbook univariate long division of h(u, 1)
        # by the monic divisor (u+1)^c, then a re-multiplication identity;
        # the factor (x+y)^e makes both answers common while c spans
        # several base-p digits
        p = base.p
        h = base * binomial_power(e, p)
        divis = h.divisible_by_linear_power(c)
        assert divis == divisible_by_long_division(h, c)
        if divis and not h.is_zero:
            q = HomoPoly(p, long_division(h, c)[0])
            back = q * binomial_power(c, p) if not q.is_zero else HomoPoly.zero(p)
            assert back == h

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(PRIMES),
        st.integers(0, 3),
        st.lists(st.integers(0, 6), min_size=1, max_size=6),
        st.integers(0, 3),
        st.integers(0, 2),
        st.booleans(),
        st.data(),
    )
    def test_frobenius_spread_agrees_with_long_division(self, p, k, cs, r, ys, off, data):
        # h = y^ys H(x^q, y^q) with (x+y)^r | H, so the test descends to the
        # root H; one off-stride coefficient makes q = 1 for h itself
        q = p**k
        big = HomoPoly(p, cs) * binomial_power(r, p)
        if big.is_zero:
            return
        h = big.frobenius_scale(q).times_monomial(0, ys)
        if off and q > 1 and h.degree:
            cs = list(h.coeffs)
            i = data.draw(st.sampled_from([i for i in range(len(cs)) if i % q]))
            cs[i] = data.draw(st.integers(1, p - 1))
            h = HomoPoly(p, cs)
        for c in (0, 1, q * r - 1, q * r, q * r + 1, data.draw(st.integers(0, h.degree + 2))):
            assert h.divisible_by_linear_power(c) == divisible_by_long_division(h, c), (q, c)

    def test_multiplicity_at_transport_scale(self):
        # h = r * (x+y)^e with r(-1, 1) != 0, so (x+y)^e is the exact power
        rng = random.Random(1500)
        for p in PRIMES:
            for _ in range(3):
                e = rng.randint(200, 1000)
                r = random_poly(rng, p, rng.randint(0, 1500 - e))
                r_at = sum((-1) ** i * a for i, a in enumerate(r.coeffs)) % p
                if not r_at:
                    r = r + HomoPoly.monomial(p, 0, r.degree or 0)
                h = r * binomial_power(e, p)
                assert h.divisible_by_linear_power(e)
                assert not h.divisible_by_linear_power(e + 1)


class TestFrobeniusRoot:
    def test_stride_and_roots(self):
        # x^9 + 2 y^9 and x^6 y^3 over F_3: common stride 3, not 9
        f, g = HomoPoly(3, [2] + [0] * 8 + [1]), HomoPoly.monomial(3, 6, 3)
        assert frobenius_root(f) == (9, (HomoPoly(3, [2, 1]),))
        q, (rf, rg) = frobenius_root(f, g)
        assert q == 3 and rf.coeffs == (2, 0, 0, 1) and rg.coeffs == (0, 0, 1, 0)

    def test_zero_and_off_stride(self):
        z, h = HomoPoly.zero(2), HomoPoly(2, [1, 1])
        assert frobenius_root(z) == (1, (z,))
        assert frobenius_root(z, h) == (1, (z, h))
        q, roots = frobenius_root(z, h.frobenius_scale(4))
        assert q == 4 and roots == (z, h)

    def test_lift_is_tested_at_the_root(self, monkeypatch):
        # a FrobeniusLift(q) pair is certified on polynomials of degree
        # at most its degree / q
        p, mu, q = 3, (3, 5, 7), 9
        pair = psi_basis(mu, p)
        degrees = []
        divide = HomoPoly.remainder_mod_linear
        monkeypatch.setattr(
            HomoPoly, "remainder_mod_linear", lambda h, c: degrees.append(h.degree) or divide(h, c)
        )
        lifted, nu = transport(pair, mu, TransformStep("FrobeniusLift", q))
        assert lifted.certified and nu == tuple(q * m for m in mu)
        top = max(lifted.exponents)
        assert degrees and max(degrees) <= top // q, (degrees, top)


class TestFrobeniusScale:
    def test_basic(self):
        h = HomoPoly(3, [1, 1])  # x + y
        assert h.frobenius_scale(3).coeffs == (1, 0, 0, 1)

    def test_zero(self):
        assert HomoPoly.zero(5).frobenius_scale(5).is_zero

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            HomoPoly(3, [1, 1]).frobenius_scale(6)

    @settings(max_examples=80, deadline=None)
    @given(polys(max_degree=5), st.integers(0, 2), st.integers(0, 2))
    def test_composition(self, h, d1, d2):
        p = h.p
        q1, q2 = p**d1, p**d2
        assert h.frobenius_scale(q1).frobenius_scale(q2) == h.frobenius_scale(q1 * q2)

    @settings(max_examples=80, deadline=None)
    @given(polys(max_degree=4), polys(max_degree=4), st.integers(1, 2))
    def test_multiplicative(self, h1, h2, d):
        if h1.p != h2.p:
            return
        q = h1.p**d
        assert (h1 * h2).frobenius_scale(q) == h1.frobenius_scale(q) * h2.frobenius_scale(q)

    def test_is_actual_power(self):
        rng = random.Random(3)
        for p in (2, 3):
            h = random_poly(rng, p, 3)
            power = HomoPoly(p, (1,))
            for _ in range(p):
                power = power * h
            assert power == h.frobenius_scale(p)


class TestProjectiveEquality:
    def test_scalar_multiples(self):
        a = HomoPoly(5, [2, 2])
        b = HomoPoly(5, [1, 1])
        assert projectively_equal(a, b) and projectively_equal(b, a)

    def test_distinct_monomials(self):
        assert not projectively_equal(HomoPoly.monomial(3, 1, 0), HomoPoly.monomial(3, 0, 1))

    def test_zero_cases(self):
        z = HomoPoly.zero(3)
        assert projectively_equal(z, HomoPoly(3, [0]))
        assert not projectively_equal(z, HomoPoly(3, [1]))


class TestText:
    def test_examples(self):
        assert HomoPoly(3, [0, 0, 0, 1, 1]).to_text() == "x^4 + x^3*y"
        assert HomoPoly.monomial(5, 2, 3, 2).to_text() == "2*x^2*y^3"
        assert HomoPoly.zero(3).to_text() == "0"
        assert HomoPoly(3, (2,)).to_text() == "2"
        assert HomoPoly(3, [1, 1]).to_text() == "x + y"
