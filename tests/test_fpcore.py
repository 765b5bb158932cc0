import math
import random

import pytest
from digit_helpers import least_dominated_by_digit_lists, s_index
from hypothesis import given, settings
from hypothesis import strategies as st

import triarr
from triarr import atlas, fpcore, homopoly, oracle, verify
from triarr.fpcore import (
    GuardError,
    Prime,
    binom_mod_p,
    digits,
    g_set,
    is_prime,
    least_dominated,
)

PRIMES = [2, 3, 5, 7]


class TestPrime:
    def test_accepts_primes(self):
        for p in [2, 3, 5, 7, 11, 101, 65537]:
            assert Prime(p) == p

    def test_rejects_composites(self):
        for n in [-1, 0, 1, 4, 9, 91, 65536]:
            with pytest.raises(ValueError):
                Prime(n)

    def test_rejects_oversized(self):
        with pytest.raises(GuardError):
            Prime((1 << 31) + 11)

    def test_behaves_like_int(self):
        p = Prime(7)
        assert p + 1 == 8 and p % 2 == 1

    def test_nested_calls_divide_once(self, monkeypatch):
        p = Prime(7)
        assert Prime(p) is p
        calls = []
        monkeypatch.setattr(fpcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
        triarr.plan_basis((41, 52, 31), 3)
        triarr.fast_exponents((41, 52, 31), 3)
        assert calls == [3, 3]

    def test_is_prime_small_table(self):
        sieve = [n for n in range(2, 200) if all(n % d for d in range(2, n))]
        assert [n for n in range(200) if is_prime(n)] == sieve


# every public function that takes a modulus, with valid other arguments;
# the unbalanced mu, lo > m and the golden suite return before any use of p
REFUSALS = {
    "digits": lambda p: digits(10, p),
    "binom_mod_p": lambda p: binom_mod_p(10, 3, p),
    "g_set": lambda p: g_set(10, p),
    "least_dominated": lambda p: least_dominated(10, 20, p),
    "binomial_row": lambda p: homopoly.binomial_row(10, p, 5),
    "binomial_power": lambda p: triarr.binomial_power(10, p),
    "defining_poly": lambda p: triarr.defining_poly((1, 2, 3), p),
    "fast_exponents": lambda p: triarr.fast_exponents((5, 5, 6), p),
    "fast_exponents_unbalanced": lambda p: triarr.fast_exponents((9, 0, 0), p),
    "delta_zero": lambda p: triarr.delta_zero((4, 4, 4), p),
    "enumerate_centers": lambda p: triarr.enumerate_centers(p, 1, (6, 6, 6)),
    "gamma_membership": lambda p: triarr.gamma_membership((1, 1, 2), p),
    "psi_fields": lambda p: triarr.psi_fields((1, 1, 2), p),
    "psi_basis": lambda p: triarr.psi_basis((1, 1, 2), p),
    "gamma_slice": lambda p: triarr.gamma_slice(4, p),
    "dual_multiplicity": lambda p: triarr.dual_multiplicity((1, 1, 1), p, 1),
    "plan_basis": lambda p: triarr.plan_basis((3, 3, 4), p),
    "lattice_basis": lambda p: oracle.lattice_basis((3, 3, 4), p),
    "slice_dim": lambda p: triarr.slice_dim((3, 3, 4), p, 5),
    "oracle_delta": lambda p: triarr.oracle_delta((3, 3, 4), p),
    "oracle_exponents": lambda p: triarr.oracle_exponents((3, 3, 4), p),
    "run_suite": lambda p: verify.run_suite("golden", p),
    "AtlasSpec": lambda p: atlas.AtlasSpec(p, "m3", 4, 5, 5),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
@pytest.mark.parametrize("p", (0, 1, 4))
def test_library_refuses_a_modulus_that_is_not_prime(p, name):
    # at p = 1 several of these looped forever; at 4 they answered over Z/4
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        REFUSALS[name](p)


@pytest.mark.parametrize("p", (3.7, 3.0, "3"))
def test_modulus_that_is_not_an_integer_refused(p):
    # int() truncated these, so every public function given 3.7 answered for p = 3
    with pytest.raises(TypeError):
        Prime(p)


class TestDigits:
    def test_paper_expansion_of_16(self):
        assert digits(16, 3) == [1, 2, 1]

    def test_zero_has_no_digits(self):
        assert digits(0, 5) == []

    def test_repeated_division_oracle(self):
        assert digits(41, 3) == [2, 1, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12), st.sampled_from(PRIMES))
    def test_roundtrip(self, m, p):
        ds = digits(m, p)
        assert all(0 <= c < p for c in ds)
        assert not ds or ds[-1] != 0
        assert sum(c * p**i for i, c in enumerate(ds)) == m


class TestSIndex:
    def test_paper_value(self):
        assert s_index(16, 3) == 0

    def test_prime_powers(self):
        for p in PRIMES:
            for k in range(6):
                assert s_index(p**k, p) == k

    def test_derived_value(self):
        assert s_index(12, 3) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            s_index(0, 3)


class TestBinomModP:
    def test_paper_table_m16_p3(self):
        row = [binom_mod_p(16, j, 3) for j in range(17)]
        assert row == [1, 1, 0, 2, 2, 0, 1, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1]

    def test_trivial_j0(self):
        for m in [0, 1, 16, 1000]:
            for p in PRIMES:
                assert binom_mod_p(m, 0, p) == 1

    def test_out_of_range_is_zero(self):
        assert binom_mod_p(5, -1, 3) == 0
        assert binom_mod_p(5, 6, 3) == 0

    def test_exhaustive_against_exact_binomials(self):
        for p in PRIMES:
            for m in range(65):
                for j in range(m + 1):
                    assert binom_mod_p(m, j, p) == math.comb(m, j) % p

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=3000),
        st.sampled_from(PRIMES),
    )
    def test_random_against_exact(self, m, j, p):
        assert binom_mod_p(m, j, p) == (math.comb(m, j) % p if j <= m else 0)


class TestGSet:
    def test_paper_g16_p3(self):
        assert g_set(16, 3) == [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]

    def test_paper_g4(self):
        assert g_set(4, 2) == [0, 4]
        assert g_set(4, 3) == [0, 1, 3, 4]

    def test_lucas_characterization(self):
        for p in (2, 3, 5, 7, 11):
            for m in range(150):
                members = set(g_set(m, p))
                for g in range(m + 1):
                    assert (g in members) == (binom_mod_p(m, g, p) != 0)

    def test_complement_closure_and_pairing(self):
        for p in (2, 3, 5):
            for m in range(1, 60):
                gs = g_set(m, p)
                t = len(gs) - 1
                assert gs[0] == 0 and gs[t] == m
                for i, g in enumerate(gs):
                    assert m - g in gs
                    assert gs[i] + gs[t - i] == m

    def test_guard(self):
        with pytest.raises(GuardError):
            g_set((1 << 25) - 1, 2)


class TestLeastDominated:
    def test_agrees_with_g_set(self):
        for p in PRIMES:
            for m in range(150):
                gs = g_set(m, p)
                for lo in range(-2, m + 3):
                    expect = next((g for g in gs if g >= lo), None)
                    assert least_dominated(m, lo, p) == expect, (m, lo, p)

    def test_large_m_by_digits(self):
        # G_(2^30) = {0, 2^30}: the walk jumps over 2^30 - 1 zero binomials
        assert least_dominated(1 << 30, 1, 2) == 1 << 30
        assert least_dominated(1 << 30, (1 << 30) + 1, 2) is None

    def test_matches_the_digit_list_reference(self):
        # the seeded points cover the largest Prime and |mu|'s 2^32 cap
        rng = random.Random(23)
        primes = [Prime(p) for p in (2, 3, 5, 7, 11, 2147483647)]
        for _ in range(20000):
            p = rng.choice(primes)
            m = rng.randint(0, rng.choice((30, 10**4, 10**9, 1 << 32)))
            lo = rng.randint(-2, m + 2)
            assert least_dominated(m, lo, p) == least_dominated_by_digit_lists(m, lo, p), (m, lo, p)

    def test_reads_the_digits_in_one_pass(self, monkeypatch):
        # no digit vector is built: m and lo are read together, lowest digit first
        calls = []
        monkeypatch.setattr(fpcore, "digits", lambda m, p: calls.append(m) or digits(m, p))
        assert least_dominated(34, 5, 3) == 6  # 34 = (1021)_3, 5 = (12)_3, 6 = (20)_3
        assert triarr.gamma_membership((10, 25, 34), 3)
        assert calls == []
