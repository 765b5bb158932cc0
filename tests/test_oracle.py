import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import dense_referee as dense
from dense_referee import nullspace_mod_p, row_reduce_mod_p
from test_homopoly import refusal_peak_bytes

import triarr
from triarr.derivmod import Multiplicity, in_module, saito_check
from triarr.fastexp import enumerate_centers, fast_exponents
from triarr.homopoly import HomoPoly, binomial_row
from triarr.oracle import _generators, lattice_basis, oracle_delta, oracle_exponents, slice_dim


class TestElimination:
    def test_rref_identity(self):
        red, pivots = row_reduce_mod_p([[2, 0], [0, 3]], 5)
        assert pivots == [0, 1]
        assert red == [[1, 0], [0, 1]]

    def test_rank_against_rationals(self):
        rng = random.Random(101)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7])
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            # independent oracle: exact rank by fraction-free minors over Z
            # (row reduce a copy with Fraction arithmetic)
            from fractions import Fraction

            work = [[Fraction(v) for v in row] for row in m]
            rank = 0
            for c in range(cols):
                pivot = next(
                    (r for r in range(rank, rows) if work[r][c] % p != 0), None
                )
                if pivot is None:
                    continue
                work[rank], work[pivot] = work[pivot], work[rank]
                inv = pow(int(work[rank][c]) % p, p - 2, p)
                work[rank] = [v * inv % p for v in work[rank]]
                for r in range(rows):
                    if r != rank and work[r][c] % p:
                        f = work[r][c] % p
                        work[r] = [
                            (a - f * b) % p for a, b in zip(work[r], work[rank])
                        ]
                rank += 1
            assert len(row_reduce_mod_p(m, p)[1]) == rank

    def test_nullspace_vectors_annihilate(self):
        rng = random.Random(55)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            rows, cols = rng.randrange(0, 5), rng.randrange(1, 6)
            m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            ns = nullspace_mod_p(m, p, cols)
            assert len(ns) == cols - len(row_reduce_mod_p(m, p)[1])
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m for v in ns)

    def test_nullspace_deterministic(self):
        m = [[1, 2, 0, 1], [0, 0, 1, 1]]
        a = nullspace_mod_p(m, 3, 4)
        b = nullspace_mod_p(m, 3, 4)
        assert a == b


class TestDegreeSlice:
    # slice bases come from the dense referee; slice_dim from the lattice
    def test_euler_slice(self):
        for p in (2, 3, 5):
            (theta,) = dense.degree_slice((1, 1, 1), p, 1)
            assert theta.f == HomoPoly.monomial(p, 1, 0)
            assert theta.g == HomoPoly.monomial(p, 0, 1)

    def test_empty_multiplicity_degree_zero(self):
        assert len(dense.degree_slice((0, 0, 0), 3, 0)) == 2

    def test_334_p5_dims(self):
        assert slice_dim((3, 3, 4), 5, 4) == 0
        assert slice_dim((3, 3, 4), 5, 5) == 2

    def test_members_all_pass_membership(self):
        rng = random.Random(77)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            mu = tuple(rng.randrange(5) for _ in range(3))
            d = rng.randrange(sum(mu) + 2)
            for theta in dense.degree_slice(mu, p, d):
                assert theta.degree in (None, d)
                assert in_module(theta, mu)

    def test_free_module_dimension_profile(self):
        # the dense referee's slice dimensions follow the two-generator profile
        # of the lattice exponents, exhaustively on |mu| <= 24 for p in {2, 3, 5}
        for p in (2, 3, 5):
            for total in range(0, 25):
                for m1 in range(total + 1):
                    for m2 in range(total - m1 + 1):
                        mu = Multiplicity(m1, m2, total - m1 - m2)
                        d1 = (total - oracle_delta(mu, p)) // 2
                        d2 = total - d1
                        for d in range(total + 2):
                            expect = max(0, d - d1 + 1) + max(0, d - d2 + 1)
                            assert dense.slice_dim(mu, p, d) == expect, (mu, p, d)

    def test_lower_degree_is_the_first_nonzero_slice_at_large_mu(self):
        # balanced points, where the lower degree is not simply |mu| - max
        rng = random.Random(4242)
        for _ in range(6):
            p = rng.choice([2, 3, 5])
            total = rng.randint(100, 150)
            mu = Multiplicity(total, 0, 0)
            while 2 * max(mu) > total:
                m1 = rng.randint(0, total // 2)
                m2 = rng.randint(0, total - m1)
                mu = Multiplicity(m1, m2, total - m1 - m2)
            d1 = (total - oracle_delta(mu, p)) // 2
            assert dense.slice_dim(mu, p, d1) > 0, (mu, p)
            if d1:
                assert dense.slice_dim(mu, p, d1 - 1) == 0, (mu, p)


def schoolbook_remainders(m1_max, m3, p):
    """u^m1 mod (u+1)^m3 for m1 = 0, ..., m1_max, coefficients below u^m3:
    multiply by u and cancel the u^m3 term with C(m3, k)."""
    modulus = [math.comb(m3, k) % p for k in range(m3 + 1)]
    rem = [1] + [0] * (m3 - 1) if m3 else []
    for _ in range(m1_max + 1):
        yield rem
        top, shifted = (rem[-1], [0] + rem[:-1]) if m3 else (0, [])
        rem = [(a - top * b) % p for a, b in zip(shifted, modulus)]


def taylor_shift(c, p):
    """Coefficients of R(u + 1) for R(v) = sum c_k v^k: blocks of q = p^i
    coefficients, shifted recursively, joined by Horner in (u + 1)^q = u^q + 1."""
    n = len(c)
    if n <= 1:
        return list(c)
    q = 1
    while q * p < n:
        q *= p
    blocks = [taylor_shift(c[i : i + q], p) for i in range(0, n, q)]
    acc = blocks.pop()
    for block in reversed(blocks):
        acc = [0] * q + acc
        for i in range(len(acc) - q):
            acc[i] += acc[i + q]
        for i, b in enumerate(block):
            acc[i] += b
        acc = [a % p for a in acc]
    return acc


def trimmed(a):
    while a and not a[-1]:
        a = a[:-1]
    return a


class TestGenerators:
    def test_match_schoolbook_reduction(self):
        # includes m3 = 0 (remainder 0), m1 = m3 and m1 < m3 (remainder u^m1)
        for p in (2, 3, 5, 7, 11, 13):
            for m3 in range(41):
                modulus = [math.comb(m3, k) % p for k in range(m3 + 1)]
                for m1, rem in enumerate(schoolbook_remainders(40, m3, p)):
                    g = trimmed([-a % p for a in rem])
                    assert _generators((m1, 0, m3), p) == [([1], g), ([], modulus)], (m1, m3, p)

    def test_match_the_taylor_shift_route(self):
        # with v = u + 1, -(u^m1 mod (u+1)^m3) is -(v - 1)^m1 cut below v^m3,
        # shifted back to powers of u
        primes = [q for q in range(2, 1010) if all(q % d for d in range(2, math.isqrt(q) + 1))]
        rng = random.Random(1313)
        for _ in range(300):
            p, m1, m3 = rng.choice(primes), rng.randint(0, 1500), rng.randint(0, 1500)
            row = binomial_row(m1, p, min(m3, m1 + 1))
            neg = [(c if (m1 - k) % 2 else -c) % p for k, c in enumerate(row)]
            assert _generators((m1, 0, m3), p)[0] == ([1], trimmed(taylor_shift(neg, p))), (m1, m3, p)

    def test_guard_trips_before_any_list_is_built(self):
        # (u + 1)^m3 is built first and refused at m3 + 1 > 2^22, before
        # u^m1 or a row of m1 entries exists
        for mu in ((1 << 24, 0, (1 << 24) + 1), (5, 0, 1 << 22)):
            assert refusal_peak_bytes(lambda: oracle_delta(mu, 2)) < 1 << 20, mu


class TestOracleExponents:
    def test_reduction_step_counts(self):
        # Mulders-Storjohann cancellations from the two generators to weak
        # Popov form; no bound in m3 alone holds, so the counts are pinned
        assert lattice_basis((150, 150, 150), 3)[2:] == ((225, 225), 23)
        assert lattice_basis((41, 52, 31), 3)[2:] == ((58, 66), 20)

    def test_paper_334(self):
        assert oracle_exponents((3, 3, 4), 2)[:2] == (4, 6)
        assert oracle_exponents((3, 3, 4), 3)[:2] == (4, 6)
        assert oracle_exponents((3, 3, 4), 5)[:2] == (5, 5)

    def test_trivial_axis_power(self):
        d1, d2, pair = oracle_exponents((2, 0, 0), 3)
        assert (d1, d2) == (0, 2)
        assert pair.low.f.is_zero and pair.low.g.to_text() == "1"

    def test_paper_eg31(self):
        start = time.perf_counter()
        d1, d2, pair = oracle_exponents((41, 52, 31), 3)
        elapsed = time.perf_counter() - start
        assert (d1, d2) == (58, 66)
        assert pair.certified
        assert elapsed < 5.0

    def test_every_pair_certifies_and_sums(self):
        rng = random.Random(31)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            mu = Multiplicity(*(rng.randrange(7) for _ in range(3)))
            d1, d2, pair = oracle_exponents(mu, p)
            assert d1 + d2 == mu.total and d1 <= d2
            assert pair.certified and saito_check(pair.low, pair.high, mu)

    def test_adjacency_small_box(self):
        # |gap difference| = 1 for adjacent points, mu_i <= 4, p in {2, 3}
        for p in (2, 3):
            delta = {}
            for a in range(5):
                for b in range(5):
                    for c in range(5):
                        delta[(a, b, c)] = oracle_delta((a, b, c), p)
            for (a, b, c), d in delta.items():
                for nb in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
                    if nb in delta:
                        assert abs(d - delta[nb]) == 1

    def test_low_element_divisibility_at_scaled_centers(self):
        # at centers with gap > 1 the low generator lives in F[x^p, y^p]
        for p in (2, 3):
            box = (2 * p * p, 2 * p * p, 2 * p * p)
            for k in (1, 2):
                for zeta in enumerate_centers(p, k, box).centers:
                    _, _, pair = oracle_exponents(zeta, p)
                    for comp in (pair.low.f, pair.low.g):
                        for i, j, _ in comp.terms():
                            assert i % p == 0 and j % p == 0


class TestLatticeAgainstDense:
    @staticmethod
    def _fields(fields):
        return [(t.to_text(), t.f.coeffs, t.g.coeffs) for t in fields]

    def test_small_box_outputs_are_identical(self):
        # pair text and gap, byte for byte, against the dense referee's
        # canonical nullspace choice; slice_dim counts the referee's slice basis
        for p, side in ((2, 5), (3, 5), (5, 4), (7, 4)):
            for mu in itertools.product(range(side + 1), repeat=3):
                d1, d2, pair = oracle_exponents(mu, p)
                r1, r2, ref = dense.oracle_exponents(mu, p)
                assert (d1, d2) == (r1, r2) and oracle_delta(mu, p) == r2 - r1
                assert self._fields([pair.low, pair.high]) == self._fields([ref.low, ref.high]), (mu, p)
                for d in range(sum(mu) + 2):
                    assert slice_dim(mu, p, d) == len(dense.degree_slice(mu, p, d)), (mu, p, d)

    def test_large_mu_gap_matches_closed_form(self):
        # seeded |mu| up to about 10^4: lattice gap == closed-form gap; a few
        # points also build and certify the canonical basis
        rng = random.Random(2024)
        points = [((3000, 2600, 2800), 2)]
        for _ in range(40):
            p = rng.choice((2, 3, 5, 7))
            total = rng.randint(100, 10_000)
            if rng.random() < 0.5:  # near the center, where the balls are large
                m1, m2 = (round(total / 3 * rng.uniform(0.9, 1.1)) for _ in range(2))
                points.append(((m1, m2, total - m1 - m2), p))
            else:
                a, b = sorted(rng.randint(0, total) for _ in range(2))
                points.append(((a, b - a, total - b), p))
        for mu, p in points:
            assert oracle_delta(mu, p) == fast_exponents(mu, p).delta, (mu, p)
        for mu, p in points[:4]:
            d1, d2, pair = oracle_exponents(mu, p)
            assert (d1, d2) == fast_exponents(mu, p).exponents, (mu, p)
            assert pair.certified and saito_check(pair.low, pair.high, mu)

    def test_long_generators_match_closed_form(self):
        # (u + 1)^m3 rows of 2^18 and 3^11 + 8 entries, reduced against -u^m1
        for mu, p in (((2**18 - 2, 0, 2**18 - 1), 2), ((3**11, 5, 3**11 + 7), 3)):
            assert oracle_delta(mu, p) == fast_exponents(mu, p).delta, (mu, p)


def test_import_loads_no_numpy():
    # a fresh interpreter started in the directory that holds the package
    src = Path(triarr.__file__).parent.parent
    code = "import sys, triarr; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_cli_import_loads_no_heavy_modules():
    # logging and dataclasses (with inspect, ast and dis) cost memory and
    # import time in every process that runs the CLI; the verify suites are
    # loaded by `triarr verify` alone
    src = Path(triarr.__file__).parent.parent
    code = (
        "import sys, triarr.cli\n"
        "heavy = ('numpy', 'logging', 'dataclasses', 'inspect', 'triarr.verify')\n"
        "print([m for m in heavy if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
