import random
import time

import numpy as np

from triarr import oracle
from triarr.derivmod import Multiplicity, in_module, saito_check
from triarr.fastexp import enumerate_centers, fast_exponents
from triarr.homopoly import HomoPoly
from triarr.oracle import (
    degree_slice,
    nullspace_mod_p,
    oracle_delta,
    oracle_exponents,
    row_reduce_mod_p,
    slice_dim,
)


class TestElimination:
    def test_rref_identity(self):
        m = np.array([[2, 0], [0, 3]])
        red, pivots = row_reduce_mod_p(m, 5)
        assert pivots == [0, 1]
        assert (red == np.eye(2, dtype=int)).all()

    def test_rank_against_rationals(self):
        rng = random.Random(101)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7])
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = np.array(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            )
            # independent oracle: exact rank by fraction-free minors over Z
            # (row reduce a copy with Fraction arithmetic)
            from fractions import Fraction

            work = [[Fraction(int(v)) for v in row] for row in m.tolist()]
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
            m = np.array(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            ).reshape(rows, cols)
            ns = nullspace_mod_p(m, p)
            assert ns.shape[0] == cols - len(row_reduce_mod_p(m, p)[1])
            if rows and ns.shape[0]:
                assert (m @ ns.T % p == 0).all()

    def test_nullspace_deterministic(self):
        m = np.array([[1, 2, 0, 1], [0, 0, 1, 1]])
        a = nullspace_mod_p(m, 3)
        b = nullspace_mod_p(m, 3)
        assert (a == b).all()


class TestDegreeSlice:
    def test_euler_slice(self):
        for p in (2, 3, 5):
            sl = degree_slice((1, 1, 1), p, 1)
            assert sl.dim == 1
            theta = sl.basis[0]
            assert theta.f == HomoPoly.monomial(p, 1, 0)
            assert theta.g == HomoPoly.monomial(p, 0, 1)

    def test_empty_multiplicity_degree_zero(self):
        sl = degree_slice((0, 0, 0), 3, 0)
        assert sl.dim == 2

    def test_334_p5_dims(self):
        assert slice_dim((3, 3, 4), 5, 4) == 0
        assert slice_dim((3, 3, 4), 5, 5) == 2

    def test_members_all_pass_membership(self):
        rng = random.Random(77)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            mu = tuple(rng.randrange(5) for _ in range(3))
            d = rng.randrange(sum(mu) + 2)
            for theta in degree_slice(mu, p, d).basis:
                assert theta.degree in (None, d)
                assert in_module(theta, mu)

    def test_free_module_dimension_profile(self):
        # dim of degree-d slice must follow the two-generator profile
        # exhaustively on |mu| <= 24 for p in {2, 3, 5}
        for p in (2, 3, 5):
            for total in range(0, 25):
                for m1 in range(total + 1):
                    for m2 in range(total - m1 + 1):
                        mu = Multiplicity(m1, m2, total - m1 - m2)
                        d1 = (total - oracle_delta(mu, p)) // 2
                        d2 = total - d1
                        for d in range(total + 2):
                            expect = max(0, d - d1 + 1) + max(0, d - d2 + 1)
                            assert slice_dim(mu, p, d) == expect, (mu, p, d)

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
            assert slice_dim(mu, p, d1) > 0, (mu, p)
            if d1:
                assert slice_dim(mu, p, d1 - 1) == 0, (mu, p)


class TestOracleExponents:
    @staticmethod
    def _record_built_degrees(monkeypatch):
        built = []
        real = oracle._constraint_matrix

        def counting(mu, p, d):
            built.append(d)
            return real(mu, p, d)

        monkeypatch.setattr(oracle, "_constraint_matrix", counting)
        return built

    def test_bisection_builds_logarithmically_many_slices(self, monkeypatch):
        # [0, 225] holds 226 degrees: one check at the top, then at most 8 halvings
        built = self._record_built_degrees(monkeypatch)
        assert oracle_delta((150, 150, 150), 3) == fast_exponents((150, 150, 150), 3).delta
        assert len(built) <= 9

    def test_equal_exponents_build_their_slice_once(self, monkeypatch):
        # d1 = d2 = 225: the bisection's 8 matrices, and the nullspace it kept
        # at 225 serves both generators
        built = self._record_built_degrees(monkeypatch)
        d1, d2, basis = oracle_exponents((150, 150, 150), 3)
        assert (d1, d2) == (225, 225) and basis.certified
        assert len(built) == 8 and built.count(225) == 1

    def test_low_generator_reuses_the_bisection_slice(self, monkeypatch):
        # d1 = 58 < d2 = 66: only the d2-slice is built after the bisection
        built = self._record_built_degrees(monkeypatch)
        d1, d2, basis = oracle_exponents((41, 52, 31), 3)
        assert (d1, d2) == (58, 66) and basis.certified
        assert built == [62, 31, 47, 55, 59, 57, 58, 66]

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
