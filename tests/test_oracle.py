import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import dense_referee as dense
import numpy as np
from dense_referee import nullspace_mod_p, row_reduce_mod_p

import triarr
from triarr.derivmod import Multiplicity, in_module, saito_check
from triarr.fastexp import enumerate_centers, fast_exponents
from triarr.homopoly import HomoPoly
from triarr.oracle import (
    degree_slice,
    lattice_basis,
    oracle_delta,
    oracle_exponents,
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
        # pair text, gap and every slice basis, byte for byte, against the
        # dense referee's canonical nullspace choice; slice_dim counts the basis
        for p, side in ((2, 5), (3, 5), (5, 4), (7, 4)):
            for mu in itertools.product(range(side + 1), repeat=3):
                d1, d2, pair = oracle_exponents(mu, p)
                r1, r2, ref = dense.oracle_exponents(mu, p)
                assert (d1, d2) == (r1, r2) and oracle_delta(mu, p) == r2 - r1
                assert self._fields([pair.low, pair.high]) == self._fields([ref.low, ref.high]), (mu, p)
                for d in range(sum(mu) + 2):
                    got = self._fields(degree_slice(mu, p, d).basis)
                    assert got == self._fields(dense.degree_slice(mu, p, d)), (mu, p, d)
                    assert slice_dim(mu, p, d) == len(got), (mu, p, d)

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


def test_import_loads_no_numpy():
    # a fresh interpreter started in the directory that holds the package
    src = Path(triarr.__file__).parent.parent
    code = "import sys, triarr; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
