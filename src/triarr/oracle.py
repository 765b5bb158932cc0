"""Ground-truth solver: graded nullspaces of the logarithmic module over F_p.

Every multiplicity on two variables admits a free basis of two homogeneous
fields, so the module is determined degree by degree.  This solver knows
nothing of the closed-form lattice theory: for each degree d it parametrizes
f = x^m1 * ftilde and g = y^m2 * gtilde, imposes the m3 linear conditions
"(x+y)^m3 divides f + g" and reads off an exact nullspace basis by Gaussian
elimination over F_p.  Multiplying by x maps the degree-d slice into the
degree-(d+1) slice, so the degrees with a nonzero slice form an up-set and
the lower exponent, the least of them, is found by bisection over
[0, |mu|/2]; Saito's criterion certifies the resulting pair.

The (x+y)-conditions are assembled from a signed Pascal matrix
(coefficients of the change of basis u^j -> (u+1)^k), which is a route
independent of the membership predicate's test, exact division by the
Frobenius factors u^(p^i) + 1 of (u + 1)^m3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivmod import (
    BasisPair,
    CertificationError,
    Multiplicity,
    VectorField,
    as_multiplicity,
    saito_check,
    saito_det,
)
from .homopoly import HomoPoly

# -- GF(p) dense elimination kernels ---------------------------------------


def row_reduce_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p with deterministic pivoting.

    Pivots are chosen as the first row with a nonzero entry, scanning
    columns left to right; exact arithmetic on int64 residues.
    """
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Deterministic nullspace basis over F_p, one row per basis vector.

    Vectors are indexed by the free columns in ascending order: the vector
    for free column t has entry 1 there and -R[i, t] at each pivot column.
    """
    red, pivots = row_reduce_mod_p(mat, p)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[: len(pivots), free].T % p
    return basis


# -- constraint assembly ----------------------------------------------------

# Per prime: signed change-of-basis matrix A with A[k, j] = (-1)^(j-k) C(j, k)
# mod p, so that a polynomial sum(c_j u^j) has (u+1)-basis coefficients
# b_k = sum_j A[k, j] c_j.  Grown geometrically and cached.
_pascal_cache: dict[int, np.ndarray] = {}


def _signed_pascal(p: int, size: int) -> np.ndarray:
    cached = _pascal_cache.get(p)
    if cached is not None and cached.shape[0] >= size:
        return cached
    n = max(size, 2 * (cached.shape[0] if cached is not None else 64))
    binom = np.zeros((n, n), dtype=np.int64)
    binom[0, 0] = 1
    for j in range(1, n):
        binom[j, 0] = 1
        binom[j, 1:] = (binom[j - 1, 1:] + binom[j - 1, :-1]) % p
    jj, kk = np.meshgrid(np.arange(n), np.arange(n))
    signed = np.where((jj - kk) % 2 == 0, binom.T, (p - binom.T) % p) % p
    _pascal_cache[p] = signed
    return signed


def _constraint_matrix(mu: Multiplicity, p: int, d: int) -> np.ndarray | None:
    """Constraint rows for the degree-d slice; None when no unknowns exist.

    Columns: the d-m1+1 coefficients of ftilde (present when d >= m1), then
    the d-m2+1 coefficients of gtilde.  Rows: the m3 shifted-basis
    coefficients of f + g that must vanish.
    """
    n_f = d - mu.mu1 + 1 if d >= mu.mu1 else 0
    n_g = d - mu.mu2 + 1 if d >= mu.mu2 else 0
    if n_f + n_g == 0:
        return None
    pas = _signed_pascal(p, d + 1)
    blocks = []
    if n_f:
        # ftilde coefficient i lands on x^(m1+i) y^(d-m1-i)
        blocks.append(pas[: mu.mu3, mu.mu1 : d + 1])
    if n_g:
        # gtilde coefficient i lands on x^i y^(d-i)
        blocks.append(pas[: mu.mu3, :n_g])
    return np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]


def _vector_field(mu: Multiplicity, p: int, d: int, vec: np.ndarray) -> VectorField:
    n_f = d - mu.mu1 + 1 if d >= mu.mu1 else 0
    f_coeffs = [0] * (d + 1)
    g_coeffs = [0] * (d + 1)
    for i in range(n_f):
        f_coeffs[mu.mu1 + i] = int(vec[i])
    for i in range(len(vec) - n_f):
        g_coeffs[i] = int(vec[n_f + i])
    return VectorField(HomoPoly(p, f_coeffs), HomoPoly(p, g_coeffs))


# -- public solver -----------------------------------------------------------


@dataclass(frozen=True)
class DegreeSlice:
    """F_p-basis of the degree-d graded piece of the logarithmic module."""

    degree: int
    basis: list[VectorField]

    @property
    def dim(self) -> int:
        return len(self.basis)


def slice_dim(mu, p: int, d: int) -> int:
    """Dimension of the degree-d graded piece."""
    mu = as_multiplicity(mu)
    m = _constraint_matrix(mu, p, d)
    if m is None:
        return 0
    return m.shape[1] - len(row_reduce_mod_p(m, p)[1])


def degree_slice(mu, p: int, d: int) -> DegreeSlice:
    """Nullspace basis of the degree-d graded piece, in elimination order."""
    mu = as_multiplicity(mu)
    m = _constraint_matrix(mu, p, d)
    if m is None:
        return DegreeSlice(d, [])
    vecs = nullspace_mod_p(m, p)
    return DegreeSlice(d, [_vector_field(mu, p, d, v) for v in vecs])


def oracle_delta(mu, p: int) -> int:
    """Exponent gap d2 - d1 from the bisected lower degree (no basis built)."""
    mu = as_multiplicity(mu)
    return mu.total - 2 * _lower_degree(mu, p)


def _lower_degree(mu: Multiplicity, p: int) -> int:
    # Bisection is exact: x*theta is in the module whenever theta is, so the
    # degrees with a nonzero slice form an up-set.
    lo, hi = 0, mu.total // 2
    if slice_dim(mu, p, hi) == 0:
        raise CertificationError(f"no nonzero slice up to |mu|/2 for {tuple(mu)}")
    while lo < hi:
        mid = (lo + hi) // 2
        if slice_dim(mu, p, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def oracle_exponents(mu, p: int) -> tuple[int, int, BasisPair]:
    """Exponents (d1, d2) and a Saito-certified basis, by brute force.

    d1 is the first degree with a nonzero slice; d2 = |mu| - d1.  The low
    generator is the first nullspace vector at d1; the high generator is the
    first vector of the d2-slice whose determinant against it is nonzero
    (one exists because the module is free).  When d1 = d2 the one slice
    serves both.
    """
    mu = as_multiplicity(mu)
    d1 = _lower_degree(mu, p)
    d2 = mu.total - d1
    low_slice = degree_slice(mu, p, d1)
    low = low_slice.basis[0]
    high = None
    for cand in (low_slice if d2 == d1 else degree_slice(mu, p, d2)).basis:
        if not saito_det(low, cand).is_zero:
            high = cand
            break
    if high is None or not saito_check(low, high, mu):
        raise CertificationError(f"failed to certify a basis for {tuple(mu)}")
    return d1, d2, BasisPair(low, high, certified=True)
