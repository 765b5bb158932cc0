"""Test-local dense referee: graded nullspaces by Gaussian elimination over F_p.

For each degree d it parametrizes f = x^m1 * ftilde and g = y^m2 * gtilde,
imposes the m3 linear conditions "(x+y)^m3 divides f + g" through a signed
Pascal matrix (coefficients of the change of basis u^j -> (u+1)^k) and reads
off an exact nullspace basis.  It shares nothing with the lattice engine in
``triarr.oracle`` or with the membership predicate's Frobenius-factor
division, so tests use it as an independent check of both.  numpy is a test
dependency only.
"""

from __future__ import annotations

import numpy as np

from triarr.derivmod import (
    BasisPair,
    Multiplicity,
    VectorField,
    as_multiplicity,
    saito_check,
    saito_det,
)
from triarr.homopoly import HomoPoly

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
    free = sorted(set(range(cols)).difference(pivots))
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


def _nullspace(mu: Multiplicity, p: int, d: int) -> np.ndarray:
    """Nullspace of the degree-d constraints; no rows when there are no unknowns."""
    m = _constraint_matrix(mu, p, d)
    if m is None:
        return np.zeros((0, 0), dtype=np.int64)
    return nullspace_mod_p(m, p)


# -- the referee's answers ---------------------------------------------------


def slice_dim(mu, p: int, d: int) -> int:
    """Dimension of the degree-d graded piece: columns minus pivots."""
    mu = as_multiplicity(mu)
    m = _constraint_matrix(mu, p, d)
    if m is None:
        return 0
    return m.shape[1] - len(row_reduce_mod_p(m, p)[1])


def degree_slice(mu, p: int, d: int) -> list[VectorField]:
    """Nullspace basis of the degree-d graded piece, in free-column order."""
    mu = as_multiplicity(mu)
    return [_vector_field(mu, p, d, v) for v in _nullspace(mu, p, d)]


def _lowest_slice(mu, p: int) -> tuple[int, np.ndarray]:
    """The least degree with a nonzero slice (by bisection), and its nullspace."""
    # x*theta is in the module whenever theta is, so the degrees with a
    # nonzero slice form an up-set
    mu = as_multiplicity(mu)
    lo, hi = 0, mu.total // 2
    vecs = _nullspace(mu, p, hi)
    assert len(vecs), f"no nonzero slice up to |mu|/2 for {tuple(mu)}"
    while lo < hi:
        mid = (lo + hi) // 2
        found = _nullspace(mu, p, mid)
        if len(found):
            hi, vecs = mid, found
        else:
            lo = mid + 1
    return lo, vecs


def oracle_exponents(mu, p: int) -> tuple[int, int, BasisPair]:
    """Exponents and basis as the dense solver chose them.

    The low generator is the first vector of the d1 nullspace; the high
    generator is the first vector of the d2 nullspace whose determinant
    against it is nonzero.
    """
    mu = as_multiplicity(mu)
    d1, low_vecs = _lowest_slice(mu, p)
    d2 = mu.total - d1
    low = _vector_field(mu, p, d1, low_vecs[0])
    high = None
    for vec in low_vecs if d2 == d1 else _nullspace(mu, p, d2):
        cand = _vector_field(mu, p, d2, vec)
        if not saito_det(low, cand).is_zero:
            high = cand
            break
    assert high is not None and saito_check(low, high, mu), tuple(mu)
    return d1, d2, BasisPair(low, high, certified=True)
