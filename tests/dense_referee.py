"""Test-local dense referee: graded nullspaces by Gaussian elimination over F_p.

For each degree d it parametrizes f = x^m1 * ftilde and g = y^m2 * gtilde,
imposes the m3 linear conditions "(x+y)^m3 divides f + g" through a signed
Pascal matrix (coefficients of the change of basis u^j -> (u+1)^k) and reads
off an exact nullspace basis.  It shares nothing with the lattice engine in
``triarr.oracle`` or with the membership predicate's Frobenius-factor
division, so tests use it as an independent check of both.  Matrices are
lists of int rows: they have at most a few dozen rows, where plain ints
beat any array library's per-call overhead.
"""

from __future__ import annotations

from full_product import saito_det

from triarr.derivmod import (
    BasisPair,
    Multiplicity,
    VectorField,
    as_multiplicity,
    saito_check,
)
from triarr.homopoly import HomoPoly

# -- GF(p) dense elimination kernels ---------------------------------------


def _echelon(mat: list[list[int]], p: int) -> dict[int, list[int]]:
    """Row echelon form over F_p as a dict of pivots: column -> row with 1
    there and 0 before it.  Each row entering is cleared at the pivot
    columns in ascending order, which leaves earlier ones cleared."""
    pivots: dict[int, list[int]] = {}
    for row in mat:
        if len(pivots) == len(row):  # full column rank: the rest clears to 0
            break
        v = [a % p for a in row]
        for c in sorted(pivots):
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, pivots[c])]
        c = next((i for i, a in enumerate(v) if a), None)
        if c is not None:
            inv = pow(v[c], p - 2, p)
            pivots[c] = [a * inv % p for a in v]
    return pivots


def row_reduce_mod_p(mat: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p and its pivot columns, ascending.

    The echelon rows are cleared above each pivot, from the last one up.
    The reduced form is unique, so no choice made on the way shows.  Zero
    rows come last, so the result has the shape of the input.
    """
    pivots = _echelon(mat, p)
    cols = sorted(pivots)
    for i, c in reversed(list(enumerate(cols))):
        for t in cols[:i]:
            f = pivots[t][c]
            if f:
                pivots[t] = [(a - f * b) % p for a, b in zip(pivots[t], pivots[c])]
    zero = [[0] * len(mat[0]) for _ in range(len(mat) - len(cols))] if mat else []
    return [pivots[c] for c in cols] + zero, cols


def nullspace_mod_p(mat: list[list[int]], p: int, cols: int) -> list[list[int]]:
    """Deterministic nullspace basis over F_p of a matrix with cols columns.

    Vectors are indexed by the free columns in ascending order: the vector
    for free column t has entry 1 there and -R[i][t] at pivot column i.
    """
    red, pivots = row_reduce_mod_p(mat, p)
    basis = []
    for t in sorted(set(range(cols)).difference(pivots)):
        vec = [0] * cols
        vec[t] = 1
        for row, c in zip(red, pivots):
            vec[c] = -row[t] % p
        basis.append(vec)
    return basis


# -- constraint assembly ----------------------------------------------------

# Per prime: rows k of the signed change-of-basis matrix A with
# A[k][j] = (-1)^(j-k) C(j, k) mod p, so that a polynomial sum(c_j u^j) has
# (u+1)-basis coefficients b_k = sum_j A[k][j] c_j.  Grown geometrically.
_pascal_cache: dict[int, list[list[int]]] = {}


def _signed_pascal(p: int, size: int) -> list[list[int]]:
    cached = _pascal_cache.get(p)
    if cached is not None and len(cached) >= size:
        return cached
    n = max(size, 2 * len(cached) if cached else 64)
    binom = [[1] + [0] * (n - 1)]  # binom[j][k] = C(j, k) mod p
    for _ in range(1, n):
        prev = binom[-1]
        binom.append([1] + [(prev[k] + prev[k - 1]) % p for k in range(1, n)])
    signed = [[binom[j][k] if (j - k) % 2 == 0 else -binom[j][k] % p for j in range(n)]
              for k in range(n)]
    _pascal_cache[p] = signed
    return signed


def _sizes(mu: Multiplicity, d: int) -> tuple[int, int]:
    """Unknowns of the degree-d slice: ftilde's d-m1+1 and gtilde's d-m2+1."""
    return max(0, d - mu.mu1 + 1), max(0, d - mu.mu2 + 1)


def _constraint_matrix(mu: Multiplicity, p: int, d: int) -> list[list[int]]:
    """Constraint rows for the degree-d slice.

    Columns: the coefficients of ftilde (ftilde's i lands on
    x^(m1+i) y^(d-m1-i)), then those of gtilde (gtilde's i lands on
    x^i y^(d-i)).  Rows: the m3 shifted-basis coefficients of f + g that
    must vanish.
    """
    n_g = _sizes(mu, d)[1]
    pas = _signed_pascal(p, d + 1)
    return [row[mu.mu1 : d + 1] + row[:n_g] for row in pas[: mu.mu3]]


def _vector_field(mu: Multiplicity, p: int, d: int, vec: list[int]) -> VectorField:
    n_f = _sizes(mu, d)[0]
    f_coeffs = [0] * (d + 1)
    g_coeffs = [0] * (d + 1)
    f_coeffs[mu.mu1 : mu.mu1 + n_f] = vec[:n_f]
    g_coeffs[: len(vec) - n_f] = vec[n_f:]
    return VectorField(HomoPoly(p, f_coeffs), HomoPoly(p, g_coeffs))


def _nullspace(mu: Multiplicity, p: int, d: int) -> list[list[int]]:
    """Nullspace of the degree-d constraints; empty when there are no unknowns."""
    return nullspace_mod_p(_constraint_matrix(mu, p, d), p, sum(_sizes(mu, d)))


# -- the referee's answers ---------------------------------------------------


def slice_dim(mu, p: int, d: int) -> int:
    """Dimension of the degree-d graded piece: columns minus pivots."""
    mu = as_multiplicity(mu)
    return sum(_sizes(mu, d)) - len(_echelon(_constraint_matrix(mu, p, d), p))


def degree_slice(mu, p: int, d: int) -> list[VectorField]:
    """Nullspace basis of the degree-d graded piece, in free-column order."""
    mu = as_multiplicity(mu)
    return [_vector_field(mu, p, d, v) for v in _nullspace(mu, p, d)]


def _lowest_slice(mu, p: int) -> tuple[int, list[list[int]]]:
    """The least degree with a nonzero slice (by bisection), and its nullspace."""
    # x*theta is in the module whenever theta is, so the degrees with a
    # nonzero slice form an up-set
    mu = as_multiplicity(mu)
    lo, hi = 0, mu.total // 2
    vecs = _nullspace(mu, p, hi)
    assert vecs, f"no nonzero slice up to |mu|/2 for {tuple(mu)}"
    while lo < hi:
        mid = (lo + hi) // 2
        found = _nullspace(mu, p, mid)
        if found:
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
