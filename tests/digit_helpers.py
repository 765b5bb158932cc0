"""Test-local base-p digit helper for the lemmas on maximal elements."""


def s_index(m: int, p: int) -> int:
    """Index of the least nonzero base-p digit of m (m >= 1)."""
    if m <= 0:
        raise ValueError("s_index is undefined for m = 0")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e
