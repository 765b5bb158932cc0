"""Test-local base-p digit helpers: the lemmas on maximal elements, and a
digit-list reference for fpcore.least_dominated."""

from triarr.fpcore import digits


def s_index(m: int, p: int) -> int:
    """Index of the least nonzero base-p digit of m (m >= 1)."""
    if m <= 0:
        raise ValueError("s_index is undefined for m = 0")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def least_dominated_by_digit_lists(m: int, lo: int, p: int) -> int | None:
    """Least j >= lo whose base-p digits are each <= those of m, or None:
    keep lo's digits above the highest one that exceeds m's, raise the lowest
    of those that has room, and clear everything below it."""
    lo = max(lo, 0)
    if lo > m:
        return None
    md, ld = digits(m, p), digits(lo, p)
    ld += [0] * (len(md) - len(ld))
    top = next((i for i in reversed(range(len(md))) if ld[i] > md[i]), None)
    if top is None:
        return lo
    for k in range(top + 1, len(md)):
        if ld[k] < md[k]:
            ds = [0] * k + [ld[k] + 1] + ld[k + 1 :]
            return sum(c * p**i for i, c in enumerate(ds))
    return None
