"""The three benchmark workloads: seeded operation streams, runners and checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  An operation is plain data (a tuple of
ints, strings and a dict of parameters) drawn only from the seed, so the
same seed always yields the same stream.  The stream comes in blocks with a fixed mix of operation
kinds (and primes), and a run measures whole blocks, so every run does the
same mix of work whatever the seed.  ``run`` performs one operation against
triarr and returns its outcome; ``check`` decides, outside the timed region,
whether that outcome is correct; ``digest`` reduces an outcome to a value
that two runs of the same operation must share.

Importing this module imports triarr (and numpy); the benchmark times that
import as part of ``setup_s``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from triarr import basisfactory, cli, fastexp, oracle
from triarr.derivmod import saito_check

PRIMES = (2, 3, 5, 7)
# Pascal rows the dense oracle needs for the largest referee tier
# (|mu| <= 1.05 * 840) and for every planner fallback in basis-transport.
PASCAL_ROWS = 1000
# Largest |mu| whose exact gap the checks recompute with the dense oracle
# (a few ms each); larger points are checked by the independent routes only.
ORACLE_CHECK_MAX = 48


class Workload(NamedTuple):
    name: str
    blocks: Callable[[int], Iterator[list[tuple]]]  # seed -> blocks of operations
    warm: Callable[[Path], None]  # workdir -> None; fills caches users pay for
    run: Callable[[tuple, Path], object]  # (op, workdir) -> outcome
    check: Callable[[tuple, object], bool]  # untimed correctness check
    digest: Callable[[object], object]


def _composition(rng: random.Random, total: int, balanced: bool) -> tuple[int, int, int]:
    """Uniform random (m1, m2, m3) with the given total, optionally balanced."""
    while True:
        a, b = sorted((rng.randint(0, total), rng.randint(0, total)))
        mu = (a, b - a, total - b)
        if not balanced or 2 * max(mu) <= total:
            return mu


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _lucas_zero(m: int, j: int, p: int) -> bool:
    """C(m, j) = 0 mod p, by base-p digit comparison (independent of fpcore)."""
    while j:
        if j % p > m % p:
            return True
        m, j = m // p, j // p
    return False


def _base_p(m: int, p: int) -> list[int]:
    out = []
    while m:
        m, r = divmod(m, p)
        out.append(r)
    return out


# -- cli-mix -------------------------------------------------------------------

# One block of ten commands, shuffled: fixed proportions keep the latency
# percentiles from depending on how the seed happened to mix kinds.
CLI_BLOCK = ("exp",) * 6 + ("table",) * 2 + ("centers", "gamma")
# Planes |mu| = 2 p^K - 2 draw the mod-p Pascal triangle (zero-gap set).
PASCAL_TOTALS = {p: [2 * p**k - 2 for k in range(1, 8) if 2 * p**k - 2 <= 100] for p in PRIMES}


def _cli_op(rng: random.Random, kind: str) -> tuple:
    p = rng.choice(PRIMES)
    if kind == "exp":
        total = _log_uniform(rng, 2, 1e9)
        mu = _composition(rng, total, balanced=rng.random() < 0.85)
        fmt = rng.choice(("text", "json"))
        argv = ("exp", "-p", str(p), "--mu", ",".join(map(str, mu)), "--format", fmt)
        return ("exp", argv, {"p": p, "mu": mu, "fmt": fmt})
    if kind == "table":
        r1, r2 = rng.randint(8, 40), rng.randint(8, 40)
        cell = rng.choice(("delta", "lowdegree", "zero"))
        fmt = rng.choice(("ascii", "csv", "json", "svg"))
        if rng.random() < 0.5:
            mode, value = "m3", rng.randint(0, 60)
            slice_flag = ("--m", str(value))
        else:
            mode = "sum"
            value = rng.choice(PASCAL_TOTALS[p]) if rng.random() < 0.5 else rng.randint(10, 80)
            slice_flag = ("--total", str(value))
        argv = ("table", "-p", str(p), "--mode", mode, *slice_flag,
                "--range", f"{r1},{r2}", "--cell", cell, "--format", fmt)
        if rng.random() < 0.3:
            argv += ("--mark-centers",)
        meta = {"p": p, "mode": mode, "value": value, "r": (r1, r2), "cell": cell,
                "fmt": fmt, "check_seed": rng.randrange(1 << 30)}
        return ("table", argv, meta)
    if kind == "centers":
        k = rng.choice([k for k in range(4) if p**k <= 27])
        q = p**k
        box = tuple(q * rng.randint(2, 8) for _ in range(3))
        fmt = rng.choice(("text", "json"))
        argv = ("centers", "-p", str(p), "-k", str(k), "--box", ",".join(map(str, box)),
                "--format", fmt)
        return ("centers", argv, {"p": p, "k": k, "box": box, "fmt": fmt})
    m = _log_uniform(rng, 1, 1e4)
    fmt = rng.choice(("text", "json"))
    argv = ("gamma", "-p", str(p), "-m", str(m), "--format", fmt)
    mu = None
    if rng.random() < 0.5:
        mu = (rng.randint(0, m + 2), rng.randint(0, m + 2), m)
        argv += ("--mu", ",".join(map(str, mu)))
    return ("gamma", argv, {"p": p, "m": m, "mu": mu, "fmt": fmt})


def cli_blocks(seed: int) -> Iterator[list[tuple]]:
    rng = random.Random(f"cli-mix/{seed}")
    while True:
        kinds = list(CLI_BLOCK)
        rng.shuffle(kinds)
        yield [_cli_op(rng, kind) for kind in kinds]


# A fresh output file per command, removed once read: ext4 flushes a file that
# is truncated and rewritten when it is closed, which would put disk writes in
# the timed region.
_OUT_NAMES = itertools.count()


def cli_run(op: tuple, workdir: Path) -> tuple[int, str]:
    out = workdir / f"cli-{os.getpid()}-{next(_OUT_NAMES)}.out"
    # The CLI default forks os.cpu_count() workers; one client means one worker.
    code = cli.main([*op[1], "--workers", "1", "--out", str(out)])
    try:
        return code, out.read_text(encoding="utf-8")
    finally:
        out.unlink(missing_ok=True)


def cli_warm(workdir: Path) -> None:
    for op in (
        ("exp", ("exp", "-p", "3", "--mu", "41,52,31")),
        ("table", ("table", "-p", "2", "--mode", "sum", "--total", "14", "--range", "8,8")),
    ):
        code, _ = cli_run(op, workdir)
        if code != 0:
            raise RuntimeError(f"warm-up command {op[1]} exited {code}")


def _check_exp(meta: dict, text: str) -> bool:
    p, mu = meta["p"], meta["mu"]
    if meta["fmt"] == "json":
        obj = json.loads(text)
        if obj["p"] != p or tuple(obj["mu"]) != mu:
            return False
        delta, (d1, d2) = obj["delta"], obj["exp"]
    else:
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        if fields["mu"] != str(mu):
            return False
        delta = int(fields["delta"])
        d1, d2 = (int(t) for t in fields["exp"].strip("()").split(","))
    total = sum(mu)
    ok = (
        d1 + d2 == total
        and d2 - d1 == delta >= 0
        and delta % 2 == total % 2
        and (delta == 0) == fastexp.delta_zero(mu, p)
    )
    if ok and total <= ORACLE_CHECK_MAX:
        ok = oracle.oracle_delta(mu, p) == delta
    return ok


def _table_values(meta: dict, text: str) -> list[list[int | None]] | None:
    """Parse the rendered grid back into values; None for svg (no values)."""
    fmt = meta["fmt"]
    if fmt == "json":
        obj = json.loads(text)
        if obj["p"] != meta["p"] or obj["mode"] != meta["mode"] or obj["value"] != meta["value"]:
            raise ValueError("json header mismatch")
        return obj["values"]
    if fmt == "csv":
        rows = text.splitlines()[1:]
        return [[int(c) if c else None for c in row.split(",")[1:]] for row in rows]
    if fmt == "ascii":
        rows = text.splitlines()[1:]
        return [
            [None if c == "." else int(c.strip("[]")) for c in row.split()[1:]]
            for row in rows
        ]
    return None


def _check_table(meta: dict, text: str) -> bool:
    p, mode, value, cell = meta["p"], meta["mode"], meta["value"], meta["cell"]
    r1, r2 = meta["r"]

    def mu_at(m1: int, m2: int):
        m3 = value if mode == "m3" else value - m1 - m2
        return (m1, m2, m3) if m3 >= 0 else None

    domain = [(m1, m2) for m1 in range(r1 + 1) for m2 in range(r2 + 1) if mu_at(m1, m2)]
    values = _table_values(meta, text)
    if values is None:  # svg: one square per in-domain cell, plus background and legend
        return text.rstrip().endswith("</svg>") and text.count("<rect ") == len(domain) + 12
    if len(values) != r1 + 1 or any(len(row) != r2 + 1 for row in values):
        return False
    for m1 in range(r1 + 1):
        for m2 in range(r2 + 1):
            if (values[m1][m2] is None) != (mu_at(m1, m2) is None):
                return False
    # spot-check two cells, drawn from the cheapest ones for the dense oracle
    limit = max(ORACLE_CHECK_MAX, min(sum(mu_at(*c)) for c in domain))
    small = [c for c in domain if sum(mu_at(*c)) <= limit]
    for m1, m2 in random.Random(meta["check_seed"]).sample(small, min(2, len(small))):
        mu = mu_at(m1, m2)
        delta = oracle.oracle_delta(mu, p)
        expected = {"delta": delta, "lowdegree": (sum(mu) - delta) // 2,
                    "zero": int(delta == 0)}[cell]
        if values[m1][m2] != expected:
            return False
    return True


def _check_centers(meta: dict, text: str) -> bool:
    p, k, box = meta["p"], meta["k"], meta["box"]
    q = p**k
    if meta["fmt"] == "json":
        obj = json.loads(text)
        if obj["radius"] != q or tuple(obj["box"]) != box:
            return False
        centers = [tuple(z) for z in obj["centers"]]
    else:
        lines = text.splitlines()
        if lines[0] != f"centers of radius {q} within {box}:":
            return False
        centers = [tuple(int(t) for t in line.strip(" ()").split(",")) for line in lines[1:]]
    for z in centers:
        nu = [c // q for c in z]
        if any(c % q or c > b for c, b in zip(z, box)):
            return False
        if sum(nu) % 2 == 0 or 2 * max(nu) > sum(nu):
            return False
        if fastexp.fast_exponents(z, p).delta != q:
            return False
    small = [z for z in centers if sum(z) <= ORACLE_CHECK_MAX]
    if any(oracle.oracle_delta(z, p) != q for z in small[:2]):
        return False
    return centers == sorted(centers)


def _check_gamma(meta: dict, text: str) -> bool:
    p, m, mu = meta["p"], meta["m"], meta["mu"]
    if meta["fmt"] == "json":
        obj = json.loads(text)
        gs, ss, bs = obj["g_set"], obj["s_set"], obj["b_set"]
        member = obj.get("member")
    else:
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        gs = json.loads(fields["g_set"])
        ss = [list(t) for t in _parse_tuples(fields["s_set"])]
        bs = [list(t) for t in _parse_tuples(fields["b_set"])]
        member = None
        if mu is not None:
            member = fields[f"member({mu})"] == "true"
    size = math.prod(c + 1 for c in _base_p(m, p))
    t = len(gs) - 1
    ok = (
        len(gs) == size
        and gs == sorted(set(gs))
        and all(not _lucas_zero(m, g, p) for g in gs)
        and all(gs[i] + gs[t - i] == m for i in range(t + 1))
        and bs == [[gs[i] + 1, gs[t - i] + 1, m] for i in range(t + 1)]
        and ss == [[gs[i], gs[t - i + 1], m] for i in range(1, t + 1)]
    )
    if ok and mu is not None:
        m1, m2, _ = mu
        expected = all(_lucas_zero(m, j, p) for j in range(max(0, m - m2 + 1), m1))
        ok = member == expected
    return ok


def _parse_tuples(text: str) -> list[tuple[int, ...]]:
    """Parse "[(1, 2, 3), (4, 5, 6)]" without eval."""
    body = text.strip()[1:-1].strip()
    if not body:
        return []
    return [tuple(int(t) for t in part.strip(" ()").split(",")) for part in body.split("),")]


_CLI_CHECKS = {
    "exp": _check_exp,
    "table": _check_table,
    "centers": _check_centers,
    "gamma": _check_gamma,
}


def cli_check(op: tuple, outcome: tuple[int, str]) -> bool:
    code, text = outcome
    return code == 0 and _CLI_CHECKS[op[0]](op[2], text)


def cli_digest(outcome: tuple[int, str]) -> tuple[int, str]:
    return outcome


# -- basis-transport -------------------------------------------------------------


def transport_blocks(seed: int) -> Iterator[list[tuple]]:
    """Blocks of ("plan", p, mu, d): for each prime, shifted or not, one mu
    with nu3 in [0, 2] and one with nu3 in [3, 6].

    mu = p^k nu with nu in [0, 6]^3 and k the largest scale with
    |mu| <= 1000, shifted by the smallest theorem-safe (p^d, p^d, 0), the one
    with m3 <= p^d, when d > 0 and the total stays <= 1500.  Certification cost grows with
    m3 times the degree, so the blocks fix the share of tall m3.  A cap of
    3000 put runs at the mercy of a few 0.2 s points, and smaller scales
    spread costs so thinly around the median that op_p50_ms moved 15% from
    seed to seed.
    """
    rng = random.Random(f"basis-transport/{seed}")
    while True:
        slots = [(p, shift, tall) for p in PRIMES for shift in (False, True) for tall in (False, True)]
        rng.shuffle(slots)
        yield [_transport_op(rng, *slot) for slot in slots]


def _transport_op(rng: random.Random, p: int, shift: bool, tall: bool) -> tuple:
    nu = (0, 0, 0)
    while sum(nu) == 0:
        nu = (rng.randint(0, 6), rng.randint(0, 6), rng.randint(3, 6) if tall else rng.randint(0, 2))
    k = 0
    while p ** (k + 1) * sum(nu) <= 1000:
        k += 1
    mu = tuple(p**k * c for c in nu)
    if shift:
        d = 1
        while p**d < mu[2]:
            d += 1
        e = p**d
        if sum(mu) + 2 * e <= 1500:
            return ("plan", p, (mu[0] + e, mu[1] + e, mu[2]), d)
    return ("plan", p, mu, 0)


def plan_run(op: tuple, workdir: Path):
    _, p, mu, _ = op
    return basisfactory.plan_basis(mu, p)


def _certified_with_exponents(pair, mu, exponents) -> bool:
    return (
        pair.certified
        and saito_check(pair.low, pair.high, mu)
        and pair.exponents == tuple(exponents)
    )


def plan_check(op: tuple, outcome) -> bool:
    _, p, mu, _ = op
    pair, _ = outcome
    return _certified_with_exponents(pair, mu, fastexp.fast_exponents(mu, p).exponents)


def _pair_digest(pair) -> tuple:
    return tuple(h.coeffs for h in (pair.low.f, pair.low.g, pair.high.f, pair.high.g))


def plan_digest(outcome) -> tuple:
    pair, trace = outcome
    return _pair_digest(pair), tuple(map(str, trace))


def _fill_pascal() -> None:
    """The dense oracle's first Pascal-cache fill per prime, paid once per process.

    Filling it up front keeps peak memory from depending on which planner
    fallback of the run happened to be largest (the cache grows in steps of
    four in memory); fallbacks in basis-transport stay below |mu| = 750.
    """
    for p in PRIMES:
        oracle.slice_dim((0, 0, 1), p, PASCAL_ROWS)


def transport_warm(workdir: Path) -> None:
    _fill_pascal()
    plan_run(("plan", 3, (27, 27, 36), 0), workdir)


# -- oracle-referee -----------------------------------------------------------------

TIERS = {"small": 60, "mid": 450, "large": 840}
# Points per prime in every block.  Oracle time depends strongly on p, so
# each block gives every prime the same points.  At |mu| 840 a p = 5 point
# costs 1.6-5.3 s (as much as the rest of a block), so one such draw would
# decide a run; p = 5 stays in the small and mid tiers only.  One block
# takes about 8 s on a 2-core Xeon VM.
TIER_MIX = {"small": 60, "mid": 3, "large": 1}
LARGE_PRIMES = (2, 3, 7)


def _near_center(rng: random.Random, total: int) -> tuple[int, int, int]:
    """Random balanced mu with m1 and m2 within 5% of |mu|/3.

    Oracle time grows steeply with m3 and with the distance of d1 from
    min(m1, m2): over the whole balanced region one 840-point can cost
    0.05 s or 15 s, and a timed run would hinge on a handful of draws.
    """
    third = total / 3
    m1 = round(third * rng.uniform(0.95, 1.05))
    m2 = round(third * rng.uniform(0.95, 1.05))
    return (m1, m2, total - m1 - m2)


def referee_blocks(seed: int) -> Iterator[list[tuple]]:
    """Blocks of ("referee", p, mu, tier) with TIER_MIX points per prime."""
    rng = random.Random(f"oracle-referee/{seed}")
    while True:
        block = []
        for p in PRIMES:
            for tier, count in TIER_MIX.items():
                t = TIERS[tier]
                if tier == "large" and p not in LARGE_PRIMES:
                    continue
                for _ in range(count):
                    total = t + rng.randint(-t // 20, t // 20)
                    block.append(("referee", p, _near_center(rng, total), tier))
        rng.shuffle(block)
        yield block


def referee_run(op: tuple, workdir: Path):
    """The per-point work of run_differential plus run_saito."""
    _, p, mu, _ = op
    d1, d2, opair = oracle.oracle_exponents(mu, p)
    report = fastexp.fast_exponents(mu, p)
    zero = fastexp.delta_zero(mu, p)
    ppair, trace = basisfactory.plan_basis(mu, p)
    return (d1, d2), opair, report, zero, ppair, trace


def referee_check(op: tuple, outcome) -> bool:
    _, p, mu, _ = op
    (d1, d2), opair, report, zero, ppair, _ = outcome
    return (
        report.exponents == (d1, d2)
        and report.delta == d2 - d1
        and zero == (report.delta == 0)
        and _certified_with_exponents(opair, mu, (d1, d2))
        and _certified_with_exponents(ppair, mu, (d1, d2))
    )


def referee_digest(outcome) -> tuple:
    exps, opair, report, zero, ppair, trace = outcome
    return exps, _pair_digest(opair), report, zero, _pair_digest(ppair), tuple(map(str, trace))


def referee_warm(workdir: Path) -> None:
    _fill_pascal()
    referee_run(("referee", 3, (20, 20, 20), "small"), workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-mix", cli_blocks, cli_warm, cli_run, cli_check, cli_digest),
        Workload("basis-transport", transport_blocks, transport_warm, plan_run, plan_check, plan_digest),
        Workload("oracle-referee", referee_blocks, referee_warm, referee_run, referee_check, referee_digest),
    )
}
