"""triarr benchmark: one seeded workload, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.  The
run is split over PARTS fresh interpreters, one after another, each with its
own fixed PYTHONHASHSEED: hash seed and memory layout alone move the speed
of one process by up to 15%, and spreading a run over several of them
averages that out.  Part 0 runs slices of the workload's blocks for
--seconds / PARTS and so fixes the block count; the other parts run the
other slices of the same blocks, so together they cover whole blocks.

``--trace 1`` measures the operation stream untraced in one process,
replays it with the layer tracer installed, and reports the per-layer
metrics plus ``trace.overhead_ratio``.

Every operation's output is checked outside the timed region.  Human-
readable lines go to stdout first; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  A fuller record (sample
counts, machine info, per-kind figures) is written to .perfbench_out/ in the
repository root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PARTS = 5  # interpreters per end-to-end run
PART_TIMEOUT_S = 150
TRACE_REPLAY_FACTOR = 2  # the traced replay stops after this many times the untraced time


def _load(workload: str):
    """Import triarr from this checkout and warm the workload; time both."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = perf_counter()
    import workloads  # imports triarr and numpy

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    wl.warm(OUT_DIR)
    setup = perf_counter() - t0
    import triarr

    if (ROOT / "src").resolve() not in Path(triarr.__file__).resolve().parents:
        raise SystemExit(f"error: imported triarr from {triarr.__file__}, not {ROOT / 'src'}")
    return wl, setup


class Pass:
    """Outcome of running an operation stream once."""

    def __init__(self):
        self.ops: list[tuple] = []
        self.latency: list[float] = []
        self.ok: list[bool] = []
        self.digests: list = []
        self.blocks = 0

    @property
    def busy(self) -> float:
        return sum(self.latency)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def measure(wl, blocks, seconds: float, check, tracer=None, digests: bool = False) -> Pass:
    """Closed loop: run blocks of ops one op after another, and stop at the
    first block boundary after `seconds` of op time.

    ``check(i, op, outcome)`` runs between operations, outside the timed
    region; an exception in the operation or its check fails the operation.
    """
    res = Pass()
    busy = 0.0
    for block in blocks:
        if busy >= seconds:
            break
        res.blocks += 1
        for op in block:
            outcome, error, ok, digest = None, None, False, None
            t0 = perf_counter()
            try:
                if tracer is None:
                    outcome = wl.run(op, OUT_DIR)
                else:
                    with tracer.op(op[0]):
                        outcome = wl.run(op, OUT_DIR)
            except Exception:
                error = traceback.format_exc()
            res.latency.append(perf_counter() - t0)
            busy += res.latency[-1]
            if error is None:
                try:
                    ok = bool(check(len(res.ops), op, outcome))
                    digest = wl.digest(outcome) if digests else None
                except Exception:
                    error = traceback.format_exc()
            if not ok:
                print(f"FAILED {op[:2]}: {error or 'output check failed'}", file=sys.stderr)
            res.ops.append(op)
            res.ok.append(ok)
            res.digests.append(digest)
    return res


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _slices(blocks, part: int, parts: int, count: int | None):
    """Slice `part` of each block; all blocks when count is None."""
    for n, block in enumerate(blocks):
        if count is not None and n == count:
            return
        yield block[part::parts]


def run_part(args) -> dict:
    """One interpreter's share of an end-to-end run, as a JSON-able record."""
    wl, setup = _load(args.workload)
    count = None if args.part == 0 else args.blocks
    seconds = args.seconds / PARTS if count is None else float("inf")
    slices = _slices(wl.blocks(args.seed), args.part, PARTS, count)
    res = measure(wl, slices, seconds, lambda i, op, out: wl.check(op, out))
    return {
        "setup_s": setup,
        "rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024,
        "blocks": res.blocks,
        # kind, latency, ok, and the cells of a table command
        "ops": [
            [op[0], t, ok, (op[2]["r"][0] + 1) * (op[2]["r"][1] + 1) if op[0] == "table" else 0]
            for op, t, ok in zip(res.ops, res.latency, res.ok)
        ],
    }


def _spawn_part(args, part: int, blocks: int) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--part", str(part), "--blocks", str(blocks),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(part))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PART_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: part {part} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict, int, int]:
    """(metrics listed in BENCHMARK.json, further figures, attempted, failed)."""
    parts = [_spawn_part(args, 0, 0)]
    parts += [_spawn_part(args, i, parts[0]["blocks"]) for i in range(1, PARTS)]
    ops = [op for part in parts for op in part["ops"]]
    lat_ms = [op[1] * 1e3 for op in ops]
    n, failed = len(ops), sum(not op[2] for op in ops)
    metrics = {
        "setup_s": (statistics.median(part["setup_s"] for part in parts), "s"),
        "ops_per_s": (n / sum(op[1] for op in ops), "1/s"),
        "op_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "op_p90_ms": (_percentile(lat_ms, 90), "ms"),
        # median over interpreters: one process's peak hinges on its largest command
        "peak_rss_mb": (statistics.median(part["rss_mb"] for part in parts), "MB"),
    }
    extra = {
        "op_samples": (n, "count"),
        "setup_samples": (len(parts), "count"),
        "blocks": (parts[0]["blocks"], "count"),
        # failed / attempted; kept out of BENCHMARK.json because it is 0 on correct code
        "failed_ratio": (failed / n, f"ratio of {n}"),
    }
    for kind in sorted({op[0] for op in ops}):
        extra[f"ops.{kind}"] = (sum(op[0] == kind for op in ops), "count")
    if args.workload == "cli-mix":
        exp = [op[1] * 1e3 for op in ops if op[0] == "exp"]
        tables = [op for op in ops if op[0] == "table"]
        cells = sum(op[3] for op in tables)
        extra["exp_p50_ms"] = (_percentile(exp, 50), f"ms of {len(exp)}")
        extra["table_cells_per_s"] = (cells / sum(op[1] for op in tables), f"1/s of {cells}")
    return metrics, extra, n, failed


# Predicted split of traced self time per workload, checked on every traced run.
SPLIT = {
    "cli-mix": (
        "cli-mix records no oracle or homopoly self time",
        lambda share: share["oracle"] == 0 and share["homopoly"] == 0,
    ),
    "basis-transport": (
        "homopoly + derivmod + fpcore hold most self time",
        lambda share: share["homopoly"] + share["derivmod"] + share["fpcore"] > 0.5,
    ),
    "oracle-referee": (
        "oracle holds most self time",
        lambda share: share["oracle"] > 0.5,
    ),
}


def per_layer(tr, replay: Pass, overhead: float, rejections: int, pascal_bytes: int):
    from tracer import LAYERS

    s, c = tr.stats, tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    fast = s("fastexp.fast_exponents")
    rank, rref = s("oracle.rank_mod_p"), s("oracle.row_reduce_mod_p")
    per_mu = s("oracle.oracle_exponents").calls + s("oracle.oracle_delta").calls
    plan, saito = s("basisfactory.plan_basis"), s("derivmod.saito_check")
    mul, div = s("homopoly.HomoPoly.__mul__"), s("homopoly.HomoPoly.remainder_mod_linear")
    binom, gset = s("fpcore.binom_mod_p"), s("fpcore.g_set")
    cli_calls = s("cli.main").calls
    renders = ("render_ascii", "render_csv", "render_json_obj", "render_svg")
    transports = ("frobenius_lift", "period_shift", "dual_basis")
    metrics = {
        "cli.calls": (cli_calls, "count"),
        "cli.self_ms_per_call": (ratio(tr.layer_self["cli"], cli_calls) * 1e3, "ms"),
        "atlas.cells": (c["atlas.cells"], "count"),
        "atlas.build_s": (s("atlas.build_atlas").incl, "s"),
        "atlas.render_s": (sum(s(f"atlas.{r}").incl for r in renders), "s"),
        # bytes of the rendered tables as the CLI wrote them (digest = output text)
        "atlas.render_bytes": (
            sum(len(d[1].encode()) for op, d in zip(replay.ops, replay.digests) if op[0] == "table"),
            "bytes",
        ),
        "fastexp.calls": (fast.calls, "count"),
        "fastexp.self_s": (tr.layer_self["fastexp"], "s"),
        "fastexp.us_per_call": (ratio(fast.incl, fast.calls) * 1e6, "us"),
        "fastexp.ball_center_calls": (s("fastexp.ball_center").calls, "count"),
        "fastexp.scales_per_call": (ratio(c["fastexp.scales_in_fast"], fast.calls), "count"),
        "fastexp.center_rejections": (rejections, "count"),
        "fastexp.enumerate_centers_s": (s("fastexp.enumerate_centers").incl, "s"),
        "fpcore.binom_calls": (binom.calls, "count"),
        "fpcore.binom_s": (binom.incl, "s"),
        "fpcore.g_set_calls": (gset.calls, "count"),
        "fpcore.g_set_elems": (c["fpcore.g_set_elems"], "count"),
        "fpcore.g_set_s": (gset.incl, "s"),
        "homopoly.mul_calls": (mul.calls, "count"),
        "homopoly.mul_s": (mul.incl, "s"),
        "homopoly.mul_products_computed": (c["homopoly.mul_products"], "count"),
        "homopoly.linear_div_calls": (div.calls, "count"),
        "homopoly.linear_div_s": (div.incl, "s"),
        "homopoly.linear_div_steps_computed": (c["homopoly.linear_div_steps"], "count"),
        "homopoly.binomial_power_s": (s("homopoly.binomial_power").incl, "s"),
        "derivmod.saito_checks": (saito.calls, "count"),
        "derivmod.saito_fail_ratio": (ratio(c["derivmod.saito_fails"], saito.calls), "ratio"),
        "derivmod.saito_s": (saito.incl, "s"),
        "derivmod.in_module_calls": (s("derivmod.in_module").calls, "count"),
        "derivmod.defining_poly_s": (s("derivmod.defining_poly").incl, "s"),
        "basisfactory.plan_calls": (plan.calls, "count"),
        "basisfactory.plan_self_s": (plan.self_time, "s"),
        "basisfactory.hops_per_basis": (ratio(c["basisfactory.hops"], plan.calls), "count"),
        "basisfactory.transport_s": (sum(s(f"basisfactory.{t}").incl for t in transports), "s"),
        "basisfactory.oracle_fallbacks": (c["basisfactory.fallbacks"], "count"),
        "basisfactory.fallback_ratio": (ratio(c["basisfactory.fallbacks"], plan.calls), "ratio"),
        "basisfactory.gamma_hit_ratio": (
            ratio(c["basisfactory.gamma_hits"], s("basisfactory.gamma_membership").calls), "ratio"
        ),
        "oracle.calls": (per_mu, "count"),
        "oracle.self_s": (tr.layer_self["oracle"], "s"),
        "oracle.rank_calls": (rank.calls, "count"),
        "oracle.rank_s": (rank.incl, "s"),
        "oracle.rank_calls_per_mu": (ratio(rank.calls, per_mu), "count"),
        "oracle.rref_calls": (rref.calls, "count"),
        "oracle.rref_s": (rref.incl, "s"),
        "oracle.elim_cells_computed": (c["oracle.elim_cells"], "count"),
        "oracle.pascal_cache_mb_computed": (pascal_bytes / 1e6, "MB"),
    }
    layer_total = sum(tr.layer_self.values())
    share = {layer: ratio(tr.layer_self[layer], layer_total) for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (share[layer], "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.ops"] = (len(replay.ops), "count")
    extra = {
        "spans": (tr.spans_seen, "count"),
        "layer_self_s": (layer_total, "s"),
    }
    return metrics, extra, share


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


def traced(args):
    """Untraced pass, then a traced replay of the same operations."""
    wl, _ = _load(args.workload)
    import workloads
    from tracer import Tracer

    first = measure(wl, wl.blocks(args.seed), args.seconds,
                    lambda i, op, out: wl.check(op, out), digests=True)
    stats = workloads.fastexp.filter_stats
    before = stats["unbalanced_center_rejections"]
    tr = Tracer()
    with tr:
        replay = measure(
            wl, ([op] for op in first.ops), TRACE_REPLAY_FACTOR * first.busy,
            lambda i, op, out: wl.digest(out) == first.digests[i], tracer=tr, digests=True,
        )
    rejections = stats["unbalanced_center_rejections"] - before
    overhead = replay.busy / sum(first.latency[: len(replay.latency)])
    pascal = sum(a.nbytes for a in workloads.oracle._pascal_cache.values())
    metrics, extra, share = per_layer(tr, replay, overhead, rejections, pascal)
    extra["untraced_ops"] = (len(first.ops), "count")
    claim, holds = SPLIT[args.workload]
    split = {"prediction": claim, "confirmed": holds(share), "self_share": share}
    tr.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    attempted = len(first.ops) + len(replay.ops)
    return metrics, extra, split, attempted, first.failed + replay.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--blocks", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "triarr" / "__init__.py").is_file():
        raise SystemExit(f"error: no triarr sources under {ROOT / 'src'}")

    if args.part is not None:
        print(json.dumps(run_part(args)))
        return 0
    split = None
    if args.trace:
        metrics, extra, split, attempted, failed = traced(args)
    else:
        metrics, extra, attempted, failed = end_to_end(args)

    meta = _meta(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in meta.items() if k not in ("workload", "seed", "seconds", "trace")))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  failed {failed} of {attempted} attempted")
    if split is not None:
        print(f"  split: {split['prediction']}: {'confirmed' if split['confirmed'] else 'DISAGREES'}")
    record = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "split": split,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
