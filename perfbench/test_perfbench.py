"""Self-tests of the benchmark: determinism, checks, tracer hygiene.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402
from triarr.derivmod import BasisPair  # noqa: E402


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def _ops(name, seed):
    return itertools.chain.from_iterable(W.WORKLOADS[name].blocks(seed))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_operations(name):
    first = list(itertools.islice(_ops(name, 7), 600))
    assert first == list(itertools.islice(_ops(name, 7), 600))
    assert first != list(itertools.islice(_ops(name, 8), 600))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_block_has_the_same_mix(name):
    def mix(block):
        return sorted((op[0], op[1] if name != "cli-mix" else None, op[-1] if name == "oracle-referee" else None) for op in block)

    blocks = list(itertools.islice(W.WORKLOADS[name].blocks(3), 5))
    assert all(mix(b) == mix(blocks[0]) for b in blocks)


def test_part_slices_cover_whole_blocks():
    blocks = list(itertools.islice(W.WORKLOADS["oracle-referee"].blocks(4), 2))
    parts = [list(run._slices(iter(blocks), i, 5, 2)) for i in range(5)]
    for b, block in enumerate(blocks):
        assert sorted(op for part in parts for op in part[b]) == sorted(block)


def test_transport_shifts_are_theorem_safe():
    for _, p, mu, d in itertools.islice(_ops("basis-transport", 3), 2000):
        assert sum(mu) <= 1500
        if d:
            assert mu[2] <= p**d and mu[0] >= p**d and mu[1] >= p**d


def _first(name, kind, **meta):
    for op in _ops(name, 11):
        if op[0] == kind and all(op[-1][k] == v for k, v in meta.items()):
            return op
    raise AssertionError("generator never produced the op")


def _bump_first_int(text, key):
    head, tail = text.split(key, 1)
    num = "".join(itertools.takewhile(str.isdigit, tail))
    return head + key + str(int(num) + 2) + tail[len(num):]


def _csv_plus_one(text):
    lines = text.splitlines()
    bumped = [
        ",".join([row.split(",")[0]] + [str(int(c) + 1) if c else c for c in row.split(",")[1:]])
        for row in lines[1:]
    ]
    return "\n".join(lines[:1] + bumped) + "\n"


CLI_TAMPERS = {
    "exp-text": (("exp",), {"fmt": "text"}, lambda t: _bump_first_int(t, "delta: ")),
    "table-csv": (("table",), {"fmt": "csv"}, _csv_plus_one),
    "centers-json": (("centers",), {"fmt": "json"}, lambda t: _bump_first_int(t, '"radius": ')),
    "gamma-json": (("gamma",), {"fmt": "json"}, lambda t: t.replace("[\n    0,", "[\n    1,", 1)),
}


@pytest.mark.parametrize("case", sorted(CLI_TAMPERS))
def test_tampered_cli_output_fails_check(case, workdir):
    (kind,), meta, tamper = CLI_TAMPERS[case]
    op = _first("cli-mix", kind, **meta)
    code, text = W.cli_run(op, workdir)
    assert W.cli_check(op, (code, text))
    assert tamper(text) != text
    assert not W.cli_check(op, (code, tamper(text)))
    assert not W.cli_check(op, (2, text))


def test_tampered_basis_fails_check(workdir):
    op = next(_ops("basis-transport", 5))
    pair, trace = W.plan_run(op, workdir)
    assert W.plan_check(op, (pair, trace))
    broken = BasisPair(pair.low, pair.low, certified=True)
    assert not W.plan_check(op, (broken, trace))


def test_tampered_referee_fails_check(workdir):
    op = next(op for op in _ops("oracle-referee", 5) if op[3] == "small")
    (d1, d2), *rest = W.referee_run(op, workdir)
    assert W.referee_check(op, ((d1, d2), *rest))
    assert not W.referee_check(op, ((d1 + 1, d2 - 1), *rest))


def test_measure_counts_tampered_results_as_failed(workdir):
    wl = W.WORKLOADS["basis-transport"]

    def tampered(op, wd):
        pair, trace = wl.run(op, wd)
        return BasisPair(pair.low, pair.low, certified=True), trace

    ops = [list(itertools.islice(_ops("basis-transport", 2), 5))]
    check = lambda i, op, out: wl.check(op, out)  # noqa: E731
    honest = run.measure(wl, ops, 1e9, check)
    assert (len(honest.ops), honest.failed) == (5, 0)
    bad = run.measure(wl._replace(run=tampered), ops, 1e9, check)
    assert (len(bad.ops), bad.failed) == (5, 5)

    def raising(op, wd):
        raise RuntimeError("boom")

    crashed = run.measure(wl._replace(run=raising), ops, 1e9, check)
    assert (len(crashed.ops), crashed.failed) == (5, 5)


def _triarr_bindings():
    spaces = [m for n, m in sys.modules.items() if n == "triarr" or n.startswith("triarr.")]
    spaces.append(sys.modules["triarr.homopoly"].HomoPoly)
    return {(id(ns), k): v for ns in spaces for k, v in list(vars(ns).items())}


def test_tracer_patches_every_binding_and_restores_them(workdir):
    from triarr import basisfactory, derivmod, homopoly, oracle

    before = _triarr_bindings()
    imported = [
        (basisfactory, "oracle_exponents"),
        (oracle, "oracle_exponents"),
        (homopoly, "binom_mod_p"),
        (derivmod, "binomial_power"),
        (homopoly.HomoPoly, "__mul__"),
    ]
    originals = [vars(ns)[attr] for ns, attr in imported]
    tr = Tracer()
    with tr:
        for (ns, attr), orig in zip(imported, originals):
            assert vars(ns)[attr] is not orig and vars(ns)[attr].__wrapped__ is orig
        wl = W.WORKLOADS["oracle-referee"]
        op = next(op for op in _ops("oracle-referee", 1) if op[3] == "small")
        with tr.op(op[0]):
            wl.run(op, workdir)
    after = _triarr_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.stats("oracle.oracle_exponents").calls >= 1
    assert tr.stats("fpcore.binom_mod_p").calls >= 1


def test_self_time_is_span_time_minus_children(workdir):
    tr = Tracer()
    wl = W.WORKLOADS["basis-transport"]
    with tr:
        for op in itertools.islice(_ops("basis-transport", 4), 3):
            with tr.op(op[0]):
                wl.run(op, workdir)
    root = tr.stats("op.plan")
    assert root.calls == 3
    total_self = sum(st.self_time for st in tr.funcs.values())
    assert total_self == pytest.approx(root.incl, rel=1e-9)
    for st in tr.funcs.values():
        assert -1e-9 <= st.self_time <= st.incl + 1e-9
    # spans are recorded with their parents; children lie inside them
    for i in range(len(tr.span_name)):
        parent = tr.span_parent[i]
        if parent >= 0:
            assert tr.span_start[parent] <= tr.span_start[i] <= tr.span_end[i] <= tr.span_end[parent]


def test_tracer_records_nothing_outside_operations(workdir):
    tr = Tracer()
    with tr:
        W.WORKLOADS["basis-transport"].run(("plan", 3, (27, 27, 36), 0), workdir)
    assert tr.spans_seen == 0
