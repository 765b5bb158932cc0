"""Span tracer for triarr's layers, installed from the benchmark's side.

``Tracer.install()`` wraps the public functions of each triarr module (plus
the two HomoPoly methods that carry the polynomial work) in every namespace
that holds them, including the names other modules bound with
``from ... import``, so ``basisfactory.oracle_exponents`` and
``derivmod.binomial_power`` are timed as well as ``oracle.oracle_exponents``
and ``homopoly.binomial_power``.  ``uninstall()`` puts every original back.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out at the end of a run.  Self time is a span's duration minus the
time its child spans cover; it is accumulated as spans close, so it is
exact even when the span buffer is full.  Recording happens only inside
``Tracer.op(...)``, so checks run between operations are not traced.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "atlas", "fastexp", "fpcore", "homopoly", "derivmod", "basisfactory", "oracle")
METHODS = {"homopoly": ("HomoPoly", ("__mul__", "remainder_mod_linear"))}
# Sub-microsecond helpers that the wrapper would outweigh; their time stays
# in the calling function's self time.
UNWRAPPED = {
    "fpcore.is_prime", "fpcore.digits", "fpcore.from_digits",
    "derivmod.as_multiplicity", "derivmod.dist1",
    "fastexp.is_balanced", "fastexp.decompose",
}
MAX_SPANS = 200_000  # spans kept for the trace file; statistics cover all spans


def _count(key, amount=lambda args, result: 1):
    def hook(tracer, args, result):
        tracer.counters[key] += amount(args, result)
    return hook


def _shape_cells(args, result):
    rows, cols = args[0].shape
    return rows * cols


def _if_active(name, key):
    def hook(tracer, args, result):
        if tracer.active[name]:
            tracer.counters[key] += 1
    return hook


# name -> hook(tracer, args, result), run after the span closes; each is O(1)
# because its time lands in the caller's self time.
HOOKS = {
    "atlas.build_atlas": _count(
        "atlas.cells", lambda a, r: (a[0].max_mu1 + 1) * (a[0].max_mu2 + 1)
    ),
    "fastexp.ball_center": _if_active("fastexp.fast_exponents", "fastexp.scales_in_fast"),
    "fpcore.g_set": _count("fpcore.g_set_elems", lambda a, r: len(r)),
    "homopoly.HomoPoly.__mul__": _count(
        "homopoly.mul_products", lambda a, r: len(a[0].coeffs) * len(a[1].coeffs)
    ),
    "homopoly.HomoPoly.remainder_mod_linear": _count(
        "homopoly.linear_div_steps", lambda a, r: a[1] * (a[0].degree or 0)
    ),
    "derivmod.saito_check": _count("derivmod.saito_fails", lambda a, r: not r),
    "basisfactory.plan_basis": _count("basisfactory.hops", lambda a, r: len(r[1])),
    "basisfactory.gamma_membership": _count("basisfactory.gamma_hits", lambda a, r: bool(r)),
    "oracle.oracle_exponents": _if_active("basisfactory.plan_basis", "basisfactory.fallbacks"),
    "oracle.rank_mod_p": _count("oracle.elim_cells", _shape_cells),
    "oracle.row_reduce_mod_p": _count("oracle.elim_cells", _shape_cells),
}


class FuncStats:
    __slots__ = ("calls", "incl", "self_time")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.funcs: dict[str, FuncStats] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_seen = 0
        self.recording = False
        self._stack: list[list] = []  # [child_time, span_index, layer]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.funcs[name] = FuncStats()
        return len(self.names) - 1

    def targets(self) -> dict[object, str]:
        """Original callable -> qualified name, for every traced function."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"triarr.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    found[obj] = name
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"triarr.{layer}"], cls_name)
            for meth in methods:
                found[vars(cls)[meth]] = f"{layer}.{cls_name}.{meth}"
        return found

    def install(self) -> None:
        targets = self.targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        namespaces = [m for n, m in list(sys.modules.items()) if n == "triarr" or n.startswith("triarr.")]
        for layer, (cls_name, _) in METHODS.items():
            namespaces.append(getattr(sys.modules[f"triarr.{layer}"], cls_name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                # functions are hashable; skip anything else (lists, dicts ...)
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, obj = self._patches.pop()
            setattr(ns, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        idx = self._name_index(name, name.split(".", 1)[0])
        hook = HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._call(idx, hook, fn, args, kwargs)

        return traced

    def _open(self, idx: int) -> tuple[list, list | None]:
        stack = self._stack
        parent = stack[-1] if stack else None
        n = self.spans_seen
        self.spans_seen = n + 1
        slot = -1
        if n < MAX_SPANS:
            slot = n
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent[1] if parent is not None else -1)
        frame = [0.0, slot, self.layer_of[idx]]
        stack.append(frame)
        self.active[self.names[idx]] += 1
        return frame, parent

    def _close(self, idx: int, frame: list, parent, t0: float, t1: float) -> None:
        self._stack.pop()
        name = self.names[idx]
        self.active[name] -= 1
        dur = t1 - t0
        self_time = dur - frame[0]
        st = self.funcs[name]
        st.calls += 1
        st.incl += dur
        st.self_time += self_time
        layer = frame[2]
        if layer in self.layer_self:
            self.layer_self[layer] += self_time
        if frame[1] >= 0:
            self.span_start[frame[1]] = t0
            self.span_end[frame[1]] = t1

    def _call(self, idx, hook, fn, args, kwargs):
        frame, parent = self._open(idx)
        t0 = perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = perf_counter()
            self._close(idx, frame, parent, t0, t1)
            if parent is not None:
                parent[0] += t1 - t0
        if ok and hook is not None:
            hook(self, args, result)
        return result

    @contextmanager
    def op(self, kind: str):
        """Root span around one benchmark operation; enables recording."""
        name = f"op.{kind}"
        if name not in self.funcs:
            self._name_index(name, "op")
        idx = self.names.index(name)
        self.recording = True
        frame, parent = self._open(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._close(idx, frame, parent, t0, t1)
            self.recording = False

    # -- reporting --------------------------------------------------------------------

    def stats(self, name: str) -> FuncStats:
        return self.funcs.get(name) or FuncStats()

    def write(self, path) -> None:
        kept = len(self.span_name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans_seen": self.spans_seen,
                    "spans_kept": kept,
                    "spans": [
                        [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
                        for i in range(kept)
                    ],
                },
                fh,
            )
