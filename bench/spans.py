"""Spans around calls into the package's layers, for the traced run only.

A Tracer rebinds each traced public function, in every sierpinski module
namespace that holds it, to a wrapper that records one span: name, parent
span, start and end (perf_counter_ns). Spans stay in memory; per-layer
self times and counts are derived from them after the run. Result hooks
count what a layer produced (probable verdicts, covers, grid cells, ...)
at the same boundary.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# module -> public functions traced. Functions that call each other across
# modules go through module globals, so rebinding those globals is enough.
LAYERS = {
    "cyclotomic": ("eval_cyclotomic",),
    "arith": ("prime_verdict", "factorize", "crt_solve", "multiplicative_order"),
    "covering": ("verify_cover", "enumerate_covers", "affine_orbit"),
    "_cover_kernels": ("enumerate_cover_tuples",),
    "construct": ("construct", "verify_certificate", "select_cover_prime", "build_congruences"),
    "search": ("search_min", "crt_solve_for", "assignments_for_cover", "eliminate_small_k"),
    "cli": ("run",),
}

OP = "bench.op"


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def _count_verdict(result, counts):
    counts["arith.prime_verdict.probable"] += result[1] == "probable"


def _count_factorize(result, counts):
    counts["arith.factorize.incomplete"] += not result.is_complete


def _count_covers(result, counts):
    counts["covering.enumerate_covers.covers"] += len(result)


def _count_eliminate(result, counts):
    statuses = Counter(r.status for r in result)
    counts["search.eliminate_small_k.k_scanned"] += len(result)
    counts["search.eliminate_small_k.prime_found"] += statuses["prime_found"]
    counts["search.eliminate_small_k.survivors"] += statuses["survivor"]
    counts["search.eliminate_small_k.nontrivial_k"] += len(result) - statuses["trivial"]


def _count_search(result, counts):
    counts["search.search_min.cells"] += len(result.candidates)
    counts["search.search_min.forced_trivial"] += sum(c.k is None for c in result.candidates)


HOOKS = {
    "arith.prime_verdict": _count_verdict,
    "arith.factorize": _count_factorize,
    "covering.enumerate_covers": _count_covers,
    "search.eliminate_small_k": _count_eliminate,
    "search.search_min": _count_search,
}


class Tracer:
    """Records spans as [name, parent index, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.labels: dict[int, object] = {}  # op span index -> label given to op()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(result, self.counts)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.absent.add(f"{name} result")
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self, label, fn):
        """Run fn() inside a benchmark operation span labelled `label`."""
        self.labels[len(self.spans)] = label
        return self.wrap(OP, fn)()

    def install(self) -> None:
        """Rebind every traced function that exists; note the ones that do not."""
        namespaces = [importlib.import_module("sierpinski")]
        found = {}
        for module in LAYERS:
            try:
                found[module] = importlib.import_module(f"sierpinski.{module}")
            except ModuleNotFoundError:
                self.absent.update(span_name(module, f) for f in LAYERS[module])
        namespaces += found.values()
        for module, mod in found.items():
            for function in LAYERS[module]:
                original = getattr(mod, function, None)
                name = span_name(module, function)
                if not callable(original):
                    self.absent.add(name)
                    continue
                traced = self.wrap(name, original, HOOKS.get(name))
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        self._bindings.append((ns, attr, original))
                        setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._bindings):
            setattr(ns, attr, original)
        self._bindings.clear()


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of [start, end] that the union of intervals covers."""
    total, reach = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_ns(start, end, children.get(i, ()))
        for i, (name, parent, start, end) in enumerate(spans)
    ]


def has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def op_breakdown(spans) -> dict[int, Counter]:
    """Per benchmark operation span: name -> time inside its outermost spans."""
    out: dict[int, Counter] = defaultdict(Counter)
    for name, parent, start, end in spans:
        nested, p = False, parent
        while p >= 0 and spans[p][0] != OP:
            nested = nested or spans[p][0] == name
            p = spans[p][1]
        if p >= 0 and not nested:
            out[p][name] += end - start
    return out
