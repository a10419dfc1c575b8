"""Count and time calls into tsk's layers from outside the package.

`Tracer.install()` rebinds tsk's public functions and methods to
wrappers: a module-level function is rebound in every `tsk.*` module
that holds it (`obstruct` has its own `factorize`, `cli` its own
`obstruction_verdict`), a method on its class.  Every wrapper adds to a
call count and a self time (its duration minus the time of wrapped
calls made inside it).  Pipeline-level functions also record a span
(name, start, end, parent span, item id), kept in memory until the
caller writes them out; the hot leaves (`join` runs about a million
times on factorize-chain) keep only the aggregates.

The layers are single-threaded and have no queues, so there is no wait
time to measure: busy time and operation counts are the whole story.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# name -> (module, attribute path).  Leaves keep aggregates only.
LEAVES = {
    "linalg.subspace_new": ("tsk.linalg", "Subspace.__init__"),
    "linalg.join": ("tsk.linalg", "Subspace.join"),
    "linalg.meet": ("tsk.linalg", "Subspace.meet"),
    "linalg.le": ("tsk.linalg", "Subspace.__le__"),
    "multifilt.construct": ("tsk.multifilt", "Multifiltration.__init__"),
    "ring.mul": ("tsk.ring", "TruncPoly.__mul__"),
    "ring.int_pow": ("tsk.ring", "TruncPoly.int_pow"),
}
SPANS = {
    "documents.load_document": ("tsk.documents", "load_document"),
    "multifilt.validate": ("tsk.multifilt", "Multifiltration.validate"),
    "multifilt.apply_elementary": ("tsk.multifilt", "apply_elementary"),
    "multifilt.elementary_check": ("tsk.multifilt", "elementary_check"),
    "multifilt.factorize": ("tsk.multifilt", "factorize"),
    "multifilt.is_contained": ("tsk.multifilt", "is_contained"),
    "multifilt.recompose": ("tsk.multifilt", "recompose"),
    "multifilt.reflexive_hull": ("tsk.multifilt", "reflexive_hull"),
    "obstruct.obstruction_verdict": ("tsk.obstruct", "obstruction_verdict"),
    "reflexive.to_multifiltration": ("tsk.reflexive", "to_multifiltration"),
    "reflexive.chern_total": ("tsk.reflexive", "chern_total"),
    "reflexive.from_multifiltration": ("tsk.reflexive", "from_multifiltration"),
    "chern.chern_general": ("tsk.chern", "chern_general"),
    "prescribe.solve_p": ("tsk.prescribe", "solve_p"),
    "prescribe.build_sequence": ("tsk.prescribe", "build_sequence"),
}
WRAPPED = {**LEAVES, **SPANS}


def _tally_result(extra: dict[str, int], name: str, args: tuple, result: Any) -> None:
    """Counters read off a wrapped call's arguments or result."""
    if name == "documents.load_document":
        extra["documents.bytes_in"] += len(args[0].encode("utf-8"))
    elif name == "multifilt.elementary_check":
        extra["multifilt.steps"] += 1
    elif name == "obstruct.obstruction_verdict":
        extra["obstruct.not_smoothable"] += type(result).__name__ == "NotSmoothable"
    elif name == "prescribe.build_sequence":
        extra["prescribe.built"] += result.built


_TALLIED = {
    "documents.load_document",
    "multifilt.elementary_check",
    "obstruct.obstruction_verdict",
    "prescribe.build_sequence",
}


class Tracer:
    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        # "child<parent" -> calls of a span function made directly by another.
        self.under: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int, Any]] = []
        # One frame per active wrapped call: [child seconds, name, span index].
        self._stack: list[list] = []
        self.item: Any = None
        self._item_t0 = 0.0

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, name: str, fn: Callable) -> Callable:
        stack, count, self_s = self._stack, self.count, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, name, -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                count[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        tallied = name in _TALLIED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                tracer.under[f"{name}<{parent[1]}"] += 1
            parent_span = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserved; filled on exit
            frame = [0.0, name, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if tallied:
                    _tally_result(tracer.extra, name, args, result)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                tracer.spans[index] = (name, t0, t1, parent_span, tracer.item)
                tracer.count[name] += 1
                tracer.self_s[name] += dt - frame[0]
                tracer.incl_s[name] += dt
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def begin_item(self, item: Any) -> None:
        """Open the root span of one benchmark item."""
        self.item = item
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, "item", index])
        self._item_t0 = time.perf_counter()

    def end_item(self) -> None:
        frame = self._stack.pop()
        self.spans[frame[2]] = ("item", self._item_t0, time.perf_counter(), -1, self.item)
        self.item = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function wherever tsk holds it."""
        importlib.import_module("tsk")
        modules = [m for k, m in sys.modules.items() if k == "tsk" or k.startswith("tsk.")]
        for name, (module, path) in WRAPPED.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = (self._leaf if name in LEAVES else self._span)(name, original)
            # The owner and every alias (TruncPoly.__rmul__ is __mul__,
            # `from .multifilt import factorize` copies a reference).
            holders = [owner] if outer else []
            holders += modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    # -- export -----------------------------------------------------------

    def aggregates(self) -> dict:
        from tsk.multifilt import _canonical_jumps

        info = _canonical_jumps.cache_info()
        return {
            "count": dict(self.count),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "under": dict(self.under),
            "extra": dict(self.extra),
            "canonical": {"hits": info.hits, "misses": info.misses},
        }

    def span_records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "item")
        return [dict(zip(keys, span)) for span in self.spans if span is not None]
