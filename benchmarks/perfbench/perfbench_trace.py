"""In-memory span tracer and attribute rebinding for the repo benchmark.

The tracer records spans (name, start, end, parent span, run id) and plain
counts.  It never touches the program's source: it rebinds the module and
class attributes that callers resolve at call time (``Network.run``, a
kernel's ``build`` classmethod, ``repro.applications.shortcut_mst.
build_kogan_parter_shortcut``, ...) to wrappers that open and close a span
around the original, and restores every attribute on exit.

A span's *self time* is its duration minus the part of its interval that
its child spans cover; a layer's self time is the sum of the self times of
the spans whose name starts with ``"<layer>."``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

# Span record layout: [name, start, end, parent index (-1 = root), run id].
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Spans and counts kept in memory until the run writes them out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def maximum(self, name: str, value: float) -> None:
        current = self.counts[self.run_id]
        if value > current.get(name, 0):
            current[name] = value

    def run_spans(self, run_id: int) -> list[list]:
        """The spans of one run, with parents re-indexed into the sublist."""
        picked = [i for i, s in enumerate(self.spans) if s[RUN] == run_id]
        where = {old: new for new, old in enumerate(picked)}
        out = []
        for i in picked:
            s = self.spans[i]
            out.append([s[NAME], s[START], s[END], where.get(s[PARENT], -1), s[RUN]])
        return out


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


@dataclass
class SpanTotals:
    """Per-name totals over a list of spans."""

    total: dict[str, float]
    own: dict[str, float]
    calls: dict[str, int]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.own.items() if k.startswith(prefix))


def span_totals(spans: list[list]) -> SpanTotals:
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += t
        calls[s[NAME]] += 1
    return SpanTotals(dict(total), dict(own), dict(calls))


# ----------------------------------------------------------------------
# attribute rebinding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hook:
    """One attribute to rebind.

    ``target`` is ``"module.path:attr"`` or ``"module.path:Class.attr"``.
    ``kind`` is ``"span"`` (open a span around the call) or ``"call"``
    (only count calls under ``name``, for functions too hot to span or for
    capturing results).  ``after`` is called as ``after(tracer, result)``
    once the original returned.
    """

    target: str
    name: str
    kind: str = "span"
    after: Optional[Callable[[Tracer, Any], None]] = None


def _resolve(target: str) -> tuple[Any, str]:
    module_path, _, attr_path = target.partition(":")
    owner: Any = importlib.import_module(module_path)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{target}: {owner.__name__} defines no {attr!r}")
    elif not hasattr(owner, attr):
        raise AttributeError(f"{target}: no such attribute")
    return owner, attr


def _make_wrapper(fn: Callable, hook: Hook, tracer: Tracer) -> Callable:
    name, after = hook.name, hook.after
    if hook.kind == "call":

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, result)
        return result

    return spanned


@contextmanager
def rebound(hooks: list[Hook], tracer: Tracer) -> Iterator[None]:
    """Rebind every hook's attribute for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook.target)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(_make_wrapper(raw.__func__, hook, tracer))
            else:
                replacement = _make_wrapper(raw, hook, tracer)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
