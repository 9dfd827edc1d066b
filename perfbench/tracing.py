"""In-memory span tracing around the library's public functions.

The tracer wraps functions from outside the library: while a scope is
active, every call to a wrapped function records one span (id, parent id,
name, start, end, scope) plus optional work counts computed from its
arguments and result.  Spans stay in memory until the benchmark writes them
out at the end.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# A span: (id, parent id or -1, name, start ns, end ns, scope, counts or None)
Span = tuple


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    owner is a module or a class; for a module, every ``mvdmm`` module that
    holds the same function object under any name is patched too, so calls
    through ``from .x import f`` are traced as well.  name is the span name,
    or a function of the call's arguments that returns it.  counts, if given,
    maps (args, result) to the work counts recorded on the span.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    counts: Callable[[tuple, Any], dict] | None = None


@dataclass
class Aggregate:
    """Spans of one name within one scope."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._scope: object = None
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def active(self, scope: object):
        """Trace every wrapped call made inside the block under `scope`."""
        self._scope = scope
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _wrap(self, target: Target, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            name = target.name if isinstance(target.name, str) else target.name(args)
            stack.append(span_id)
            result, returned = None, False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = target.counts(args, result) if returned and target.counts else None
                spans.append((span_id, parent, name, start, end, self._scope, counts))

        return traced

    def _install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "mvdmm" or n.startswith("mvdmm.")]
        for target in self.targets:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(target, original)
            if isinstance(target.owner, type):
                homes = [(target.owner, target.attr)]
            else:
                homes = [
                    (mod, key)
                    for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for home, key in homes:
                self._patched.append((home, key, original))
                setattr(home, key, wrapper)

    def _uninstall(self) -> None:
        while self._patched:
            home, key, original = self._patched.pop()
            setattr(home, key, original)


def aggregate(spans: list[Span]) -> dict[object, dict[str, Aggregate]]:
    """Per scope and span name: calls, total and self time, summed counts."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[object, dict[str, Aggregate]] = defaultdict(lambda: defaultdict(Aggregate))
    for span_id, _, name, start, end, scope, counts in spans:
        agg = out[scope][name]
        agg.calls += 1
        agg.total_ns += end - start
        agg.self_ns += end - start - child_ns[span_id]
        for key, value in (counts or {}).items():
            agg.counts[key] += value
    return out
