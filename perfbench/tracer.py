"""Spans and counts recorded from outside the program.

A Tracer replaces a module or class attribute with a wrapper that opens
a span (name, start, end, parent) around the original and, optionally,
feeds the call's arguments and result to a counting hook. Spans stay in
memory until the run writes them out. A name that no longer exists is
recorded as absent instead of failing, so the benchmark keeps working
when a later version of the program renames or deletes a function.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

Hook = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(i)
        return i

    def end(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._open.pop()

    def _patch(self, owner: object, attr: str, name: str, make: Callable) -> bool:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return False
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patched.append((owner, attr, original))
        return True

    def wrap(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> bool:
        """Record a span named `name` around every call of `owner.attr`."""

        def make(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                i = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(i)
                if hook is not None:
                    self._run_hook(name, hook, args, kwargs, result)
                return result
            return traced

        return self._patch(owner, attr, name, make)

    def count_calls(self, owner: object, attr: str, name: str) -> bool:
        """Count calls of `owner.attr` under `name` without a span (for hot leaves)."""

        def make(original: Callable) -> Callable:
            def counted(*args: Any, **kwargs: Any) -> Any:
                self.counts[name] += 1
                return original(*args, **kwargs)
            return counted

        return self._patch(owner, attr, name, make)

    def after(self, owner: object, attr: str, name: str, hook: Hook) -> bool:
        """Run `hook` after each call of `owner.attr`, without a span."""

        def make(original: Callable) -> Callable:
            def hooked(*args: Any, **kwargs: Any) -> Any:
                result = original(*args, **kwargs)
                self._run_hook(name, hook, args, kwargs, result)
                return result
            return hooked

        return self._patch(owner, attr, name, make)

    def _run_hook(self, name: str, hook: Hook, args: tuple, kwargs: dict, result: Any) -> None:
        # A hook that no longer fits the program's types loses its counts;
        # the call itself must still succeed.
        try:
            hook(self.counts, args, kwargs, result)
        except Exception:  # noqa: BLE001 - reported through `broken`
            self.broken.add(name)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = self.durations()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            entry = agg[name]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += own
        return dict(agg)

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "broken": sorted(self.broken),
        }
