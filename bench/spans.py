"""Span recorder for the traced benchmark run.

The recorder replaces public functions of a package by name, in the module
that defines each one and in every module that imported it with
``from .x import f``, so calls from inside the package are seen too.  Each
call becomes one span (name, start, end, parent span, phase) kept in memory,
plus the counts a per-target function derives from the call's arguments and
result.  ``uninstall`` puts every original object back.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Recorder.spans
    phase: str
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``module`` and ``attr`` name it, ``span``
    is the span name, ``count`` maps (result, *args, **kwargs) to counts."""

    module: str
    attr: str
    span: str
    count: object = None


class Recorder:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(
                target.span,
                time.perf_counter_ns(),
                0,
                self._stack[-1] if self._stack else None,
                self.phase,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter_ns()
                self._stack.pop()
                span.counts = {"calls": 1, "failures": 1}
                raise
            span.end = time.perf_counter_ns()
            self._stack.pop()
            span.counts = {"calls": 1, "failures": 0}
            if target.count is not None:
                span.counts.update(target.count(result, *args, **kwargs))
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target everywhere the package binds it by that name."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        ]
        for target in targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                if vars(mod).get(target.attr) is original:
                    self._patched.append((mod, target.attr, original))
                    setattr(mod, target.attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[str, str]]:
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, phase."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                            "phase": span.phase,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.end - span.start - covered)
    return out


def totals_by_phase(spans: list[Span]) -> dict[str, dict[str, dict]]:
    """phase -> span name -> {"self_ns": int, <count>: int, ...}."""
    out: dict[str, dict[str, dict]] = defaultdict(dict)
    for span, self_ns in zip(spans, self_times(spans)):
        entry = out[span.phase].setdefault(span.name, defaultdict(int))
        entry["self_ns"] += self_ns
        for key, value in span.counts.items():
            entry[key] += value
    return {p: {n: dict(e) for n, e in names.items()} for p, names in out.items()}
