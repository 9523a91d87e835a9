"""In-memory span tracer that wraps pathexec's public functions in place.

A traced unit replaces each target function at every module binding that
holds it -- ``pathexec.harness.airy_pair`` and ``pathexec.cli.run_scenario``
are the same objects as ``pathexec.airy.airy_pair`` and
``pathexec.harness.run_scenario`` -- and restores every binding on exit, also
when the unit raises.  Each call records a span (name, start, end, parent)
in memory; a span's self time is its duration minus the durations of its
direct children.  Calls are strictly nested (one thread), so the children
never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

ROOT = -1  # parent index of a span with no traced caller


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr``, reported under ``name``.

    ``owner`` is the module (or class, for methods) that defines the function.
    ``count`` maps (args, result) to extra counters recorded at the boundary.
    Several targets may share a name; their spans then add up.
    """

    name: str
    owner: Any
    attr: str
    count: Optional[Callable[[tuple, Any], dict]] = None


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent != ROOT:
            own[parent] -= end - start
    return own


def _bindings(original, owner, modules) -> list[tuple[Any, str]]:
    """Every (namespace, attribute) pair that holds ``original``."""
    found = [(owner, attr) for attr, value in vars(owner).items() if value is original]
    for module in modules:
        if module is owner:
            continue
        found += [(module, attr) for attr, value in vars(module).items()
                  if value is original]
    return found


def package_modules() -> list:
    """The pathexec package and all of its loaded submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pathexec" or name.startswith("pathexec."))]


class Tracer:
    """Collects spans and counters while ``active()`` holds the wrappers in place."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else ROOT
            spans.append((target.name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (target.name, start, end, parent)
            if target.count is not None:
                counts[target.name].update(target.count(args, result))
            return result

        return traced

    @contextmanager
    def active(self):
        """Wrap every target at every binding; restore all of them on exit."""
        modules = package_modules()
        patched: list[tuple[Any, str, Any]] = []
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]
                wrapper = self._wrap(target, original)
                for holder, attr in _bindings(original, target.owner, modules):
                    patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per name: total self time, call count and the list of span durations."""
        out: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "durations": []})
            row["self_s"] += own
            row["calls"] += 1
            row["durations"].append(end - start)
        return out

    def root_time(self) -> float:
        """Time spent inside any traced call: the sum of all self times."""
        return sum(end - start for _, start, end, parent in self.spans if parent == ROOT)
