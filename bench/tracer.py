"""Span tracer that wraps library functions from outside the library.

Each traced function is replaced, under every module-level name in the
package's modules that refers to it, by a wrapper that records a span
(name, start, end, parent span, call id).  Spans stay in memory, in flat
arrays so that a long run stays small; self time is a span's duration
minus the durations of its direct children.  Leaving the context restores
every binding.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter


class Tracer:
    """Context manager that traces `targets` ("module.function" names).

    `modules` maps a short module name to the module object; every
    attribute of every module that is one of the target functions is
    rebound.  `capture` maps a target name to a function of the call's
    arguments whose value is kept in `captured[span index]`, for counters
    computed after the run.
    """

    def __init__(self, modules: dict, targets, capture=None):
        self.modules = modules
        self.targets = tuple(targets)
        self.capture = capture or {}
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.call_ids = array("l")
        self.captured = {}
        self.call_id = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        originals = {}
        for target in self.targets:
            mod, func = target.split(".")
            originals[id(getattr(self.modules[mod], func))] = target
        wrappers = {}
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                target = originals.get(id(value))
                if target is None:
                    continue
                if target not in wrappers:
                    wrappers[target] = self._wrap(target, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[target])
        missing = set(self.targets) - set(wrappers)
        if missing:
            self.__exit__(None, None, None)
            raise LookupError(f"traced functions not found: {sorted(missing)}")
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def _wrap(self, name, func):
        code = self.targets.index(name)
        capture = self.capture.get(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, call_ids, stack = self.parents, self.call_ids, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(names)
            if capture is not None:
                self.captured[index] = capture(*args, **kwargs)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            call_ids.append(self.call_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def new_call(self):
        """Start a new call id: spans of one top-level call share it."""
        self.call_id += 1

    def self_times(self) -> list:
        """Self time of every span: duration minus its children's."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        out = list(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[index]
        return out

    def summary(self) -> dict:
        """{target: {"calls", "total_s", "self_s"}} over all spans."""
        out = {t: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for t in self.targets}
        for code, start, end, own in zip(
            self.names, self.starts, self.ends, self.self_times()
        ):
            entry = out[self.targets[code]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return out

    def write(self, path):
        """Write spans as JSON lines: name, start, end, parent, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            for code, start, end, parent, call in zip(
                self.names, self.starts, self.ends, self.parents, self.call_ids
            ):
                fh.write(json.dumps([self.targets[code], start, end, parent, call]))
                fh.write("\n")
