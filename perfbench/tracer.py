"""In-memory span tracer that wraps quanvaudio's public callables from outside.

Nothing in the package is edited. ``Tracer.install`` replaces every
binding of a public function or method of the traced modules with a
wrapper that records one span ``[name, tag, start, end, parent]``:

* module functions are replaced in every ``quanvaudio.*`` module that binds
  them by name (``from .quanv import quanv_forward`` in ``harness`` and
  ``cli``) and in module-level dicts (``qsim._BUILDERS``), so no call path
  reads a silent zero;
* methods are replaced on their class, which every instance looks up.

Each binding gets its own wrapper, so calls can also be counted per
binding module (``harness``'s ``load_tensor`` calls are its cache hits).
``uninstall`` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "audio", "corrupt", "dsp", "qsim", "quanv", "nn", "harness", "tensorio", "cli",
)


def _public(name: str) -> bool:
    return not name.startswith("_")


class Tracer:
    """Records spans for wrapped calls.

    ``tags`` maps a span name to ``f(*args, **kwargs) -> str`` that labels
    the span (e.g. the circuit template); ``hooks`` maps a span name to
    ``f(counters, args, kwargs, result)`` that adds exact work counts.
    """

    def __init__(self, tags=None, hooks=None):
        self.tags = tags or {}
        self.hooks = hooks or {}
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name: str, binder: str):
        tag_of = self.tags.get(name)
        hook = self.hooks.get(name)
        spans, stack, calls, counters = (
            self.spans, self._stack, self.binding_calls, self.counters,
        )
        key = (name, binder)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            span = [name, tag_of(*args, **kwargs) if tag_of else None, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        functions = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"quanvaudio.{short}")
            for attr, obj in list(vars(mod).items()):
                if not _public(attr) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    functions[obj] = f"{short}.{attr}"
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{short}.{attr}", short)
        binders = [
            m for n, m in sorted(sys.modules.items())
            if (n == "quanvaudio" or n.startswith("quanvaudio.")) and m is not None
        ]
        for mod in binders:
            binder = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in functions:
                            obj[k] = self._wrap(v, functions[v], binder)
                            self._restore.append((obj.__setitem__, k, v))
                elif inspect.isfunction(obj) and obj in functions:
                    setattr(mod, attr, self._wrap(obj, functions[obj], binder))
                    self._restore.append((functools.partial(setattr, mod), attr, obj))

    def _install_methods(self, cls, prefix: str, binder: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if not _public(attr):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, f"{prefix}.{attr}", binder))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                new = self._wrap(raw, f"{prefix}.{attr}", binder)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((functools.partial(setattr, cls), attr, raw))

    def uninstall(self) -> None:
        for put, key, original in reversed(self._restore):
            put(key, original)
        self._restore.clear()

    def summarize(self) -> "TraceSummary":
        return TraceSummary(self.spans, self.counters, self.binding_calls)

    def write_spans(self, path) -> None:
        """One CSV line per span: index, parent, name, tag, start_s, end_s."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "parent", "name", "tag", "start_s", "end_s"])
            for i, (name, tag, start, end, parent) in enumerate(self.spans):
                out.writerow([i, parent, name, tag or "", repr(start), repr(end)])


class TraceSummary:
    """Per-name aggregates of a span list.

    ``busy`` sums only spans with no same-name ancestor, so recursion is
    not counted twice. ``self_time`` sums each span's duration minus the
    time its direct child spans cover (children of one thread never
    overlap).
    """

    def __init__(self, spans, counters, binding_calls):
        self.counters = counters
        self.binding_calls = binding_calls
        child = [0.0] * len(spans)
        for name, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.tag_calls: Counter = Counter()
        self.tag_busy: Counter = Counter()
        self.module_self: Counter = Counter()
        for i, (name, tag, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.durations[name].append(dur)
            self.self_time[name] += dur - child[i]
            self.module_self[name.partition(".")[0]] += dur - child[i]
            if tag is not None:
                self.tag_calls[(name, tag)] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][4]
            if p < 0:
                self.busy[name] += dur
                if tag is not None:
                    self.tag_busy[(name, tag)] += dur

    def p50_ms(self, name: str) -> float:
        durs = self.durations.get(name)
        return 1e3 * statistics.median(durs) if durs else 0.0
