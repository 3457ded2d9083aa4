"""Outside-in span tracer for the delsub benchmark.

The tracer rebinds the public functions of chosen delsub modules, in every
loaded delsub module namespace that holds them, to wrappers that record one
span per call.  Nothing under src/ changes, and leaving the context manager
restores the originals.  Spans stay in memory until `write` is called.

A function that a later refactor removes or stops calling simply records no
spans; every query below then reports count 0 and time 0 instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

# Span fields, kept as plain lists so recording a span costs one append.
NAME, START, END, PARENT = range(4)


class Tracer:
    """Records nested spans (name, start, end, parent) for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def installed(
        self, package: str, layers: Iterable[str], skip: frozenset[str] = frozenset()
    ) -> Iterator[None]:
        """Trace every public function defined in package.<layer> for each layer.

        Spans are named "<layer>.<function>".  Names in `skip` stay untraced.
        Generator functions stay untraced too: their work happens after the
        call returns, so a call span would not cover it.
        """
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in skip
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        holders = [
            m
            for key, m in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in reversed(self._restore):
                setattr(module, attr, obj)
            self._restore.clear()

    def analyse(self) -> "SpanTable":
        return SpanTable(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "span": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class SpanTable:
    """Durations, self times and root spans of a finished trace.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """

    def __init__(self, spans: list[list]) -> None:
        self.names = [s[NAME] for s in spans]
        self.duration = [s[END] - s[START] for s in spans]
        child = [0] * len(spans)
        self.root = [0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[PARENT]
            if parent < 0:
                self.root[i] = i
            else:
                child[parent] += self.duration[i]
                self.root[i] = self.root[parent]
        self.self_ns = [d - c for d, c in zip(self.duration, child)]

    def median_ns(self, name: str, *, own: bool = False) -> float:
        """Median duration (or self time) per call; 0 when never called."""
        source = self.self_ns if own else self.duration
        values = [source[i] for i, n in enumerate(self.names) if n == name]
        return statistics.median(values) if values else 0

    def per_root(self, names: Iterable[str], *, prefix: bool = False) -> list[tuple[int, int]]:
        """(calls, summed self ns) of the selected spans, per root span that has any.

        With prefix=True, `names` are name prefixes, such as a layer "cli.".
        """
        wanted = tuple(names)
        calls: dict[int, int] = {}
        own: dict[int, int] = {}
        for i, n in enumerate(self.names):
            if n.startswith(wanted) if prefix else n in wanted:
                r = self.root[i]
                calls[r] = calls.get(r, 0) + 1
                own[r] = own.get(r, 0) + self.self_ns[i]
        return [(calls[r], own[r]) for r in sorted(calls)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds for every span name."""
        out: dict[str, dict[str, float]] = {}
        for i, n in enumerate(self.names):
            row = out.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.duration[i] / 1e9
            row["self_s"] += self.self_ns[i] / 1e9
        return dict(sorted(out.items()))
