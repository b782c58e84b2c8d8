"""In-memory span recorder that times factoroid's layers from the outside.

A traced operation swaps selected module functions and methods for wrappers
that record a span around each call, runs the operation, and swaps the
originals back.  Every module of the package that holds a reference to a
target (``from .vna import factoriality_report`` and the like) is patched, so
the spans see exactly the calls the untraced operation makes: the traced
and untraced runs do the same work and differ only by the recording.

A target may be limited to calls made directly inside a span of another
layer (``within``); its other calls record nothing and count toward the
enclosing span.

A span is ``[op, name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1.  A layer's self time is its span's duration minus the
durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional

Probe = Callable[["Recorder", tuple, Any], None]


class Target(NamedTuple):
    owner: Any  # a module or a class
    attr: str
    layer: str
    probe: Optional[Probe] = None
    within: Optional[str] = None  # record only calls whose parent span is this


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self.op, name, perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def _parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][1] if self._stack else None

    def _wrapper(self, fn: Callable, t: Target) -> Callable:
        name, probe, within = t.layer, t.probe, t.within

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if within is not None and self._parent_name() != within:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapped

    # -- patching --------------------------------------------------------

    def prepare(self, package: str, targets: list[Target]) -> None:
        """Resolve targets into patches.

        A class attribute is patched on
        the class; a module function is patched in every loaded module of
        ``package`` that refers to the same object.
        """
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for t in targets:
            owner, attr = t.owner, t.attr
            orig = vars(owner).get(attr)
            if orig is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapped = self._wrapper(orig, t)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig, wrapped))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, name, orig, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def total_time(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (these never nest)."""
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["op", "name", "start", "end", "parent"],
                 "spans": self.spans},
                fh,
            )
