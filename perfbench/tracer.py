"""In-memory span tracer that wraps the program's public boundaries.

The tracer never edits the program: :meth:`Tracer.install` replaces each
boundary (a class method or a module-level function) with a thin wrapper and
:meth:`Tracer.uninstall` puts every original object back, so untraced timings
run the exact code they would run without the benchmark.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
span that was open when this one started (``-1`` for a top-level span) and
``run`` is the repetition the span belongs to.  Spans are kept in flat arrays
while the traced section runs and written out when the benchmark ends.  A
span's *self time* is its duration minus the part of it that its child spans
cover; the self times of all spans therefore partition the time the top-level
spans cover, which is what the coverage gate checks against the wall clock.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Boundary", "Tracer", "self_times"]

#: Span-name prefix of the attacker's frame hook.  A ``PerceptionSystem``
#: call whose parent span carries it is the malware's shadow perception;
#: any other parent makes it the victim's.
ATTACKER_PREFIX = "core.attacker."


@dataclass(frozen=True)
class Boundary:
    """One wrapped call site.

    ``owner`` is a class (the method ``attr`` is wrapped on it) or a module
    (the function ``attr`` is wrapped in every loaded module that holds the
    same function object, so ``from x import f`` call sites are traced too).
    ``span=False`` only counts calls.  ``on_result(tracer, args, kwargs,
    result)`` records counts at the same point.
    """

    name: str
    owner: object
    attr: str
    span: bool = True
    on_result: Optional[Callable] = None


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: starts[i]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


class Tracer:
    """Records spans and counts at the installed boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.counts: Dict[str, float] = {}
        self.run_id = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        stack.append(index)
        self.span_start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError("spans closed out of order")

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1]]]

    def _wrap(self, boundary: Boundary, original: Callable) -> Callable:
        tracer = self
        name = boundary.name
        on_result = boundary.on_result

        if not boundary.span:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.count(name + ".calls")
                return original(*args, **kwargs)

            return counted

        if name == "perception.process":
            def span_name() -> str:
                parent = tracer.parent_name()
                if parent is not None and parent.startswith(ATTACKER_PREFIX):
                    return "perception.shadow.process"
                return "perception.victim.process"
        else:
            def span_name() -> str:
                return name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(span_name())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------ #

    def install(self, boundaries: Sequence[Boundary]) -> None:
        """Wrap every boundary; :meth:`uninstall` undoes all of it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for boundary in boundaries:
                if isinstance(boundary.owner, type):
                    namespace = boundary.owner.__dict__
                    if boundary.attr not in namespace:
                        raise AttributeError(
                            f"{boundary.owner.__qualname__} does not define {boundary.attr!r}"
                        )
                    original = namespace[boundary.attr]
                    self._set(boundary.owner, boundary.attr, self._wrap(boundary, original), original)
                else:
                    original = getattr(boundary.owner, boundary.attr)
                    wrapper = self._wrap(boundary, original)
                    for module in list(sys.modules.values()):
                        namespace = getattr(module, "__dict__", None)
                        if namespace is not None and namespace.get(boundary.attr) is original:
                            self._set(module, boundary.attr, wrapper, original)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner: object, attr: str, value: object, original: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped object, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    # Summaries and output
    # ------------------------------------------------------------------ #

    def self_times(self) -> List[float]:
        return self_times(self.span_start, self.span_end, self.span_parent)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for index, self_s in enumerate(selfs):
            entry = table.setdefault(
                self.names[self.span_name[index]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            entry["calls"] += 1
            entry["total_s"] += self.span_end[index] - self.span_start[index]
            entry["self_s"] += self_s
        return table

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write every span (as parallel columns) and count as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "run"],
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "run": self.span_run.tolist(),
            "counts": self.counts,
            **(extra or {}),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
