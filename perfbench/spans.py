"""In-memory span recorder used by the traced benchmark runs.

Spans are recorded from outside the program: the benchmark replaces module
attributes that the pipeline calls through with wrappers made by
`Tracer.wrap`, and puts the originals back when the traced unit ends
(`patched`). Nothing here imports bellstrobe.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    """Spans (name, start, end, parent index, phase) plus per-unit counts.

    Calls are assumed to come from one thread, so the open spans form a stack
    and a span's children never overlap one another. `later` holds counting
    work that is too costly to do inside the traced calls; the caller runs it
    once the unit is done.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = ""
        self.later: list[Callable[[], None]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` with a span named `name` around each call.

        `count(tracer, result, *args, **kwargs)` runs after the span closes,
        so it must stay cheap: its time falls in the parent span's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "phase": self.phase,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def keep_max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)


def layer_times(spans: list[dict]) -> dict[str, tuple[float, float]]:
    """Per span name: (summed duration, summed self time).

    A span's self time is its duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        out[span["name"]][0] += duration
        out[span["name"]][1] += duration - child_time[i]
    return {name: (total, own) for name, (total, own) in out.items()}


@contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set each (owner, attribute, value) for the duration of the block,
    then restore every original, also when the block raises."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
