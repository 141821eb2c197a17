"""In-memory spans around nhchain's public functions, and the arithmetic on them.

The benchmark never edits the program.  It replaces a function by a
timing wrapper in the module namespace where callers look the name up
(``nhchain.sweep.decompose``, ``nhchain.winding.log_det_phase``, ...)
and puts the original back when the traced unit ends.

A span records its name, start, end, parent span and run id (one run id
per timed unit).  Self time is a span's duration minus the part of it
that its children cover, so the self times of all spans of a unit add up
to the duration of the unit's root span.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    run: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The nhchain module a span belongs to; the root span is 'other'."""
        head = self.name.split(".", 1)[0]
        return "other" if head == "bench" else head


class Patcher:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self) -> None:
        self._saved: list = []

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> bool:
        """Set owner.attr = make(original); False when owner has no such name."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Collects spans of traced units; wrappers are installed by wrap()."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run = 0
        self._stack: list = []
        self._patcher = Patcher()
        self.missing: list = []

    def open(self, name: str, attrs: Optional[dict] = None) -> Span:
        span = Span(id=len(self.spans), name=name, start=perf_counter(),
                    parent=self._stack[-1].id if self._stack else None,
                    run=self.run, attrs=dict(attrs or {}))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        # Pop through the span even if an inner span was left open by an exception.
        while self._stack:
            if self._stack.pop() is span:
                break

    def wrap(self, owner, attr: str, name: str, attrs: Optional[dict] = None,
             on_result: Optional[Callable] = None) -> None:
        """Time every call of owner.attr as a span called `name`.

        `on_result(span, args, kwargs, result)` runs after the span has
        closed, so whatever it computes is not part of the span.
        """
        tracer = self

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                span = tracer.open(name, attrs)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.attrs["raised"] = True
                    raise
                finally:
                    tracer.close(span)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            return traced

        if not self._patcher.patch(owner, attr, make):
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")

    def restore(self) -> None:
        self._patcher.restore()

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     **s.attrs}, default=str) + "\n")


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


def outermost(spans: list, name: str) -> list:
    """Spans called `name` that have no ancestor of the same name."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    return [s for s in spans if s.name == name and not nested(s)]
