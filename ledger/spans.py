"""In-memory spans recorded by the benchmark around its calls into
the package.

The program itself carries no tracing yet, so every span here is taken
at a module boundary from the outside: either around a call the
benchmark makes itself (:meth:`Tracer.span`) or by temporarily
replacing a public function or method with a timing wrapper for the
length of a traced run (:meth:`Tracer.instrument`).  Spans are kept in
memory and written out once, when the benchmark ends.

A span's *self time* is its duration minus the time its child spans
cover; children are recorded on the same thread as their parent, so
they nest and never overlap each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = ["Span", "Tracer", "layer_of"]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """``"eval.pool.prepare"`` → ``"eval"``: layers are the package's
    top-level modules."""
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counts for one benchmark run.

    Recording only happens while :attr:`enabled` is set, so the same
    code path runs traced and untraced; an untraced span costs one
    attribute check.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        request = request if request is not None else inherited
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, request)
                )

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def instrument(
        self, targets: Iterable[tuple[object, str, str]]
    ) -> Iterator[None]:
        """Trace a block: wrap each ``(owner, attribute, span name)``
        so every call records a span (and a count under the span's
        name), then restore the originals and stop recording."""
        originals = []
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapped(original, name))
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def _wrapped(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- summaries -----------------------------------------------------

    def total(self, name: str, outside: str | None = None) -> float:
        """Summed duration of every span called ``name``, leaving out
        those whose parent span is called ``outside``."""
        names = {span.id: span.name for span in self.spans}
        return sum(
            span.duration
            for span in self.spans
            if span.name == name
            and (outside is None or names.get(span.parent) != outside)
        )

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.duration
                )
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.duration - covered.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return dict(sorted(out.items()))

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + seconds
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def summary(self) -> str:
        """The per-layer self-time table printed after a traced run."""
        layers = self.layer_self_times()
        total = sum(layers.values()) or 1.0
        lines = [f"{'layer':<12} {'self s':>9} {'share':>7}"]
        for layer, seconds in layers.items():
            lines.append(
                f"{layer:<12} {seconds:>9.3f} {seconds / total:>7.1%}"
            )
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [asdict(span) for span in self.spans],
            "counts": self.counts,
            "self_seconds": self.self_times(),
        }
        path.write_text(json.dumps(doc) + "\n")
