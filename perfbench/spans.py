"""An in-memory span recorder for the traced run.

Spans are recorded from outside the program: :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that opens a span
around each call, and :meth:`Tracer.restore` puts the originals back.
Each span holds a name, start, end, parent span and request id; spans
stay in memory until :meth:`Tracer.write` saves them at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

_MISSING = object()


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        parent, parent_request = stack[-1] if stack else (None, None)
        ident = next(self._ids)
        stack.append((ident, request if request is not None else parent_request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _, request = stack.pop()
            self.spans.append(Span(ident, name, start, end, parent, request))

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if inspect.isgenerator(result):
                # A generator does its work as it is consumed: time each step.
                return self._traced_steps(name, result)
            return result

        self.replace(owner, attr, traced)

    def _traced_steps(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name -> (summed self seconds, calls).

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.ident, ()), key=lambda s: s.start):
                start = max(child.start, reach)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            entry = totals[span.name]
            entry[0] += span.seconds - covered
            entry[1] += 1
        return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}

    def durations(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
