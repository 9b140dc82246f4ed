"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` records one span per call of a wrapped function:
name, start, end, parent span and the op it belongs to (``-1`` while
setting up).  Spans are kept in typed arrays and written out once, when
the run ends.  :func:`self_times` turns them into per-span self time:
duration minus the time covered by direct child spans.

Wrappers are installed with :func:`patched`, which replaces an attribute
on a module or class — at the site where the caller looks the name up —
and restores the original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

#: op id of spans recorded while setting up (including the warm-up op)
SETUP = -1


class Tracer:
    """Span store plus per-op counters and samples."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack = [-1]
        #: op id stamped on new spans; the runner advances it per op
        self.op = SETUP
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self._stack.append(sid)
        return sid

    def wrap(
        self, fn: Callable, name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``on_result(tracer, result)`` runs after the span closes, so its
        cost lands in the caller's self time, not in ``name``'s.
        """
        nid = self._intern(name)
        clock = time.perf_counter
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one ``name`` span."""
        sid = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.start[sid] = t0
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (only inside timed ops)."""
        if self.op != SETUP:
            self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        """Record one per-op sample of ``name`` (only inside timed ops)."""
        if self.op != SETUP:
            self.samples.setdefault(name, []).append(value)

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as NumPy columns (plus the name table)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "names": np.array(self.names, dtype=str),
        }

    def save(self, path: str) -> None:
        """Write the span table to ``path`` (``.npz``)."""
        np.savez_compressed(path, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus its direct children's durations.

    Calls in one thread nest, so the children of a span are disjoint
    intervals inside it and their summed durations are exactly the time
    they cover.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - covered


class Summary:
    """Per-name call counts and self-time sums, split setup vs. ops."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.arrays()
        own = self_times(cols["start"], cols["end"], cols["parent"])
        in_op = cols["op"] != SETUP
        self.names = tracer.names
        k = len(self.names)
        nid = cols["name_id"]
        self.op_calls = np.bincount(nid[in_op], minlength=k)
        self.op_self = np.bincount(nid[in_op], weights=own[in_op], minlength=k)
        self.setup_calls = np.bincount(nid[~in_op], minlength=k)
        self.setup_self = np.bincount(nid[~in_op], weights=own[~in_op], minlength=k)

    def _get(self, table: np.ndarray, name: str) -> float:
        try:
            return float(table[self.names.index(name)])
        except ValueError:  # never called: no span of that name
            return 0.0

    def calls(self, name: str, setup: bool = False) -> float:
        return self._get(self.setup_calls if setup else self.op_calls, name)

    def self_s(self, name: str, setup: bool = False) -> float:
        return self._get(self.setup_self if setup else self.op_self, name)


def _wrapped_attr(raw: Any, make: Callable[[Callable], Callable]) -> Any:
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


@contextlib.contextmanager
def patched(tracer: Tracer, sites: list[tuple[Any, str, str, Any]]) -> Iterator[None]:
    """Wrap ``owner.attr`` for every ``(owner, attr, span, on_result)``.

    ``owner`` is a module or class; the raw attribute (function or
    classmethod) is taken from its ``__dict__`` and put
    back on exit, so nothing outlives the block.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, on_result in sites:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            setattr(owner, attr, _wrapped_attr(
                raw, lambda fn, n=name, h=on_result: tracer.wrap(fn, n, h)
            ))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class MethodProxy:
    """Exposes exactly ``inner``'s public methods, some of them traced.

    Code that probes capabilities with ``hasattr`` (the switch engine
    checks for ``schedule_matrix``/``schedule_weighted``) sees the same
    surface as on ``inner`` and so takes the same path.
    """

    def __init__(self, inner: Any, tracer: Tracer, traced: dict[str, str]) -> None:
        for attr in dir(inner):
            if attr.startswith("_"):
                continue
            value = getattr(inner, attr)
            if not callable(value):
                continue
            if attr in traced:
                value = tracer.wrap(value, traced[attr])
            setattr(self, attr, value)
