"""Span tracer that wraps the public functions of the mgfk layers from outside.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started (its parent).  Spans live in flat arrays,
so a traced run of a million calls costs tens of megabytes, and are written
out only when the run ends.  The package itself is not edited: wrappers are
installed on module and class attributes and removed again by ``uninstall``.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``work(*args, **kwargs)``, if given, returns a number stored with the
        span (bytes or multiply-adds computed from the arguments).
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack, name_id, parent, start, end, work_log = (
            self._stack, self.name_id, self.parent, self.start, self.end, self.work,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            work_log.append(work(*args, **kwargs) if work is not None else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, work=None, adapt=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; ``adapt`` may first
        wrap the original (used to count the matvecs an eigensolver makes).

        An attribute the owner does not define is left alone, so a layer
        that a refactor renames or moves reads as zero instead of breaking
        the traced run.
        """
        namespace = owner.__dict__ if isinstance(owner, type) else vars(owner)
        original = namespace.get(attr)
        if original is None:
            return
        inner = adapt(original) if adapt is not None else original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, inner, work))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays: name id, parent index, start, end, work."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_cost(calls: int = 200_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op (with a work
    callable, as the applies have) timed against the bare no-op."""
    def noop(*args):
        return 0.0

    wrapped = Tracer().wrap("probe", noop, work=noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(0)
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped(0)
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


class SpanTable:
    """Recorded spans as arrays, with the derived quantities metrics need.

    A span's self time is its duration minus the durations of its child
    spans; calls run on one thread, so children never overlap.
    """

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        self.nid, self.parent, self.work = spans["name_id"], spans["parent"], spans["work"]
        self.duration = spans["end"] - spans["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time
        self.parent_nid = np.where(has_parent, self.nid[np.maximum(self.parent, 0)], -1)

    def _ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def of(self, *names: str) -> np.ndarray:
        """Mask of the spans with any of these names."""
        return np.isin(self.nid, self._ids(names))

    def called_from(self, *names: str) -> np.ndarray:
        """Mask of the spans whose parent has one of these names."""
        return np.isin(self.parent_nid, self._ids(names))

    def nesting_self_time(self, name: str) -> np.ndarray:
        """Self time of a recursive function by nesting depth (a V-cycle's
        levels): depth 0 is a call not made from the function itself."""
        sel = self.of(name)
        depth = np.zeros(len(self.nid), dtype=np.int64)
        nested = sel & self.called_from(name)
        for idx in np.flatnonzero(sel):
            if nested[idx]:
                depth[idx] = depth[self.parent[idx]] + 1
        return np.bincount(depth[sel], weights=self.self_time[sel])
