"""In-memory span tracer that wraps functions from the outside.

``Tracer.patch`` replaces a name on the module (or class) where callers
look it up with a wrapper that records a span (name, start, end, parent)
and optionally counts something from the call's arguments and result.
``Tracer.restore`` puts every original back. Spans stay in memory until
``save`` writes them out.

Spans are recorded on one thread, so the children of a span never
overlap and lie inside it: a span's child coverage is the sum of its
children's durations, and its self time is its duration minus that.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans, counters and samples (patches stay)."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._stack = [-1]

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        sid = self._stack[-1]
        return None if sid < 0 else self.names[sid]

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``. ``after(tracer,
        args, result)`` runs once the call returns, inside the caller's
        span, to record counts."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> np.ndarray:
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def totals(self, self_time: bool = False) -> dict[str, float]:
        """Seconds per span name, inclusive or self."""
        if not self.names:
            return {}
        t = self.self_times() if self_time else np.asarray(self.ends) - np.asarray(self.starts)
        keys, idx = np.unique(np.asarray(self.names), return_inverse=True)
        return dict(zip(keys.tolist(), np.bincount(idx, weights=t).tolist()))

    def calls(self) -> dict[str, int]:
        keys, n = np.unique(np.asarray(self.names), return_counts=True)
        return dict(zip(keys.tolist(), n.tolist()))

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.asarray(self.names),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )
