"""In-memory span tracer, installed from outside the program under test.

A wrapper replaces a function at every place it is bound: its defining
module, each module that imported it with ``from ... import``, or the class
that owns it as a method. A span wrapper records one span per call (name,
start, end, parent span, enclosing episode id); a count wrapper only counts
calls. Spans stay in flat arrays until the caller saves them.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Percentile ladder for tail reporting; see tail_percentile.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self._wrappers: list[tuple[list[tuple[object, str]], object, object]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and zero every count."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.episode = array("i")
        self.counts = dict.fromkeys(self.counts, 0)
        self._stack: list[int] = []
        self._episode = -1
        self._next_episode = 0

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, sites, observe=None, episode: bool = False) -> None:
        """Register a span wrapper for ``name`` at every (owner, attribute)
        site. ``observe(tracer, result)`` runs after each call; ``episode``
        marks the span that opens a new episode id."""
        original = _original(sites)
        nid = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            index = len(self.start)
            outer_episode = self._episode
            if episode:
                self._episode = self._next_episode
                self._next_episode += 1
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.episode.append(self._episode)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
                self._episode = outer_episode
            if observe is not None:
                observe(self, result)
            return result

        self._wrappers.append((list(sites), original, wrapper))

    def count(self, name: str, sites, observe=None) -> None:
        """Register a count-only wrapper: ``counts[name + ".calls"]``."""
        original = _original(sites)
        key = f"{name}.calls"
        self.counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = original(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        self._wrappers.append((list(sites), original, wrapper))

    @contextmanager
    def installed(self):
        """Bind every registered wrapper for the duration of the block."""
        try:
            for sites, original, wrapper in self._wrappers:
                for owner, attr in sites:
                    if getattr(owner, attr) is not original:
                        raise RuntimeError(f"{owner!r}.{attr} is already rebound")
                    self._installed.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        ids = np.asarray(self.name_id, dtype=np.int32)
        duration = np.asarray(self.end) - np.asarray(self.start)
        own = self_times(self.start, self.end, self.parent)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=duration, minlength=n)
        self_total = np.bincount(ids, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}

    def spans_of(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Start and end times of every span called ``name``, in call order."""
        mask = np.asarray(self.name_id, dtype=np.int32) == self.names.index(name)
        return np.asarray(self.start)[mask], np.asarray(self.end)[mask]

    def arrays(self) -> dict[str, np.ndarray]:
        """A copy of every recorded span, one array per field."""
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int32),
            "episode": np.array(self.episode, dtype=np.int32),
        }


def _original(sites):
    objects = {id(getattr(owner, attr)) for owner, attr in sites}
    if len(objects) != 1:
        raise RuntimeError(f"sites {sites!r} do not share one function")
    owner, attr = sites[0]
    return getattr(owner, attr)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Spans from one thread nest properly and siblings never overlap, so the
    covered part is the sum of the children's durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(start))
    return duration - covered


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile that has at
    least TAIL_MIN_BEYOND samples beyond it; None when even the median
    does not."""
    values = np.asarray(samples, dtype=float)
    n = values.size
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    if best is None:
        return None
    return best, float(np.percentile(values, best))
