"""In-memory spans around calls into diskevac's modules, taken from outside.

A Tracer replaces a function at its module attribute with a wrapper that
records one span per call: name, start, end, parent span and the number
of points (array elements) the call worked on.  Calls resolve module
globals at call time, so `_batch.batch_f2f_same` calling `_frame` goes
through the wrapper too.  Spans live in flat arrays until `summary`
folds them into per-function calls, points, seconds and self seconds,
where self time is a span's duration minus the durations of its
children (spans are strictly nested: one thread, no overlap).

The wrappers are inert unless `enabled` is set, and they pass through in
any process other than the one that created the tracer, so forked pool
workers neither record nor pay for recording.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np


def array_points(args, kwargs, result) -> int:
    """Largest numpy array argument's size; 1 for a scalar call."""
    sizes = [a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return max(sizes, default=1)


def result_len(args, kwargs, result) -> int:
    return len(result)


def first_arg(args, kwargs, result) -> int:
    return int(args[0])


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.points = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def wrap(self, module, attr: str, name: str, points=array_points) -> None:
        """Replace module.attr by a span-recording wrapper named `name`."""
        orig = getattr(module, attr)
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled or os.getpid() != self._pid:
                return orig(*args, **kwargs)
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.points.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            self.points[idx] = points(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap_all()

    def _arrays(self):
        # Copies, not buffer views: a live view would stop the arrays growing.
        ids = np.array(self.name_ids, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        durs = np.array(self.ends) - np.array(self.starts)
        points = np.array(self.points, dtype=np.int64)
        return ids, parents, durs, points

    def durations(self, prefix: str) -> np.ndarray:
        """Durations of every span whose name starts with `prefix`."""
        ids, _, durs, _ = self._arrays()
        wanted = [i for i, name in enumerate(self.names) if name.startswith(prefix)]
        return durs[np.isin(ids, wanted)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, points, s (total) and self_s (minus children)."""
        ids, parents, durs, points = self._arrays()
        n = len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=durs[has_parent],
                            minlength=durs.size)
        self_durs = durs - child
        calls = np.bincount(ids, minlength=n)
        pts = np.bincount(ids, weights=points, minlength=n)
        total = np.bincount(ids, weights=durs, minlength=n)
        self_total = np.bincount(ids, weights=self_durs, minlength=n)
        return {
            name: {"calls": int(calls[i]), "points": int(pts[i]),
                   "s": float(total[i]), "self_s": float(self_total[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """All spans as one .npz: names, name_id, start, end, parent, points."""
        ids, parents, _, points = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, parent=parents,
            start=np.array(self.starts), end=np.array(self.ends),
            points=points)
