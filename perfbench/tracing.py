"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from this package only: :class:`Tracer.patch` swaps a
method on a class (or a function on a module) of the program for a
wrapper that records ``(name, start, end, parent)`` around each call, and
:meth:`Tracer.restore` puts the original back.  The program's source is
never edited.  Self time is a span's duration minus the part its child
spans cover; since the run is single-threaded, children never overlap,
so that part is the sum of the children's durations.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["Tracer", "self_times"]


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Duration of each span minus the summed duration of its children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.start)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, stack = self.names, self._stack

        def traced(*args, **kwargs):
            # a call re-entering the same scope (an override calling its
            # super(), or recursion) belongs to the span already open
            if stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str) -> None:
        """Trace every call of ``owner.attr`` (a class or a module)."""
        original = owner.__dict__[attr] if attr in vars(owner) else None
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        table, code = np.unique(np.asarray(self.names), return_inverse=True)
        return {
            "name_table": table,
            "name": code.astype(np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

        Root spans (no parent) are reported under their own names too;
        their self time is the part of the traced wall time no layer
        span covers.
        """
        if not self.names:
            return {}
        arr = self.arrays()
        own = self_times(arr["start"], arr["end"], arr["parent"])
        dur = arr["end"] - arr["start"]
        out: Dict[str, Dict[str, float]] = {}
        for code, name in enumerate(arr["name_table"]):
            mask = arr["name"] == code
            out[str(name)] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out
