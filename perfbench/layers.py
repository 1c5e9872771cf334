"""Outside-in layer spans for the traced run.

The traced run replaces the layer entry points the pipeline calls
through (module attributes and class methods) with timing wrappers,
from the benchmark's own files only; the program is unchanged and the
untraced run never installs them.  Each wrapper records a span (layer,
entry point, start, end, parent span) and charges its duration minus
the time of the spans nested inside it to its layer, so per-layer
*self* times add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """In-memory spans and per-layer self times of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``."""
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [len(self.spans), 0.0]
            self.spans.append((layer, name, 0.0, 0.0, -1))
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[frame[0]] = (layer, name, start, end, parent)
                self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._stack:
                    self._stack[-1][1] += duration

        self._patches.append((owner, attr, vars(owner).get(attr, original)))
        setattr(owner, attr, traced)

    def count(self, owner, attr: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, vars(owner).get(attr, original)))
        setattr(owner, attr, counted)

    def calls_of(self, owner, attr: str) -> int:
        return self.calls.get(f"{getattr(owner, '__name__', owner)}.{attr}", 0)

    def layer_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (layer, entry, start, end, parent)."""
        with open(path, "w") as fh:
            for index, (layer, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "layer": layer,
                    "entry": name, "start": start, "end": end,
                }) + "\n")
