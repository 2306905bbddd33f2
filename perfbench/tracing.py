"""Layer spans recorded from the benchmark's own code.

A :class:`Tracer` times calls into the program's public functions.  The
benchmark opens top-level spans around the calls it makes itself; calls
the program makes internally (a model's ``batch_loss`` inside ``fit``,
``save_dataset`` inside ``OnlineLoop.ingest``) are timed by wrapping
those public functions for the duration of a traced path and restoring
them afterwards.  Spans nest: a layer's self time is its duration minus
the time its child spans cover, so self times over all layers add up to
the traced wall time less the benchmark's own glue (the unattributed
remainder).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List


def _own(owner, name: str):
    """Whether ``owner`` itself (not a base or class) holds ``name``."""
    own = getattr(owner, "__dict__", {})
    return name in own, own.get(name)


class Tracer:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[List[float]] = []   # [child time] per open span
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, layer: str):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            self._stack.pop()
            self.calls[layer].append(duration)
            self.self_s[layer] += duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration

    def add(self, layer: str, duration: float) -> None:
        """A span measured elsewhere (a child process's wall time)."""
        self.calls[layer].append(duration)
        self.self_s[layer] += duration
        if self._stack:
            self._stack[-1][0] += duration

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        with self.span(layer):
            return fn(*args, **kwargs)

    # -- wrapping the program's functions ------------------------------
    def replace(self, owner, name: str, value) -> None:
        """Set ``owner.name`` to ``value`` until unpatch restores it."""
        had_own, original = _own(owner, name)
        setattr(owner, name, value)
        self._patches.append((owner, name, original, had_own))

    def wrap(self, owner, name: str, layer) -> None:
        """Time every call of ``owner.name`` as ``layer`` until unpatch.

        ``layer`` is a name, or a callable that names the layer at call
        time (per-backend layers).
        """
        target = getattr(owner, name)
        tracer = self
        name_of = layer if callable(layer) else (lambda: layer)

        @functools.wraps(target)
        def timed(*args, **kwargs):
            with tracer.span(name_of()):
                return target(*args, **kwargs)

        self.replace(owner, name, timed)

    def wrap_generator(self, owner, name: str, layer: str) -> None:
        """Time the full drain of the generator ``owner.name`` returns.

        Each ``next`` is timed; the per-drain total is one call sample,
        and the time lands in ``layer`` as self time of whatever span
        is open around the consumer.
        """
        target = getattr(owner, name)
        tracer = self

        @functools.wraps(target)
        def timed(*args, **kwargs):
            inner = target(*args, **kwargs)
            total = 0.0
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.add(layer, total + time.perf_counter() - t0)
                    return
                total += time.perf_counter() - t0
                yield item

        self.replace(owner, name, timed)

    def unpatch(self) -> None:
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if not had_own:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @contextlib.contextmanager
    def patched(self):
        try:
            yield self
        finally:
            self.unpatch()

    # -- moving between processes --------------------------------------
    def to_json(self) -> Dict[str, dict]:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}

    @classmethod
    def from_json(cls, data: Dict[str, dict]) -> "Tracer":
        tracer = cls()
        tracer.calls.update(data["calls"])
        tracer.self_s.update(data["self_s"])
        return tracer

    # -- reading -------------------------------------------------------
    def total(self, layer: str) -> float:
        return float(sum(self.calls.get(layer, ())))

    def count(self, layer: str) -> int:
        return len(self.calls.get(layer, ()))

    def attributed_s(self) -> float:
        return float(sum(self.self_s.values()))

    def ledger(self) -> List[tuple]:
        """(layer, self seconds, calls) rows, largest first."""
        return sorted(((layer, s, self.count(layer))
                       for layer, s in self.self_s.items()),
                      key=lambda row: -row[1])
