"""Span recording for the traced benchmark run, and the simulator registry.

The traced run times calls into each ``repro`` layer's public entry
points.  Calls the benchmark makes itself are wrapped in
:meth:`Tracer.span`; calls the library makes internally (a step, an
oracle's ``post_step``, a fault-mask query) are reached by wrapping the
public method or function at run time with :func:`patched`, which restores
the original on exit.  Nothing under ``src/`` changes.

Every span records a name, start, end and parent.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover, so the self times of one traced
repetition partition its traced wall time without double counting.

Entry points called once per node per step (arrival draws, admission
offers) would make millions of records; they are declared *hot*: their
durations still count toward the totals and their parents' child time,
but no per-call record is kept.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

_MISSING = object()


class Tracer:
    """In-memory span recorder with per-name total and self time."""

    def __init__(self, hot: tuple[str, ...] = ()) -> None:
        self.hot = frozenset(hot)
        #: Stored spans: (name, start, end, parent index or -1).
        self.spans: list[tuple[str, float, float, int]] = []
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # Open spans: [name, start, child seconds, nearest stored ancestor].
        self._stack: list[list[Any]] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if name not in self.hot:
            # Reserve the record now so children can point at it.
            self.spans.append((name, 0.0, 0.0, parent))
            parent = len(self.spans) - 1
        self._stack.append([name, perf_counter(), 0.0, parent])

    def _close(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        if name not in self.hot:
            self.spans[index] = (name, start, end, self.spans[index][3])
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span named ``name``."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def durations(self, name: str) -> list[float]:
        """Durations of every stored span named ``name``, in call order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        """Write the stored spans and per-name totals as one JSON file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "totals": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@contextmanager
def patched(replacements: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore all on exit.

    An attribute a class inherits (not in its own ``__dict__``) is
    deleted again on exit, so the inherited one shows through.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            own = vars(owner).get(attr, _MISSING)
            saved.append((owner, attr, own))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def method(owner: type, attr: str, tracer: Tracer, name: str) -> tuple[Any, str, Any]:
    """Replacement triple tracing ``owner.attr`` (plain or inherited method)."""
    return (owner, attr, tracer.wrap(getattr(owner, attr), name))


def prop(owner: type, attr: str, tracer: Tracer, name: str) -> tuple[Any, str, Any]:
    """Replacement triple tracing the getter of property ``owner.attr``."""
    original = vars(owner)[attr]
    return (owner, attr, property(tracer.wrap(original.fget, name)))


class SimRegistry:
    """Records every simulator a workload run constructs.

    Some workloads build their simulators inside library calls
    (``run_faulty``, ``run_streaming``, the lower-bound construction and
    its replay); the registry wraps both engines' ``__init__`` so their
    deterministic counters can be read back afterwards.  With
    ``probe_factory`` set, every new simulator also gets a fresh
    ``StepInstrumentation`` attached through ``sim.instrument``.
    """

    def __init__(self, probe_factory: Callable[[], Any] | None = None) -> None:
        self.sims: list[Any] = []
        self.probe_factory = probe_factory

    def _wrap_init(self, init: Callable[..., None]) -> Callable[..., None]:
        registry = self

        def recording_init(sim: Any, *args: Any, **kwargs: Any) -> None:
            init(sim, *args, **kwargs)
            registry.sims.append(sim)
            if registry.probe_factory is not None:
                sim.instrument = registry.probe_factory()

        return recording_init

    @contextmanager
    def active(self) -> Iterator["SimRegistry"]:
        from repro.mesh.array_engine import ArraySimulator
        from repro.mesh.simulator import Simulator

        with patched(
            [(cls, "__init__", self._wrap_init(vars(cls)["__init__"]))
             for cls in (Simulator, ArraySimulator)]
        ):
            yield self
