"""Paced seconds: host time divided by how slowly the host runs right now.

On a small shared host the same code runs 20-40% slower for stretches of
seconds to minutes while other tenants are busy, and process CPU time
slows with it (the slowdown is contention, not time spent descheduled).
A timing taken over one 20-second run therefore moves by 10-20% between
runs of the same code, more than a regression bound can absorb.

So the end-to-end timings are taken in *paced seconds*.  While a run is
timed, a probe runs every :data:`INTERVAL_S` of host time (between two
simulator steps, or between two set-ups).  The probe times four fixed
reference kernels -- pure-Python arithmetic, Python objects in a dict,
numpy sorting and indexing on 64K-element arrays, and random gathers from
a 16 MiB array -- and the host's *slowness* is the mean of their times
over their nominal times.  Each kernel runs twice and only the second run
is timed, so what the probe sees is the host, not the caches the code
under test just left behind.  The first three are the kinds of work the
workloads do; the gathers feel contention for the shared cache and memory,
which slows perm-n256's large arrays more than it slows small kernels.  Each stretch of host time between two probes
counts as its length divided by the mean slowness of the probes at its two
ends, and the probes' own time counts nowhere.

The kernels live here and never change with the code under test, so a
change under ``src/`` moves paced seconds as it would move host seconds on
a steady host; a slow host moves the kernels and the workload together and
the ratio stays put.  :data:`NOMINAL_S` fixes the unit: one paced second is
one host second when the kernels run at their median speed on the
reference host (README.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from tracing import patched

#: Host seconds between probes while a run is timed.
INTERVAL_S = 0.0625

_RNG = np.random.default_rng(20_240_611)
_KEYS = _RNG.integers(0, 1 << 16, size=1 << 16)
_INDEX = np.arange(1 << 16)
_BIG = _RNG.integers(0, 1 << 30, size=1 << 21)
_GATHER = _RNG.integers(0, 1 << 21, size=1 << 17)


def _arithmetic() -> int:
    acc = 0
    for i in range(30_000):
        acc += i & 7
    return acc


class _Item:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _objects() -> list[tuple[int, int]]:
    buckets: dict[tuple[int, int], list[_Item]] = {}
    for item in [_Item(i, 7 * i) for i in range(1500)]:
        buckets.setdefault((item.x & 63, item.y & 31), []).append(item)
    return sorted(buckets, key=itemgetter(1))


def _arrays() -> int:
    order = np.argsort(_KEYS[: 1 << 14], kind="stable")
    np.bincount(_KEYS & 4095, minlength=4096)
    moved = _INDEX[order]
    np.nonzero(_KEYS & 1)
    return int(np.cumsum(_KEYS)[-1] + moved[0])


def _gathers() -> int:
    return int(_BIG[_GATHER].sum() + _BIG[_GATHER[::-1]].sum())


KERNELS: tuple[Callable[[], Any], ...] = (_arithmetic, _objects, _arrays, _gathers)
#: Median seconds of each kernel on the reference host (README.md).
NOMINAL_S = (1.5e-3, 0.85e-3, 2.2e-3, 1.4e-3)


def slowness() -> float:
    """Mean over the kernels of their host time now over their nominal time."""
    total = 0.0
    for kernel, nominal in zip(KERNELS, NOMINAL_S):
        kernel()  # warms the caches for the timed run
        t0 = perf_counter()
        kernel()
        total += (perf_counter() - t0) / nominal
    return total / len(KERNELS)


class Pacer:
    """Probes the host's slowness during timed work; converts intervals.

    ``stretches`` holds ``(start, end, slowness)`` for every stretch of
    host time between two probes.  Call :meth:`probe` right before an
    interval starts and right after it ends; :meth:`poll` (between steps or
    set-ups) probes when :data:`INTERVAL_S` has passed since the last one.
    """

    def __init__(self) -> None:
        self.stretches: list[tuple[float, float, float]] = []
        slowness()  # warm-up: first numpy calls
        self._slowness = slowness()
        self._since = perf_counter()

    def probe(self) -> None:
        end = perf_counter()
        now = slowness()
        self.stretches.append((self._since, end, (self._slowness + now) / 2))
        self._slowness = now
        self._since = perf_counter()

    def poll(self) -> None:
        if perf_counter() - self._since >= INTERVAL_S:
            self.probe()

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """Paced and host seconds of ``[start, end]``, probe time left out.

        Only stretches already closed by a probe count, so probe right
        after ``end`` first.
        """
        paced = host = 0.0
        for lo, hi, slow in reversed(self.stretches):
            if hi <= start:
                break
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                paced += overlap / slow
                host += overlap
        return paced, host

    def median_slowness(self) -> float:
        ordered = sorted(s for _, _, s in self.stretches)
        return ordered[len(ordered) // 2] if ordered else self._slowness

    @contextmanager
    def polling(self) -> Iterator["Pacer"]:
        """Poll after every step of either engine while the block runs."""
        from repro.mesh.array_engine import ArraySimulator
        from repro.mesh.simulator import Simulator

        def polled(step: Callable[..., Any]) -> Callable[..., Any]:
            pacer = self

            def step_then_poll(sim: Any, *args: Any, **kwargs: Any) -> Any:
                moves = step(sim, *args, **kwargs)
                pacer.poll()
                return moves

            return step_then_poll

        with patched(
            [(cls, "step", polled(vars(cls)["step"])) for cls in (Simulator, ArraySimulator)]
        ):
            yield self
