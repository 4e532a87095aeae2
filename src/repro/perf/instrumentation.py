"""Per-phase wall-time probe for the simulator's step loop.

The simulator marks six phase boundaries per step -- hooks, (a) outqueue,
(b) interceptor, (c) inqueue, (d) transmit, (e) state update -- but only
when an instrumentation object is attached; detached, the loop pays a
single ``is not None`` check per boundary.  The probe accumulates the
interval since the previous boundary into the named phase's bucket, so
the phase times of one step always sum to that step's wall time.

Wall-clock measurements are inherently nondeterministic, which is why
they live here rather than on the simulator (SC002 forbids ``time`` in
``repro.mesh``) and why :meth:`StepInstrumentation.snapshot` keys are
disjoint from the deterministic scheduling counters.
"""

from __future__ import annotations

from time import perf_counter

#: Phase labels in simulator marking order (see ``Simulator.step``).
PHASES: tuple[str, ...] = ("hooks", "a", "b", "c", "d", "e")


class StepInstrumentation:
    """Accumulates per-phase and total wall time across steps.

    Attach with ``sim.instrument = StepInstrumentation()`` before running;
    read the totals from :meth:`snapshot` (or ``RunResult.counters``,
    which merges them).  The probe is reusable across steps but not
    thread-safe; use one instance per simulator.
    """

    __slots__ = ("steps", "wall_s", "phase_s", "_t0", "_last")

    def __init__(self) -> None:
        self.steps = 0
        self.wall_s = 0.0
        self.phase_s: dict[str, float] = {p: 0.0 for p in PHASES}
        self._t0 = 0.0
        self._last = 0.0

    def begin_step(self) -> None:
        """Called by the simulator at the top of every step."""
        self._t0 = self._last = perf_counter()

    def mark(self, phase: str) -> None:
        """Attribute the time since the previous boundary to ``phase``.

        ``phase`` may repeat within a step (``"hooks"`` marks both pre- and
        post-step hook blocks); repeats accumulate into the same bucket.
        """
        now = perf_counter()
        self.phase_s[phase] += now - self._last
        self._last = now

    def end_step(self) -> None:
        """Called by the simulator after the last phase of every step."""
        self.steps += 1
        self.wall_s += perf_counter() - self._t0

    def snapshot(self) -> dict[str, float]:
        """Wall-clock counters: total and per-phase seconds.

        Keys: ``wall_s``, ``hooks_s``, and ``phase_X_s``
        for X in a..e.  All values are nondeterministic (machine- and
        load-dependent); deterministic counters live on the simulator.
        """
        out: dict[str, float] = {"wall_s": self.wall_s}
        for phase, seconds in self.phase_s.items():
            key = "hooks_s" if phase == "hooks" else f"phase_{phase}_s"
            out[key] = seconds
        return out
