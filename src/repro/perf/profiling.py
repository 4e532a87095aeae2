"""cProfile helpers behind ``repro route --profile``.

Deterministic simulations profile cleanly: the same (spec, seed) produces
the same call tree, so two hot-spot tables differ only in timing columns.
The table is the artifact we paste into docs/PERFORMANCE.md when recording
a before/after comparison for an optimization.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def profile_run(fn: Callable[[], T]) -> tuple[T, cProfile.Profile]:
    """Run ``fn`` under cProfile; return its result and the profile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, profiler


def hotspot_table(
    profiler: cProfile.Profile,
    *,
    limit: int = 20,
    sort: str = "tottime",
) -> str:
    """The top-``limit`` functions of a profile as a pstats text table.

    ``sort`` is any pstats sort key (``tottime``, ``cumtime``, ``ncalls``,
    ...).  The caller prints the string; nothing is written to stdout here.
    """
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    return buffer.getvalue()


def format_phase_summary(counters: dict[str, Any]) -> str:
    """One line per phase from instrumented counters, widest first.

    Accepts a ``RunResult.counters`` dict that includes the wall-clock
    keys of :class:`repro.perf.StepInstrumentation`; returns "" when the
    run was not instrumented.
    """
    wall = counters.get("wall_s")
    if not wall:
        return ""
    names = {
        "phase_a_s": "(a) outqueue",
        "phase_b_s": "(b) interceptor",
        "phase_c_s": "(c) inqueue",
        "phase_d_s": "(d) transmit",
        "phase_e_s": "(e) state update",
        "hooks_s": "hooks",
    }
    rows = [
        (names[key], counters[key])
        for key in names
        if counters.get(key, 0.0) > 0.0
    ]
    rows.sort(key=lambda r: -r[1])
    lines = [
        f"  {label:<18} {seconds:8.3f}s  {100.0 * seconds / wall:5.1f}%"
        for label, seconds in rows
    ]
    lines.insert(
        0,
        f"wall {wall:.3f}s, {counters['accepted_moves'] / wall:,.0f} moves/s",
    )
    return "\n".join(lines)
