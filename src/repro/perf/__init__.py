"""Performance layer: instrumentation probes and profiling.

This package owns everything wall-clock flavoured.  The simulator itself
never reads a clock (the static checker's SC002 rule enforces that); it
exposes phase-boundary hook points instead, and the probes here attach to
them.  Two entry points:

- :class:`StepInstrumentation` -- a cheap per-phase wall-time accumulator
  that plugs into ``Simulator.instrument`` and surfaces its measurements
  through ``RunResult.counters``.
- :func:`profile_run` / :func:`hotspot_table` -- cProfile wrappers behind
  the ``repro route --profile`` flag.

End-to-end timing lives in the repository benchmark (``perfbench/``).
"""

from repro.perf.instrumentation import StepInstrumentation
from repro.perf.profiling import hotspot_table, profile_run

__all__ = ["StepInstrumentation", "hotspot_table", "profile_run"]
