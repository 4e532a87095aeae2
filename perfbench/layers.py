"""Per-layer instrumentation of the traced run.

:func:`replacements` lists the public entry points the traced run wraps,
one span name per layer boundary; :func:`metrics` turns one traced run's
spans, step probes and counters into the per-layer metrics.  Every ``_s``
metric is the *self* time of its spans, so nested layers (materialization
inside an oracle, the adversary inside a reference step) are not counted
twice.

Layer -> metric -> the end-to-end metric it should move, on which workload:

- ``repro.workloads`` (``random_permutation``): ``workloads.generate_s``
  -> ``setup_s``, ``run_s`` on perm-n256.
- ``repro.mesh.array_engine`` construction: ``array.construct_s`` ->
  ``setup_s``, ``run_s`` on perm-n256.
- array engine step (``StepInstrumentation`` phases a-e and hooks, step
  percentiles) -> ``moves_per_s``; a large share on perm-n256, a small one
  on faults-n96 and stream-n32 (phase a includes admission injection
  there).
- array engine counters: ``array.scheduled_moves``, ``array.accept_ratio``.
- array engine ``queues`` materialization: ``array.materialize_s`` ->
  ``moves_per_s``, ``run_s`` on faults-n96 and stream-n32; zero on
  perm-n256.
- ``repro.verify.oracles`` (each oracle's ``post_step``):
  ``verify.*_s``, ``verify.violations`` -> ``moves_per_s``, ``run_s`` on
  faults-n96 and stream-n32; zero on perm-n256.
- ``repro.faults.plan`` (``link_up_array``, ``node_up_array``):
  ``faults.mask_s``, ``faults.down_frac`` -> ``moves_per_s`` on faults-n96.
- ``repro.streaming`` (``ArrivalProcess.arrivals``, ``offer_packet``):
  ``streaming.*`` -> ``run_s`` on stream-n32.
- ``repro.mesh.simulator`` reference step: ``reference.*`` -> ``run_s``,
  ``moves_per_s`` on lowerbound-n168.
- ``repro.core`` (construction ``run``, ``AdaptiveAdversary.__call__``,
  ``replay_constructed_permutation``): ``core.*`` -> ``run_s`` on
  lowerbound-n168.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.analysis.stats import percentile
from repro.core.adversary import AdaptiveAdversary
from repro.faults.plan import BernoulliLinkPlan
from repro.mesh.array_engine import ArraySimulator
from repro.mesh.simulator import Simulator
from repro.streaming import run as streaming_run
from repro.streaming.arrivals import ArrivalProcess
from repro.verify.oracles import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
)
from tracing import Tracer, method, prop

#: Entry points called once per node per step: timed, but no per-call
#: span record is kept (there are about a million per stream-n32 run).
HOT = ("streaming.arrivals", "streaming.admit")

#: Step-time percentile reported beside the median: the highest with at
#: least ten steps beyond it on every workload (faults-n96 runs the fewest,
#: 200 to 208 over seeds 0-9).
STEP_PERCENTILE = 95


class MaskStats:
    """Link-mask query counts: links queried and links masked out.

    Only ``link_up_array`` is counted: ``node_up_array`` is all-True under
    ``BernoulliLinkPlan``, and counting it would dilute the down share.
    """

    def __init__(self) -> None:
        self.queried = 0
        self.down = 0

    def counting(self, fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
        stats = self

        def counted(*args: Any, **kwargs: Any) -> np.ndarray:
            up = fn(*args, **kwargs)
            stats.queried += len(up)
            stats.down += len(up) - int(np.count_nonzero(up))
            return up

        return counted


def replacements(tracer: Tracer, mask: MaskStats) -> list[tuple[Any, str, Any]]:
    """The (owner, attribute, traced replacement) triples of a traced run."""
    return [
        method(ArraySimulator, "step", tracer, "array.step"),
        prop(ArraySimulator, "queues", tracer, "array.materialize"),
        method(Simulator, "step", tracer, "reference.step"),
        method(PacketConservationOracle, "post_step", tracer, "verify.conservation"),
        method(QueueBoundOracle, "post_step", tracer, "verify.queue_bound"),
        method(MinimalityOracle, "post_step", tracer, "verify.minimality"),
        (
            BernoulliLinkPlan,
            "link_up_array",
            tracer.wrap(mask.counting(BernoulliLinkPlan.link_up_array), "faults.mask"),
        ),
        method(BernoulliLinkPlan, "node_up_array", tracer, "faults.mask"),
        method(ArrivalProcess, "arrivals", tracer, "streaming.arrivals"),
        (
            streaming_run,
            "offer_packet",
            tracer.wrap(streaming_run.offer_packet, "streaming.admit"),
        ),
        method(AdaptiveAdversary, "__call__", tracer, "core.adversary"),
    ]


def _step_ms(tracer: Tracer, name: str, q: float) -> float:
    durations = sorted(d * 1000.0 for d in tracer.durations(name))
    got = percentile(durations, q, presorted=True)
    return 0.0 if got is None else got


def metrics(
    tracer: Tracer, sims: list[Any], outcome: Any, mask: MaskStats
) -> dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    own = tracer.self_s.get
    array_sims = [s for s in sims if s.engine_name == "array"]
    phase = {
        p: sum(s.instrument.phase_s[p] for s in array_sims if s.instrument)
        for p in ("hooks", "a", "b", "c", "d", "e")
    }
    scheduled = sum(s.scheduled_moves for s in array_sims)
    accepted = sum(s.total_moves for s in array_sims)
    counters = outcome.counters
    offered = counters.get("offered", 0)
    return {
        "workloads.generate_s": own("workloads.generate", 0.0),
        "array.construct_s": own("array.construct", 0.0),
        **{f"array.phase_{p}_s": phase[p] for p in "abcde"},
        "array.hooks_s": phase["hooks"],
        "array.step_p50_ms": _step_ms(tracer, "array.step", 50),
        "array.step_p95_ms": _step_ms(tracer, "array.step", STEP_PERCENTILE),
        "array.scheduled_moves": scheduled,
        "array.accept_ratio": accepted / scheduled if scheduled else 0.0,
        "array.materialize_s": own("array.materialize", 0.0),
        "verify.conservation_s": own("verify.conservation", 0.0),
        "verify.queue_bound_s": own("verify.queue_bound", 0.0),
        "verify.minimality_s": own("verify.minimality", 0.0),
        "verify.violations": sum(
            v for k, v in counters.items() if k.startswith("violations.")
        ),
        "faults.mask_s": own("faults.mask", 0.0),
        "faults.down_frac": mask.down / mask.queried if mask.queried else 0.0,
        "streaming.arrivals_s": own("streaming.arrivals", 0.0),
        "streaming.admit_s": own("streaming.admit", 0.0),
        "streaming.offered": offered,
        "streaming.rejected_frac": counters.get("rejected", 0) / offered if offered else 0.0,
        "reference.step_s": own("reference.step", 0.0),
        "reference.step_p50_ms": _step_ms(tracer, "reference.step", 50),
        "reference.step_p95_ms": _step_ms(tracer, "reference.step", STEP_PERCENTILE),
        "core.construct_s": own("core.construct", 0.0),
        "core.adversary_s": own("core.adversary", 0.0),
        "core.replay_s": own("core.replay", 0.0),
        "core.exchanges": counters.get("exchange_count", 0),
    }
