"""Fault injection and resilience (the paper's "dynamic setting").

Three layers (see ``docs/FAULTS.md``):

- :mod:`repro.faults.plan` -- deterministic fault plans.  Link and node
  up/down state is a pure counter-based hash of ``(seed, entity, time)``,
  so runs are bit-reproducible across query order, worker counts, and
  step engines.
- :mod:`repro.faults.resilience` -- end-to-end recovery: the
  conservative accept-if-space router and the retransmission manager.
- :mod:`repro.faults.reroute` -- the delta-bounded fault-aware routing
  adapter (Section 5's nonminimal excursion class put to work).
- :mod:`repro.faults.run` -- orchestration: attach a plan, record-mode
  oracles, and optional resilience to one simulator and report
  degradation metrics.
"""

from repro.faults.plan import (
    BernoulliLinkPlan,
    CompositeFaultPlan,
    FaultPlan,
    Outage,
    RenewalOutagePlan,
    ScheduledOutagePlan,
    counter_draw,
    counter_draw_array,
    link_draw,
)
from repro.faults.reroute import FaultAwareRerouteRouter
from repro.faults.resilience import (
    ConservativeBoundedDimensionOrderRouter,
    ResilienceManager,
)
from repro.faults.run import FaultyRunReport, percentile, run_faulty

__all__ = [
    "BernoulliLinkPlan",
    "CompositeFaultPlan",
    "ConservativeBoundedDimensionOrderRouter",
    "FaultAwareRerouteRouter",
    "FaultPlan",
    "FaultyRunReport",
    "Outage",
    "RenewalOutagePlan",
    "ResilienceManager",
    "ScheduledOutagePlan",
    "counter_draw",
    "counter_draw_array",
    "link_draw",
    "percentile",
    "run_faulty",
]
