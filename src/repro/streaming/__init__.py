"""Open-loop streaming injection: arrival processes and saturation sweeps.

The closed-loop harness answers "how fast does this instance finish?";
this package answers "what offered load can this router sustain?".  See
docs/STREAMING.md for the experiment protocol.
"""

from repro.streaming.arrivals import (
    ArrivalProcess,
    DestinationModel,
    HotspotDestinations,
    MAX_ARRIVALS_PER_STEP,
    OnOffArrivals,
    PROCESS_NAMES,
    PoissonArrivals,
    UniformDestinations,
    build_process,
    poisson_count,
    poisson_counts,
)
from repro.streaming.run import StreamingReport, offer_packet, run_streaming
from repro.streaming.sweep import (
    DEFAULT_RATES,
    SweepPoint,
    SweepResult,
    format_sweep_markdown,
    sweep_saturation,
)

__all__ = [
    "ArrivalProcess",
    "DestinationModel",
    "HotspotDestinations",
    "MAX_ARRIVALS_PER_STEP",
    "OnOffArrivals",
    "PROCESS_NAMES",
    "PoissonArrivals",
    "UniformDestinations",
    "build_process",
    "poisson_count",
    "poisson_counts",
    "StreamingReport",
    "offer_packet",
    "run_streaming",
    "DEFAULT_RATES",
    "SweepPoint",
    "SweepResult",
    "format_sweep_markdown",
    "sweep_saturation",
]
