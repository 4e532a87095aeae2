"""Declarative experiment specs and their content-addressed cache keys.

A :class:`TrialSpec` is one deterministic experiment: a trial kind plus
every parameter that influences its outcome.  A :class:`CampaignSpec` is an
ordered list of trials, written either explicitly or as a grid sweep that
is expanded at load time.  Both are plain dataclasses with a canonical JSON
form, so a trial's identity can be hashed: the cache key is the SHA-256 of
the canonical spec plus the current code-version tag, which means editing
the routing code invalidates every cached result automatically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
from dataclasses import dataclass, field, fields
from typing import Any, Iterable

TRIAL_KINDS = (
    "route",
    "lower_bound",
    "section6",
    "sort_route",
    "verify",
    "analyze",
    "bounds",
    "faults",
    "streaming",
)

#: Arrival-process names a ``streaming`` trial may use (mirrors
#: ``repro.streaming.arrivals.PROCESS_NAMES``; duplicated literally so the
#: spec layer stays import-light -- a test asserts the two agree).
STREAMING_ARRIVALS = ("poisson", "onoff", "hotspot")

ROUTE_ALGORITHMS = (
    "dor",
    "bounded-dor",
    "farthest-first",
    "greedy-adaptive",
    "alternating-adaptive",
    "hot-potato",
    "randomized-adaptive",
    "bounded-excursion",
    "credit-adaptive",
)

#: Named analysis topologies a ``route`` trial may select
#: (mirrors ``repro.mesh.ndtopology.TOPOLOGY_NAMES``; duplicated literally
#: so the spec layer stays import-light -- a test asserts the two agree).
TOPOLOGY_CHOICES = ("mesh", "torus", "mesh3d", "torus3d", "pillar")

#: Topologies beyond the classic 2D pair.  The historical routers hard-code
#: the four compass directions, so only dimension-generic algorithms are
#: valid here (mirrors ``RouterEntry.topologies`` in the differential
#: registry; a test asserts the two agree).
ND_TOPOLOGIES = ("mesh3d", "torus3d", "pillar")
ND_ALGORITHMS = ("credit-adaptive",)

#: Algorithms a ``faults`` trial may exercise: every route algorithm plus
#: the resilience-layer routers (see repro.faults).
FAULT_ALGORITHMS = ROUTE_ALGORITHMS + ("conservative-bounded-dor", "fault-reroute")

CONSTRUCTIONS = ("adaptive", "dor", "ff", "torus", "hh")

#: Victim algorithm used by each construction when the spec leaves
#: ``algorithm`` empty.
DEFAULT_VICTIMS = {
    "adaptive": "greedy-adaptive",
    "torus": "greedy-adaptive",
    "dor": "bounded-dor",
    "ff": "farthest-first",
    "hh": "greedy-adaptive",
}

WORKLOADS = ("random", "partial", "transpose", "bit-reversal", "rotation")

#: Workload families a ``verify`` trial may fuzz (see repro.verify).
VERIFY_FAMILIES = (
    "permutation",
    "hh",
    "torus",
    "dynamic",
    "mesh3d",
    "torus3d",
    "pillar",
)

#: Step engines a simulator-driving trial may request (see
#: ``Simulator(engine=...)``).
ENGINES = ("reference", "array")

#: Trial kinds whose simulator honours ``engine``; every other kind runs
#: its own machinery and rejects ``engine="array"``.
ENGINE_KINDS = ("route", "faults", "streaming")

#: Registry names of the routers the array backend has kernels for, in
#: registry order.  Extending the backend means appending here *and*
#: registering the kernel in ``repro.mesh.array_engine``; a test asserts
#: the two agree.
ARRAY_PORTED = (
    "dor",
    "bounded-dor",
    "hot-potato",
    "greedy-adaptive",
    "farthest-first",
    "credit-adaptive",
)

#: Engines an ``analyze`` trial may run (see repro.analysis.static_check).
ANALYZE_ENGINES = ("cdg", "bounds", "lint", "all")


@dataclass(frozen=True)
class TrialSpec:
    """One deterministic experiment, fully described by its parameters.

    Every field except ``label`` participates in the cache key, so two
    trials with equal canonical forms are interchangeable.  ``label`` is a
    cosmetic annotation carried through to tables and manifests.
    """

    kind: str
    n: int
    k: int = 1
    algorithm: str = ""
    construction: str = ""
    workload: str = "random"
    seed: int = 0
    queues: str = "central"
    delta: int = 1
    h: int = 2
    torus: bool = False
    #: ``route`` trials only: a named analysis topology
    #: (TOPOLOGY_CHOICES).  Empty keeps the historical behaviour where
    #: ``torus`` alone picks between the two 2D topologies; setting both
    #: ``topology`` and ``torus`` is rejected as contradictory.
    topology: str = ""
    improved: bool = False
    availability: float = 1.0
    max_steps: int = 1_000_000
    run_to_completion: bool = True
    #: ``faults`` trials only: steps a source waits before re-injecting an
    #: undelivered packet (0 disables the resilience layer).
    retransmit_timeout: int = 0
    #: ``faults`` trials only: retransmission budget per original packet.
    max_retransmits: int = 3
    #: ``faults`` trials only: mean steps up / down per node-outage renewal
    #: cycle (both 0 disables node outages; see repro.faults.plan).
    mttf: int = 0
    mttr: int = 0
    #: ``streaming`` trials only: nominal injection rate in packets per node
    #: per step offered by the arrival process.
    rate: float = 0.1
    #: ``streaming`` trials only: arrival-process name (STREAMING_ARRIVALS).
    arrival: str = "poisson"
    #: ``streaming`` trials only: warmup / measured / drain window lengths
    #: in steps (see repro.streaming.run).
    warmup: int = 64
    measure: int = 256
    drain: int = 512
    #: Step engine: "reference" (the per-packet-object simulator) or
    #: "array" (the vectorized backend, for ARRAY_PORTED routers on 2D
    #: topologies).  Honoured by ``route``, ``faults`` and ``streaming``
    #: trials (ENGINE_KINDS).
    engine: str = "reference"
    label: str = ""

    def validate(self) -> None:
        if self.kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}; expected one of {TRIAL_KINDS}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.kind == "route" and self.algorithm not in ROUTE_ALGORITHMS:
            raise ValueError(
                f"unknown route algorithm {self.algorithm!r}; "
                f"expected one of {ROUTE_ALGORITHMS}"
            )
        if self.topology:
            if self.topology not in TOPOLOGY_CHOICES:
                raise ValueError(
                    f"unknown topology {self.topology!r}; "
                    f"expected one of {TOPOLOGY_CHOICES}"
                )
            if self.kind != "route":
                raise ValueError(
                    f"the topology field applies to route trials only, "
                    f"got kind {self.kind!r}"
                )
            if self.torus:
                raise ValueError(
                    "set either 'topology' or 'torus', not both "
                    "(torus=True is shorthand for topology='torus')"
                )
            if self.topology in ND_TOPOLOGIES and self.algorithm not in ND_ALGORITHMS:
                raise ValueError(
                    f"algorithm {self.algorithm!r} is 2D-only; topologies in "
                    f"{ND_TOPOLOGIES} need one of {ND_ALGORITHMS}"
                )
        if self.kind == "lower_bound":
            if self.construction not in CONSTRUCTIONS:
                raise ValueError(
                    f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}"
                )
            victim = self.algorithm or DEFAULT_VICTIMS[self.construction]
            allowed = _victim_choices(self.construction)
            if victim not in allowed:
                raise ValueError(
                    f"construction {self.construction!r} cannot attack {victim!r}; "
                    f"expected one of {allowed}"
                )
        if (
            self.kind in ("route", "section6", "sort_route")
            and self.workload not in WORKLOADS
        ):
            raise ValueError(f"unknown workload {self.workload!r}; expected one of {WORKLOADS}")
        if self.kind == "verify":
            if self.workload not in VERIFY_FAMILIES:
                raise ValueError(
                    f"verify trials fuzz a workload family, one of {VERIFY_FAMILIES}; "
                    f"got {self.workload!r}"
                )
            if self.algorithm and self.algorithm not in ROUTE_ALGORITHMS:
                raise ValueError(
                    f"unknown verify router {self.algorithm!r}; "
                    f"expected one of {ROUTE_ALGORITHMS} (or empty for all)"
                )
        if self.kind == "analyze":
            if self.workload not in ANALYZE_ENGINES:
                raise ValueError(
                    f"analyze trials name an engine in ``workload``, one of "
                    f"{ANALYZE_ENGINES}; got {self.workload!r}"
                )
            if self.algorithm and self.algorithm not in ROUTE_ALGORITHMS:
                raise ValueError(
                    f"unknown analyze router {self.algorithm!r}; "
                    f"expected one of {ROUTE_ALGORITHMS} (or empty for all)"
                )
        if self.kind == "bounds":
            if self.algorithm and self.algorithm not in ROUTE_ALGORITHMS:
                raise ValueError(
                    f"unknown bounds router {self.algorithm!r}; "
                    f"expected one of {ROUTE_ALGORITHMS} (or empty for all)"
                )
        if self.kind == "faults":
            if self.algorithm not in FAULT_ALGORITHMS:
                raise ValueError(
                    f"unknown faults algorithm {self.algorithm!r}; "
                    f"expected one of {FAULT_ALGORITHMS}"
                )
            if self.workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
                )
            if self.algorithm == "fault-reroute" and self.torus:
                raise ValueError(
                    "fault-reroute requires a mesh: the excursion rectangle "
                    "is undefined on a wrapping topology"
                )
        if self.kind == "streaming":
            if self.algorithm not in ROUTE_ALGORITHMS:
                raise ValueError(
                    f"unknown streaming algorithm {self.algorithm!r}; "
                    f"expected one of {ROUTE_ALGORITHMS}"
                )
            if self.arrival not in STREAMING_ARRIVALS:
                raise ValueError(
                    f"unknown arrival process {self.arrival!r}; "
                    f"expected one of {STREAMING_ARRIVALS}"
                )
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.measure < 1:
            raise ValueError(f"measure must be >= 1, got {self.measure}")
        if self.drain < 0:
            raise ValueError(f"drain must be >= 0, got {self.drain}")
        if self.retransmit_timeout < 0:
            raise ValueError(
                f"retransmit_timeout must be >= 0, got {self.retransmit_timeout}"
            )
        if self.max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )
        if self.mttf < 0 or self.mttr < 0:
            raise ValueError(
                f"mttf and mttr must be >= 0, got {self.mttf}, {self.mttr}"
            )
        if (self.mttf > 0) != (self.mttr > 0):
            raise ValueError(
                "mttf and mttr must be set together (a renewal outage "
                f"process needs both), got mttf={self.mttf}, mttr={self.mttr}"
            )
        if self.queues not in ("central", "incoming"):
            raise ValueError(f"queues must be 'central' or 'incoming', got {self.queues!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.engine == "array":
            self._validate_array_engine()
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"availability must be in (0, 1], got {self.availability}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def _validate_array_engine(self) -> None:
        """Reject, at spec time, every trial the array engine cannot run."""
        if self.kind not in ENGINE_KINDS:
            raise ValueError(
                f"{self.kind} trials ignore the engine field; engine='array' "
                f"applies to {ENGINE_KINDS} trials only"
            )
        if self.algorithm not in ARRAY_PORTED:
            raise ValueError(
                f"algorithm {self.algorithm!r} is not ported to the array "
                f"engine; engine='array' supports {ARRAY_PORTED}"
            )
        if self.topology in ND_TOPOLOGIES:
            raise ValueError(
                f"the array engine runs 2D mesh/torus only, got topology "
                f"{self.topology!r}"
            )
        if self.kind == "faults" and self.retransmit_timeout > 0:
            raise ValueError(
                "retransmission (retransmit_timeout > 0) needs the reference "
                "engine; node outages without it run on engine='array'"
            )

    def canonical(self) -> dict[str, Any]:
        """The identity-defining dict: every field except ``label``."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "label"
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> dict[str, Any]:
        data = self.canonical()
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TrialSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TrialSpec fields: {sorted(unknown)}")
        spec = cls(**data)
        spec.validate()
        return spec


def _victim_choices(construction: str) -> tuple[str, ...]:
    if construction in ("adaptive", "torus", "hh"):
        return ("greedy-adaptive", "alternating-adaptive")
    if construction == "dor":
        return ("bounded-dor",)
    return ("farthest-first",)


def code_version() -> str:
    """A short tag identifying the current source tree.

    The tag is the SHA-256 over every ``repro`` source file, so any code
    edit changes every cache key and stale results are never reused.  Set
    ``REPRO_CODE_VERSION`` to pin the tag explicitly (used in tests and for
    cross-machine reproducibility checks).
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_dir = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:12]
    return _CODE_VERSION


_CODE_VERSION: str | None = None


def trial_key(spec: TrialSpec, version: str | None = None) -> str:
    """Content-addressed cache key: SHA-256(canonical spec + code version)."""
    payload = spec.canonical_json() + "\n" + (version or code_version())
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CampaignSpec:
    """An ordered list of trials plus campaign-level settings.

    JSON form (see ``docs/HARNESS.md``)::

        {
          "name": "e1_lower_bound_adaptive",
          "description": "...",
          "timeout_s": 600,
          "trials": [ {...trial...}, ... ],
          "sweep": [ {"kind": "route", "n": [8, 16], "seeds": 3}, ... ]
        }

    ``trials`` entries are literal :class:`TrialSpec` dicts.  ``sweep``
    entries are grids: any field may be a list, and the cartesian product is
    expanded in the order the fields appear; ``"seeds": m`` is shorthand for
    ``"seed": [0, ..., m-1]``.  Explicit trials come first, then each grid's
    expansion, preserving order -- trial order defines result-row order.
    """

    name: str
    trials: list[TrialSpec]
    description: str = ""
    timeout_s: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not all(c.isalnum() or c in "-_." for c in self.name):
            raise ValueError(
                f"campaign name must be a nonempty filesystem-safe slug, got {self.name!r}"
            )
        if not self.trials:
            raise ValueError(f"campaign {self.name!r} has no trials")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        known = {"name", "description", "timeout_s", "trials", "sweep", "metadata"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CampaignSpec fields: {sorted(unknown)}")
        trials = [TrialSpec.from_dict(entry) for entry in data.get("trials", [])]
        for grid in data.get("sweep", []):
            trials.extend(expand_grid(grid))
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            timeout_s=data.get("timeout_s"),
            metadata=data.get("metadata", {}),
            trials=trials,
        )

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "CampaignSpec":
        path = pathlib.Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed campaign spec {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"campaign spec {path} must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.description:
            data["description"] = self.description
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        if self.metadata:
            data["metadata"] = self.metadata
        data["trials"] = [t.to_dict() for t in self.trials]
        return data

    def keys(self, version: str | None = None) -> list[str]:
        version = version or code_version()
        return [trial_key(t, version) for t in self.trials]


def expand_grid(grid: dict[str, Any]) -> list[TrialSpec]:
    """Expand one sweep grid into trials, cartesian-product in field order."""
    grid = dict(grid)
    if "seeds" in grid:
        if "seed" in grid:
            raise ValueError("a sweep grid cannot set both 'seed' and 'seeds'")
        grid["seed"] = list(range(int(grid.pop("seeds"))))
    names = list(grid)
    axes: list[Iterable[Any]] = [
        value if isinstance(value, list) else [value] for value in grid.values()
    ]
    return [
        TrialSpec.from_dict(dict(zip(names, combo))) for combo in itertools.product(*axes)
    ]
