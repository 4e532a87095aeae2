"""Static queue-bound certification by abstract interpretation.

The paper's headline invariant -- every queue holds at most ``k`` packets
(Theorem 15) -- is checked dynamically by the runtime
:class:`~repro.verify.oracles.QueueBoundOracle`, one trace at a time.  This
module certifies it *statically*, for every execution at once, by abstract
interpretation over the symbolic :class:`~repro.mesh.transitions.
TransitionModel` a router exposes through ``enumerate_transitions``.

Each queue (a :class:`~repro.analysis.static_check.cdg.Channel`) gets an
abstract occupancy bound in the lattice ``{0, ..., capacity, TOP}``,
computed as a fixed point of a per-channel transfer function:

- a **blockable** queue refuses offers once full, so its occupancy is
  policy-enforced at ``capacity``;
- an always-accepting queue needs a *drain guarantee* from the model
  (``drain_keys`` / ``drain_all_keys``) to be bounded: ``DRAIN_ONE``
  (Theorem 15's N/S invariant: a nonempty queue ejects one packet per
  step) bounds the queue at ``capacity`` when at most one packet can
  arrive per step, and ``DRAIN_ALL`` (bufferless deflection) bounds it
  when per-step arrivals fit in ``capacity``;
- an always-accepting queue with transit arrivals from a nonempty feeder
  and no validated drain guarantee has no static bound: TOP.

Drain guarantees are *claims*; the certifier re-validates them
structurally (every onward target of a draining queue must itself always
accept, else the drain could be refused) and ignores unsound claims.

Verdicts are per (router, topology, n, k) cell, under a declared
injection semantics:

- ``BOUNDED(b)`` -- every queue's fixed-point bound is at most ``b`` and
  (open-loop semantics) no wait-for cycle can stall the network: the bound
  holds on every execution.
- ``UNBOUNDED`` -- some queue has no static bound (reason
  ``queue-overflow``), or -- under **open-loop** injection, where sources
  keep producing -- the blockable-queue dependency graph has a cycle, so a
  wedged configuration forces unbounded *source backlog* even though every
  in-network queue stays at ``capacity`` (reason ``wedged-backlog``; this
  is exactly the PR 6 streaming finding for the central-queue routers).
  The verdict carries a concrete witness chain of transitions.
- ``UNKNOWN`` -- the router exposes no sound transition model.

Closed-loop semantics (a fixed packet batch, no sources) drops the
wedged-backlog rule: a deadlock freezes occupancy at ``capacity`` rather
than growing anything.

Every verdict is cross-checked in both directions against the runtime
``QueueBoundOracle`` over the differential registry's cells by
:func:`check_bounds_agreement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.mesh.directions import Direction, Port
from repro.mesh.queues import CENTRAL, KIND_CENTRAL, KIND_INCOMING
from repro.mesh.topology import Topology
from repro.mesh.transitions import DRAIN_ALL, DRAIN_ONE, TransitionModel

from repro.analysis.static_check.cdg import (
    FAMILIES_BY_TOPOLOGY,
    TOPOLOGIES,
    UNKNOWN,
    Channel,
    _central_outs,
    _key_name,
    build_cdg,
    find_witness_cycle,
    make_topology,
)

#: Verdicts (UNKNOWN is shared with the CDG engine).
BOUNDED = "BOUNDED"
UNBOUNDED = "UNBOUNDED"

#: Injection semantics a verdict is issued under.
OPEN_LOOP = "open"
CLOSED_LOOP = "closed"

#: Failure reasons carried by UNBOUNDED verdicts.
REASON_OVERFLOW = "queue-overflow"
REASON_WEDGE = "wedged-backlog"


def _key_label(key: object) -> str:
    return _key_name(key)


@dataclass(frozen=True)
class TransitionStep:
    """One concrete queue-to-queue transition of a witness chain."""

    source: Channel
    travel_in: Optional[Direction]
    travel_out: Direction
    target: Channel

    def __str__(self) -> str:
        t_in = self.travel_in.name if self.travel_in is not None else "inject"
        return f"{self.source} --[{t_in}->{self.travel_out.name}]--> {self.target}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source.to_dict(),
            "travel_in": self.travel_in.name if self.travel_in is not None else None,
            "travel_out": self.travel_out.name,
            "target": self.target.to_dict(),
        }


@dataclass(frozen=True)
class BoundsVerdict:
    """The static queue-bound verdict for one (router, topology, n, k)."""

    router: str
    topology: str
    n: int
    k: int
    verdict: str
    semantics: str = OPEN_LOOP
    bound: Optional[int] = None
    reason: str = ""
    witness: Tuple[TransitionStep, ...] = ()
    channels: int = 0
    key_bounds: Tuple[Tuple[str, Optional[int]], ...] = ()
    note: str = ""

    def describe(self) -> str:
        """Human-readable verdict: ``BOUNDED(b=4)`` or ``UNBOUNDED[reason]``."""
        if self.verdict == BOUNDED:
            return f"{BOUNDED}(b={self.bound})"
        if self.verdict == UNBOUNDED:
            return f"{UNBOUNDED}[{self.reason}]"
        return self.verdict

    def to_dict(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "topology": self.topology,
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "semantics": self.semantics,
            "bound": self.bound,
            "reason": self.reason,
            "witness": [step.to_dict() for step in self.witness],
            "channels": self.channels,
            "key_bounds": dict(self.key_bounds),
            "note": self.note,
        }


# -- the abstract domain -------------------------------------------------------


def _all_channels(topology: Topology, model: TransitionModel) -> List[Channel]:
    """Every queue of the regime, blockable or not, in sorted order."""
    channels: List[Channel] = []
    if model.queue_kind == KIND_CENTRAL:
        for node in topology.nodes():
            channels.append(Channel(node, CENTRAL))
    elif model.queue_kind == KIND_INCOMING:
        for node in topology.nodes():
            for key in topology.directions:
                channels.append(Channel(node, key))
    else:  # pragma: no cover - QueueSpec guards the kind already
        raise ValueError(f"unknown queue kind {model.queue_kind!r}")
    return sorted(channels)


def _feeders(
    topology: Topology, model: TransitionModel, channel: Channel
) -> Tuple[TransitionStep, ...]:
    """The transit transitions that can deposit a packet into ``channel``.

    Injection is excluded deliberately: both engines admission-gate it
    (``offer_packet`` and the array engine's ``_inject_pending`` refuse at
    capacity, and batch loading validates occupancy), so only link
    traversals can grow a queue past its admitted load.
    """
    steps: List[TransitionStep] = []
    if model.queue_kind == KIND_CENTRAL:
        for travel in topology.directions:
            upstream = topology.neighbor(channel.node, travel.opposite)
            if upstream is None:
                continue
            for t_in in (None, *topology.directions):
                if (t_in, travel) not in model.turns:
                    continue
                if t_in is not None and topology.neighbor(
                    upstream, t_in.opposite
                ) is None:
                    continue
                steps.append(
                    TransitionStep(
                        Channel(upstream, CENTRAL), t_in, travel, channel
                    )
                )
                break  # one representative transition per inlink
        return tuple(steps)
    key = channel.key
    if not isinstance(key, (Direction, Port)):  # pragma: no cover - regime invariant
        raise ValueError(f"incoming-regime channel with key {key!r}")
    upstream = topology.neighbor(channel.node, key)
    if upstream is None:
        return ()
    travel = key.opposite  # the only travel direction that lands in this queue
    seen: set[Channel] = set()
    for t_in in (None, *topology.directions):
        if (t_in, travel) not in model.turns:
            continue
        if t_in is None:
            # Injected at the upstream node: the default injection rule
            # stores a packet about to travel ``travel`` under key
            # ``travel.opposite`` there.
            source = Channel(upstream, travel.opposite)
        else:
            if topology.neighbor(upstream, t_in.opposite) is None:
                continue
            source = Channel(upstream, t_in.opposite)
        if source in seen:
            continue
        seen.add(source)
        steps.append(TransitionStep(source, t_in, travel, channel))
    return tuple(sorted(steps, key=lambda s: s.source))


def validate_drain_claims(
    model: TransitionModel,
) -> Tuple[Dict[object, str], List[str]]:
    """Structurally validate the model's drain guarantees.

    A drain is only guaranteed when the departing packet cannot be refused
    downstream: every onward target queue of a draining queue's occupants
    must itself always accept (delivery at the destination always
    succeeds, so it needs no check).  Unsound claims are dropped and
    reported, never trusted.
    """
    validated: Dict[object, str] = {}
    notes: List[str] = []
    for key in sorted(
        model.drain_keys | model.drain_all_keys, key=_key_label
    ):
        guarantee = model.drain_for(key)
        if guarantee is None:  # pragma: no cover - keys come from the sets
            continue
        if model.queue_kind == KIND_CENTRAL:
            # Occupants of a central queue target central queues; the claim
            # is sound iff those never refuse.
            sound = CENTRAL not in model.blocking_keys
        elif isinstance(key, (Direction, Port)):
            travel_in = key.opposite
            targets = {
                out.opposite for out in model.outs_for(travel_in)
            }
            sound = not (targets & model.blocking_keys)
        else:
            sound = False
        if sound:
            validated[key] = guarantee
        else:
            notes.append(
                f"drain claim on {_key_label(key)} is unsound (a target "
                "queue may refuse); ignored"
            )
    return validated, notes


def compute_channel_bounds(
    topology: Topology, model: TransitionModel, capacity: int
) -> Dict[Channel, Optional[int]]:
    """Fixed-point occupancy bound per queue (None = no static bound).

    Starts every queue at ``capacity`` (batch loading validates occupancy
    and injection is admission-gated, so that is the tightest sound
    initial abstraction) and iterates the transfer function until stable.
    """
    validated, _ = validate_drain_claims(model)
    channels = _all_channels(topology, model)
    bounds: Dict[Channel, Optional[int]] = {c: capacity for c in channels}
    feeders = {c: _feeders(topology, model, c) for c in channels}

    def transfer(channel: Channel) -> Optional[int]:
        if channel.key in model.blocking_keys:
            return capacity  # refusal-enforced, independent of feeders
        live = [
            step for step in feeders[channel] if bounds.get(step.source, capacity) != 0
        ]
        if model.queue_kind == KIND_CENTRAL:
            arrivals = len({step.travel_out for step in live})
        else:
            arrivals = 1 if live else 0
        guarantee = validated.get(channel.key)
        if guarantee == DRAIN_ALL:
            return capacity if arrivals <= capacity else None
        if guarantee == DRAIN_ONE:
            return capacity if arrivals <= 1 else None
        return capacity if arrivals == 0 else None

    for _ in range(len(channels) + 1):
        changed = False
        for channel in channels:
            new = transfer(channel)
            if new != bounds[channel]:
                bounds[channel] = new
                changed = True
        if not changed:
            return bounds
    raise RuntimeError(  # pragma: no cover - the lattice has height 2
        "channel-bound fixed point failed to converge"
    )


def _overflow_witness(
    topology: Topology,
    model: TransitionModel,
    channel: Channel,
    max_length: int = 4,
) -> Tuple[TransitionStep, ...]:
    """A transit chain ending at the unbounded ``channel``.

    Walks feeders backwards (deterministically: first feeder in sorted
    order) until the chain closes on itself or reaches ``max_length``;
    each step is a transition that can add a packet the queue never
    sheds.
    """
    chain: List[TransitionStep] = []
    visited = {channel}
    current = channel
    while len(chain) < max_length:
        feeders = _feeders(topology, model, current)
        if not feeders:
            break
        step = feeders[0]
        chain.append(step)
        if step.source in visited:
            break
        visited.add(step.source)
        current = step.source
    chain.reverse()
    return tuple(chain)


def _annotate_cycle(
    topology: Topology, model: TransitionModel, cycle: Sequence[Channel]
) -> Tuple[TransitionStep, ...]:
    """Turn a CDG witness cycle into concrete transitions (with turns)."""
    steps: List[TransitionStep] = []
    for position, source in enumerate(cycle):
        target = cycle[(position + 1) % len(cycle)]
        if model.queue_kind == KIND_INCOMING and isinstance(
            source.key, (Direction, Port)
        ):
            travel_in: Optional[Direction] = source.key.opposite
            outs = [
                out
                for out in model.outs_for(travel_in)
                if topology.neighbor(source.node, out) == target.node
                and out.opposite == target.key
            ]
            if not outs:  # pragma: no cover - the CDG edge guarantees one
                raise RuntimeError(f"no turn realizes CDG edge {source}->{target}")
            steps.append(TransitionStep(source, travel_in, outs[0], target))
            continue
        realized = False
        for out in _central_outs(model, topology, source.node):
            if topology.neighbor(source.node, out) != target.node:
                continue
            for t_in in (None, *topology.directions):
                if (t_in, out) not in model.turns:
                    continue
                if t_in is not None and topology.neighbor(
                    source.node, t_in.opposite
                ) is None:
                    continue
                steps.append(TransitionStep(source, t_in, out, target))
                realized = True
                break
            if realized:
                break
        if not realized:  # pragma: no cover - the CDG edge guarantees one
            raise RuntimeError(f"no turn realizes CDG edge {source}->{target}")
    return tuple(steps)


# -- verdicts ------------------------------------------------------------------


def certify_model(
    model: TransitionModel,
    topology: Topology,
    capacity: int,
    *,
    router: str,
    topology_name: str,
    n: int,
    k: int,
    semantics: str = OPEN_LOOP,
) -> BoundsVerdict:
    """The queue-bound verdict for one explicit transition model."""
    if semantics not in (OPEN_LOOP, CLOSED_LOOP):
        raise ValueError(
            f"unknown semantics {semantics!r}; expected "
            f"{OPEN_LOOP!r} or {CLOSED_LOOP!r}"
        )
    _, claim_notes = validate_drain_claims(model)
    bounds = compute_channel_bounds(topology, model, capacity)
    note = "; ".join([model.note, *claim_notes]) if claim_notes else model.note

    key_worst: Dict[str, Optional[int]] = {}
    for channel, bound in bounds.items():
        label = _key_label(channel.key)
        previous = key_worst.get(label, 0)
        if previous is None or bound is None:
            key_worst[label] = None
        else:
            key_worst[label] = max(previous, bound)
    key_bounds = tuple(sorted(key_worst.items()))

    unbounded = sorted(c for c, bound in bounds.items() if bound is None)
    if unbounded:
        return BoundsVerdict(
            router,
            topology_name,
            n,
            k,
            UNBOUNDED,
            semantics=semantics,
            reason=REASON_OVERFLOW,
            witness=_overflow_witness(topology, model, unbounded[0]),
            channels=len(bounds),
            key_bounds=key_bounds,
            note=note,
        )
    if semantics == OPEN_LOOP:
        cycle = find_witness_cycle(build_cdg(topology, model))
        if cycle:
            return BoundsVerdict(
                router,
                topology_name,
                n,
                k,
                UNBOUNDED,
                semantics=semantics,
                reason=REASON_WEDGE,
                witness=_annotate_cycle(topology, model, cycle),
                channels=len(bounds),
                key_bounds=key_bounds,
                note=note,
            )
    worst = max(bound for bound in bounds.values() if bound is not None)
    return BoundsVerdict(
        router,
        topology_name,
        n,
        k,
        BOUNDED,
        semantics=semantics,
        bound=worst,
        channels=len(bounds),
        key_bounds=key_bounds,
        note=note,
    )


def certify_algorithm(
    algorithm: Any,
    router: str,
    topology_name: str,
    n: int,
    k: int,
    *,
    semantics: str = OPEN_LOOP,
) -> BoundsVerdict:
    """Verdict for one concrete algorithm instance on one topology."""
    topology = make_topology(topology_name, n)
    model = algorithm.enumerate_transitions(topology, k)
    if model is None:
        return BoundsVerdict(
            router,
            topology_name,
            n,
            k,
            UNKNOWN,
            semantics=semantics,
            note="no static transition model",
        )
    capacity = int(algorithm.queue_spec.capacity)
    return certify_model(
        model,
        topology,
        capacity,
        router=router,
        topology_name=topology_name,
        n=n,
        k=k,
        semantics=semantics,
    )


def certify_router(
    router: str,
    topology_name: str,
    n: int,
    k: int,
    *,
    seed: int = 0,
    semantics: str = OPEN_LOOP,
) -> BoundsVerdict:
    """Verdict for one *registered* router, built by the differential
    registry's factory so the certified configuration is exactly the one
    the runtime cross-check exercises."""
    from repro.verify.differential import REGISTRY

    entry = REGISTRY.get(router)
    if entry is None:
        raise ValueError(
            f"unknown router {router!r}; expected one of {sorted(REGISTRY)}"
        )
    if topology_name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology_name!r}; expected one of {TOPOLOGIES}"
        )
    if not entry.supports_topology(topology_name):
        raise ValueError(
            f"router {router!r} is not registered on topology "
            f"{topology_name!r}; supported: {entry.topologies}"
        )
    algorithm = entry.factory(k, seed)
    return certify_algorithm(
        algorithm, router, topology_name, n, k, semantics=semantics
    )


def certify_registry(
    *,
    ns: Iterable[int] = (4,),
    ks: Iterable[int] = (1, 2, 4),
    topologies: Iterable[str] = TOPOLOGIES,
    routers: Iterable[str] | None = None,
    semantics: str = OPEN_LOOP,
) -> List[BoundsVerdict]:
    """Verdicts for every requested (router, topology, n, k) combination."""
    from repro.verify.differential import REGISTRY

    names = sorted(routers) if routers is not None else sorted(REGISTRY)
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown routers {unknown}; expected a subset of {sorted(REGISTRY)}"
        )
    verdicts: List[BoundsVerdict] = []
    for router in names:
        entry = REGISTRY[router]
        for topology_name in topologies:
            if not entry.supports_topology(topology_name):
                continue  # e.g. a compass-only 2D router on a 3D grid
            for n in ns:
                for k in ks:
                    verdicts.append(
                        certify_router(
                            router, topology_name, n, k, semantics=semantics
                        )
                    )
    return verdicts


# -- agreement with the runtime QueueBoundOracle -------------------------------


def check_bounds_agreement(
    verdicts: Sequence[BoundsVerdict] | None = None,
    *,
    n: int = 4,
    ks: Iterable[int] = (1, 2, 4),
) -> List[str]:
    """Cross-check static verdicts against the runtime ``QueueBoundOracle``.

    Both directions are checked over the differential registry's cells:

    - ``BOUNDED(b)`` is a proof, so every oracle-checked run of that
      (router, topology) must finish with zero queue-bound violations and
      an observed ``max_queue_len`` of at most ``b``; and the differential
      table must not expect a stall there (a wedged run is unbounded
      source backlog under open-loop semantics).
    - Conversely, every runtime queue-bound violation and every expected
      stall must sit on an ``UNBOUNDED`` (or ``UNKNOWN``) cell: the static
      pass must predict what the runtime can exhibit.  (``UNBOUNDED`` is
      necessary, not sufficient -- an UNBOUNDED cell whose runs stay clean
      is *not* a finding.)

    Returns human-readable disagreement strings (empty = layers agree).
    """
    from repro.verify.differential import (
        REGISTRY,
        build_instance,
        checked_run,
        step_budget,
    )

    ks = tuple(ks)
    if verdicts is None:
        verdicts = certify_registry(ns=(n,), ks=ks)

    by_cell: Dict[Tuple[str, str], List[BoundsVerdict]] = {}
    for verdict in verdicts:
        by_cell.setdefault((verdict.router, verdict.topology), []).append(verdict)

    findings: List[str] = []
    for (router, topology_name), group in sorted(by_cell.items()):
        kinds = {v.verdict for v in group}
        if len(kinds) > 1:
            findings.append(
                f"{router}/{topology_name}: bounds verdict unstable across "
                f"(n, k): {sorted(kinds)}"
            )
            continue
        kind = next(iter(kinds))
        entry = REGISTRY.get(router)
        if entry is None:
            findings.append(f"{router}: not in the differential registry")
            continue
        families = FAMILIES_BY_TOPOLOGY[topology_name]
        expected_stalls = [f for f in families if not entry.expects_completion(f)]
        if kind == BOUNDED and expected_stalls:
            findings.append(
                f"{router}/{topology_name}: statically BOUNDED but the "
                f"differential table expects stalls on {expected_stalls} -- "
                "a wedge is unbounded source backlog, so one layer is wrong"
            )
        if kind == UNKNOWN:
            continue  # nothing certified, nothing to contradict
        bound_by_k = {v.k: v.bound for v in group}
        for family in families:
            for k in sorted(set(ks)):
                topology, packets = build_instance(family, n, seed=0)
                expected = entry.expects_completion(family)
                cap = None if expected else min(step_budget(n, k), 50 * n)
                outcome = checked_run(
                    entry,
                    topology,
                    packets,
                    k=k,
                    seed=0,
                    mode="record",
                    max_steps=cap,
                )
                queue_violations = [
                    v for v in outcome.violations if v.oracle == "queue-bound"
                ]
                cell = f"{router}/{topology_name}/{family} n={n} k={k}"
                if kind == BOUNDED:
                    bound = bound_by_k.get(k)
                    if queue_violations:
                        findings.append(
                            f"{cell}: statically BOUNDED(b={bound}) but the "
                            f"runtime QueueBoundOracle fired: "
                            f"{queue_violations[0]}"
                        )
                    if bound is not None and outcome.max_queue_len > bound:
                        findings.append(
                            f"{cell}: observed max_queue_len="
                            f"{outcome.max_queue_len} exceeds the certified "
                            f"bound {bound}"
                        )
                    if expected and not outcome.completed:
                        findings.append(
                            f"{cell}: statically BOUNDED (no wedge possible) "
                            f"but the run stalled after {outcome.steps} steps"
                        )
    return findings
