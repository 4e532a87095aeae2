"""Channel-dependency-graph deadlock analysis (Dally-Seitz, statically).

A *channel* is one blockable queue: ``(node, queue key)``.  The
channel-dependency graph (CDG) has an edge ``c1 -> c2`` whenever a packet
occupying ``c1`` may, under the router's symbolic
:class:`~repro.mesh.transitions.TransitionModel`, request space in ``c2``
on its next hop.  A deadlock configuration is a set of full queues each
waiting on the next, i.e. a cycle in this graph -- so:

- an **acyclic** CDG proves the router deadlock-free on that topology
  (``DEADLOCK_FREE``): no wait-for cycle can ever close;
- a **cyclic** CDG means deadlock cannot be excluded statically
  (``CYCLIC``): the verdict carries a minimal witness cycle, but whether
  traffic actually closes it depends on the workload (a cycle is necessary
  for deadlock, not sufficient);
- a router without a sound transition model is ``UNKNOWN``.

Queues whose inqueue policy provably always accepts (``TransitionModel.
blocking_keys`` excludes them) cannot be waited on and are left out of the
graph entirely -- this is how the Theorem 15 router's N/S queues and the
bufferless hot-potato router become statically deadlock-free.

The verdicts are cross-checked against the differential runner's deadlock
expectation table (:data:`repro.verify.differential.REGISTRY`): a router
the static pass proves deadlock-free must never be *expected* to stall in
the runtime layer, so the two layers cannot silently drift apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.mesh.directions import Direction, Port
from repro.mesh.ndtopology import TOPOLOGY_NAMES, build_topology
from repro.mesh.queues import CENTRAL, KIND_CENTRAL, KIND_INCOMING
from repro.mesh.topology import Topology
from repro.mesh.transitions import TransitionModel

#: Verdicts.
DEADLOCK_FREE = "DEADLOCK_FREE"
CYCLIC = "CYCLIC"
UNKNOWN = "UNKNOWN"

#: Workload families of the differential runner that run on each topology.
MESH_FAMILIES: Tuple[str, ...] = ("permutation", "hh", "dynamic")
TORUS_FAMILIES: Tuple[str, ...] = ("torus",)

#: Every registered analysis topology (one verdict column each).
TOPOLOGIES: Tuple[str, ...] = TOPOLOGY_NAMES

#: The differential workload families exercised on each topology, used by
#: the agreement gates to pair static verdicts with runtime expectations.
FAMILIES_BY_TOPOLOGY: Dict[str, Tuple[str, ...]] = {
    "mesh": MESH_FAMILIES,
    "torus": TORUS_FAMILIES,
    "mesh3d": ("mesh3d",),
    "torus3d": ("torus3d",),
    "pillar": ("pillar",),
}

Node = Tuple[int, ...]


def _key_name(key: object) -> str:
    """Stable label for a queue key: compass name, port name, or sentinel."""
    return key.name if isinstance(key, (Direction, Port)) else str(key)


@dataclass(frozen=True, order=True)
class Channel:
    """One blockable queue: the unit vertex of the dependency graph."""

    node: Node
    key: object  # Direction/Port (incoming regime) or the CENTRAL sentinel

    def __str__(self) -> str:
        return f"{self.node}/{_key_name(self.key)}"

    def to_dict(self) -> Dict[str, Any]:
        return {"node": list(self.node), "key": _key_name(self.key)}


Adjacency = Dict[Channel, Tuple[Channel, ...]]


def make_topology(name: str, n: int) -> Topology:
    """The named analysis topology at side length ``n``."""
    return build_topology(name, n)


def _central_outs(model: TransitionModel, topology: Topology, node: Node) -> Tuple[Direction, ...]:
    """Travel directions packets in a central queue may depart in.

    A central queue mixes every flow through the node: packets that arrived
    travelling any direction with an existing inlink, plus freshly injected
    ones.  The union of the model's outs over all those travel-ins.
    """
    outs: set[Direction] = set(model.outs_for(None))
    for t_in in topology.directions:
        if topology.neighbor(node, t_in.opposite) is not None:
            outs.update(model.outs_for(t_in))
    return tuple(d for d in topology.directions if d in outs)


def build_cdg(topology: Topology, model: TransitionModel) -> Adjacency:
    """The channel-dependency graph over the model's blockable queues.

    Conventions: a packet travelling ``t`` sits (incoming regime) under
    queue key ``t.opposite``; the default injection rule places injected
    packets in the queue of the inlink they would have arrived on, so every
    occupant of queue ``q`` behaves like a ``q.opposite``-travelling
    arrival.  Edges land only on blockable target queues -- a queue that
    always accepts can never be waited on, so it cannot extend a cycle.
    """
    adjacency: Adjacency = {}
    if model.never_blocks:
        return adjacency
    if model.queue_kind == KIND_CENTRAL:
        blockable = CENTRAL in model.blocking_keys
        for node in topology.nodes():
            if not blockable:
                break
            outs = _central_outs(model, topology, node)
            targets: List[Channel] = []
            for out in outs:
                neighbor = topology.neighbor(node, out)
                if neighbor is not None:
                    targets.append(Channel(neighbor, CENTRAL))
            adjacency[Channel(node, CENTRAL)] = tuple(sorted(targets))
        return adjacency
    if model.queue_kind != KIND_INCOMING:  # pragma: no cover - QueueSpec guards
        raise ValueError(f"unknown queue kind {model.queue_kind!r}")
    keys = tuple(d for d in topology.directions if d in model.blocking_keys)
    for node in topology.nodes():
        for key in keys:
            travel_in = key.opposite
            targets = []
            for out in model.outs_for(travel_in):
                neighbor = topology.neighbor(node, out)
                if neighbor is None:
                    continue
                target_key = out.opposite  # arrival queue at the neighbour
                if target_key in model.blocking_keys:
                    targets.append(Channel(neighbor, target_key))
            adjacency[Channel(node, key)] = tuple(sorted(targets))
    return adjacency


# -- cycle detection -----------------------------------------------------------


def tarjan_scc(adjacency: Mapping[Channel, Sequence[Channel]]) -> List[List[Channel]]:
    """Strongly connected components, iteratively (no recursion limit).

    Components come out in reverse topological order; membership order
    within a component follows discovery order, which is deterministic
    because vertices and edge lists are iterated in sorted order.
    """
    index: Dict[Channel, int] = {}
    lowlink: Dict[Channel, int] = {}
    on_stack: Dict[Channel, bool] = {}
    stack: List[Channel] = []
    components: List[List[Channel]] = []
    counter = 0

    for root in sorted(adjacency):
        if root in index:
            continue
        # Iterative Tarjan: (vertex, iterator position into its out-edges).
        work: List[Tuple[Channel, int]] = [(root, 0)]
        while work:
            vertex, edge_pos = work.pop()
            if edge_pos == 0:
                index[vertex] = lowlink[vertex] = counter
                counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            advanced = False
            out_edges = adjacency.get(vertex, ())
            for position in range(edge_pos, len(out_edges)):
                successor = out_edges[position]
                if successor not in adjacency:
                    continue  # edge into a vertex outside the graph
                if successor not in index:
                    work.append((vertex, position + 1))
                    work.append((successor, 0))
                    advanced = True
                    break
                if on_stack.get(successor, False):
                    lowlink[vertex] = min(lowlink[vertex], index[successor])
            if advanced:
                continue
            if lowlink[vertex] == index[vertex]:
                component: List[Channel] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[vertex])
    return components


def _cyclic_vertices(adjacency: Adjacency) -> List[Channel]:
    """Vertices lying on at least one cycle (nontrivial SCC or self-loop)."""
    out: List[Channel] = []
    for component in tarjan_scc(adjacency):
        if len(component) > 1:
            out.extend(component)
        elif component and component[0] in adjacency.get(component[0], ()):
            out.append(component[0])
    return out


def find_witness_cycle(adjacency: Adjacency) -> Tuple[Channel, ...]:
    """A minimal witness cycle, or () when the graph is acyclic.

    BFS from each cyclic vertex (in sorted order) back to itself; the
    shortest cycle found wins, ties broken by starting vertex order, so the
    witness is deterministic.  Self-loops are length-1 witnesses.
    """
    cyclic = set(_cyclic_vertices(adjacency))
    if not cyclic:
        return ()
    best: Tuple[Channel, ...] = ()
    for start in sorted(cyclic):
        if start in adjacency.get(start, ()):
            return (start,)
        if best and len(best) <= 2:
            break  # nothing shorter than 2 remains possible
        parent: Dict[Channel, Channel] = {}
        queue: deque[Channel] = deque([start])
        seen = {start}
        found = False
        while queue and not found:
            vertex = queue.popleft()
            for successor in adjacency.get(vertex, ()):
                if successor == start:
                    cycle = [vertex]
                    while cycle[-1] != start:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    if not best or len(cycle) < len(best):
                        best = tuple(cycle)
                    found = True
                    break
                if successor in cyclic and successor not in seen:
                    seen.add(successor)
                    parent[successor] = vertex
                    queue.append(successor)
    return best


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class CdgVerdict:
    """The static deadlock verdict for one (router, topology, n, k)."""

    router: str
    topology: str
    n: int
    k: int
    verdict: str
    witness: Tuple[Channel, ...] = ()
    channels: int = 0
    edges: int = 0
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "topology": self.topology,
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "witness": [c.to_dict() for c in self.witness],
            "channels": self.channels,
            "edges": self.edges,
            "note": self.note,
        }


def analyze_algorithm(
    algorithm: Any, router: str, topology_name: str, n: int, k: int
) -> CdgVerdict:
    """Verdict for one concrete algorithm instance on one topology."""
    topology = make_topology(topology_name, n)
    model = algorithm.enumerate_transitions(topology, k)
    if model is None:
        return CdgVerdict(
            router, topology_name, n, k, UNKNOWN, note="no static transition model"
        )
    adjacency = build_cdg(topology, model)
    edges = sum(len(targets) for targets in adjacency.values())
    witness = find_witness_cycle(adjacency)
    verdict = CYCLIC if witness else DEADLOCK_FREE
    return CdgVerdict(
        router,
        topology_name,
        n,
        k,
        verdict,
        witness=witness,
        channels=len(adjacency),
        edges=edges,
        note=model.note,
    )


def analyze_router(
    router: str, topology_name: str, n: int, k: int, *, seed: int = 0
) -> CdgVerdict:
    """Verdict for one *registered* router (the differential registry's
    factory builds it, so the analyzed configuration is exactly the one the
    runtime cross-check exercises)."""
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
    return analyze_algorithm(algorithm, router, topology_name, n, k)


def analyze_registry(
    *,
    ns: Iterable[int] = (4,),
    ks: Iterable[int] = (1, 2, 4),
    topologies: Iterable[str] = TOPOLOGIES,
    routers: Iterable[str] | None = None,
) -> List[CdgVerdict]:
    """Verdicts for every requested (router, topology, n, k) combination."""
    from repro.verify.differential import REGISTRY

    names = sorted(routers) if routers is not None else sorted(REGISTRY)
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown routers {unknown}; expected a subset of {sorted(REGISTRY)}"
        )
    verdicts: List[CdgVerdict] = []
    for router in names:
        entry = REGISTRY[router]
        for topology_name in topologies:
            if not entry.supports_topology(topology_name):
                continue  # e.g. a compass-only 2D router on a 3D grid
            for n in ns:
                for k in ks:
                    verdicts.append(analyze_router(router, topology_name, n, k))
    return verdicts


# -- agreement with the differential expectation table -------------------------


#: AgreementFinding severities.
SEVERITY_ERROR = "error"
SEVERITY_ADVISORY = "advisory"


@dataclass(frozen=True)
class AgreementFinding:
    """One CDG/differential disagreement, with a severity.

    ``error`` findings mean one of the layers is provably wrong and fail
    the analyze gate; ``advisory`` findings report a disagreement that is
    logically permitted (a cycle is necessary for deadlock, not
    sufficient) but worth surfacing rather than silently ignoring.
    """

    severity: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.message}"


def check_agreement_detailed(
    verdicts: Sequence[CdgVerdict] | None = None,
    *,
    n: int = 4,
    ks: Iterable[int] = (1, 2, 4),
) -> List[AgreementFinding]:
    """Cross-check CDG verdicts against the runtime deadlock expectations,
    in both directions.

    Errors (one of the layers is provably wrong):

    - ``DEADLOCK_FREE`` is a *proof*, so a statically deadlock-free router
      must be expected to complete every workload family on that topology
      -- an expected stall there fails the gate.
    - Conversely, every family the differential table marks as
      deadlock/livelock-prone must sit on a ``CYCLIC`` (or ``UNKNOWN``)
      topology: the static pass must exhibit the cycle that makes the
      observed stall possible.
    - A verdict that flips across (n, k) for the same (router, topology).

    Advisories (permitted, but no longer silently ignored): a ``CYCLIC``
    verdict for a router the registry expects to complete every family.  A
    dependency cycle is necessary for deadlock, not sufficient -- most
    adaptive routers drain their cycles on every workload we fuzz -- but
    the cell is one workload away from a wedge, so the disagreement is
    reported instead of dropped.
    """
    from repro.verify.differential import REGISTRY

    if verdicts is None:
        verdicts = analyze_registry(ns=(n,), ks=ks)
    by_cell: Dict[Tuple[str, str], set[str]] = {}
    for verdict in verdicts:
        by_cell.setdefault((verdict.router, verdict.topology), set()).add(
            verdict.verdict
        )
    findings: List[AgreementFinding] = []
    for (router, topology_name), kinds in sorted(by_cell.items()):
        if len(kinds) > 1:
            findings.append(
                AgreementFinding(
                    SEVERITY_ERROR,
                    f"{router}/{topology_name}: verdict unstable across "
                    f"(n, k): {sorted(kinds)}",
                )
            )
            continue
        verdict_kind = next(iter(kinds))
        entry = REGISTRY.get(router)
        if entry is None:
            findings.append(
                AgreementFinding(
                    SEVERITY_ERROR, f"{router}: not in the differential registry"
                )
            )
            continue
        families = FAMILIES_BY_TOPOLOGY[topology_name]
        expected_stalls = [f for f in families if not entry.expects_completion(f)]
        if verdict_kind == DEADLOCK_FREE and expected_stalls:
            findings.append(
                AgreementFinding(
                    SEVERITY_ERROR,
                    f"{router}/{topology_name}: statically DEADLOCK_FREE but "
                    f"the differential table expects stalls on "
                    f"{expected_stalls} -- one of the layers is wrong",
                )
            )
        elif verdict_kind == CYCLIC and not expected_stalls:
            findings.append(
                AgreementFinding(
                    SEVERITY_ADVISORY,
                    f"{router}/{topology_name}: statically CYCLIC but the "
                    f"differential table expects completion of "
                    f"{list(families)} -- the cycle has not been observed "
                    "to close (necessary, not sufficient)",
                )
            )
    return findings


def check_agreement(
    verdicts: Sequence[CdgVerdict] | None = None,
    *,
    n: int = 4,
    ks: Iterable[int] = (1, 2, 4),
) -> List[str]:
    """The hard-error subset of :func:`check_agreement_detailed`.

    Returns human-readable disagreement strings (empty = layers agree in
    every direction that is sound).  Advisory findings -- ``CYCLIC`` with
    all-complete expectations -- are reported separately by the detailed
    variant and do not fail this gate.
    """
    return [
        finding.message
        for finding in check_agreement_detailed(verdicts, n=n, ks=ks)
        if finding.severity == SEVERITY_ERROR
    ]
