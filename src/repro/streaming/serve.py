"""Live injection service: drive one simulator over a TCP socket.

``python -m repro serve`` keeps a single :class:`Simulator` alive and
lets clients inject traffic, advance time, and read metrics over
newline-delimited JSON (one request object per line, one response object
per line, UTF-8).  The wire format is documented in docs/STREAMING.md;
in short:

- ``{"cmd": "inject", "source": [x, y], "dest": [x, y], "count": 1}``
  offers packets through the same admission gate as the batch driver
  (:func:`~repro.streaming.run.offer_packet`, one call per request): full
  source queues refuse packets and the response reports ``admitted`` /
  ``rejected`` counts -- backpressure is part of the protocol, not an
  error.
- ``{"cmd": "step", "steps": 8}`` advances simulated time; clients own
  the clock, so every session is exactly replayable from its request log.
- ``{"cmd": "drain", "max_steps": 1024}`` steps until every packet is
  resolved or the budget runs out.
- ``{"cmd": "snapshot"}`` returns the live metrics row (delivery counts,
  latency percentiles, rejection counts, oracle violation counts).
- ``{"cmd": "shutdown"}`` stops the server after acknowledging.

The service is deliberately single-simulator and sequential: requests
are applied in arrival order on one event loop, so concurrent clients
interleave at request granularity and the metrics snapshot is always
taken at a step boundary.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable

import numpy as np

from repro.analysis.stats import latency_percentiles, violation_counts
from repro.mesh.interfaces import RoutingAlgorithm
from repro.mesh.simulator import Simulator
from repro.mesh.topology import Topology
from repro.streaming.run import STALL_STEPS, offer_packet
from repro.verify.oracles import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    attach_checker,
)

#: Per-request clamps: the service is a measurement tool, not a job
#: runner, so one request may not burn unbounded CPU.
MAX_STEPS_PER_REQUEST = 10_000
MAX_INJECT_PER_REQUEST = 10_000


class ServiceError(ValueError):
    """A malformed or out-of-range request (reported, never fatal)."""


def _parse_node(value: Any, label: str, topology: Topology) -> tuple[int, int]:
    """Decode a ``[x, y]`` JSON pair into an in-topology node."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise ServiceError(f"{label} must be a [x, y] pair of integers")
    node = (value[0], value[1])
    if not topology.contains(node):
        raise ServiceError(f"{label} {node} outside the {topology.width}x{topology.height} mesh")
    return node


def _parse_count(value: Any, label: str, default: int, limit: int) -> int:
    """Decode an optional positive integer field with an upper clamp."""
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ServiceError(f"{label} must be a positive integer")
    if value > limit:
        raise ServiceError(f"{label} must be <= {limit}")
    return value


class StreamingService:
    """The sequential request handler behind ``python -m repro serve``.

    Owns one simulator with record-mode oracles attached and applies one
    request at a time -- a plain synchronous state machine, so it is
    testable without any networking and trivially deterministic.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        *,
        oracle_mode: str = "record",
    ) -> None:
        self.topology = topology
        self.sim = Simulator(topology, algorithm, [], validate=False)
        self.checker = attach_checker(
            self.sim,
            [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()],
            mode=oracle_mode,
        )
        self.injected_at: dict[int, int] = {}
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self._next_pid = 0

    def handle(self, request: Any) -> dict[str, Any]:
        """Apply one decoded request, returning the response object."""
        try:
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            cmd = request.get("cmd")
            if cmd == "inject":
                return self._inject(request)
            if cmd == "step":
                return self._step(request)
            if cmd == "drain":
                return self._drain(request)
            if cmd == "snapshot":
                return {"ok": True, "metrics": self.snapshot()}
            if cmd == "shutdown":
                return {"ok": True, "bye": True}
            raise ServiceError(f"unknown cmd {cmd!r}")
        except ServiceError as exc:
            return {"ok": False, "error": str(exc)}

    def handle_line(self, line: bytes | str) -> dict[str, Any]:
        """Decode one NDJSON request line and apply it."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad JSON: {exc.msg}"}
        return self.handle(request)

    def _inject(self, request: dict[str, Any]) -> dict[str, Any]:
        source = _parse_node(request.get("source"), "source", self.topology)
        dest = _parse_node(request.get("dest"), "dest", self.topology)
        if source == dest:
            raise ServiceError("source and dest must differ")
        count = _parse_count(
            request.get("count"), "count", 1, MAX_INJECT_PER_REQUEST
        )
        topology = self.topology
        took = offer_packet(
            self.sim,
            np.full(count, topology.node_index(source), dtype=np.int64),
            np.full(count, topology.node_index(dest), dtype=np.int64),
            self._next_pid,
        )
        pids = self._next_pid + np.flatnonzero(took)
        self.injected_at.update(dict.fromkeys(pids.tolist(), self.sim.time))
        self._next_pid += count
        admitted = len(pids)
        self.offered += count
        self.admitted += admitted
        self.rejected += count - admitted
        return {
            "ok": True,
            "admitted": admitted,
            "rejected": count - admitted,
            "time": self.sim.time,
        }

    def _step(self, request: dict[str, Any]) -> dict[str, Any]:
        steps = _parse_count(
            request.get("steps"), "steps", 1, MAX_STEPS_PER_REQUEST
        )
        for _ in range(steps):
            self.sim.step()
        return {
            "ok": True,
            "time": self.sim.time,
            "delivered": len(self.sim.delivery_times),
            "in_flight": self.sim.in_flight,
        }

    def _drain(self, request: dict[str, Any]) -> dict[str, Any]:
        budget = _parse_count(
            request.get("max_steps"), "max_steps", 1024, MAX_STEPS_PER_REQUEST
        )
        used = 0
        idle = 0
        while not self.sim.done and used < budget and idle < STALL_STEPS:
            moves_before = self.sim.total_moves
            self.sim.step()
            used += 1
            idle = idle + 1 if self.sim.total_moves == moves_before else 0
        return {
            "ok": True,
            "time": self.sim.time,
            "steps_used": used,
            "drained": self.sim.done,
            "stalled": not self.sim.done and idle >= STALL_STEPS,
        }

    def snapshot(self) -> dict[str, Any]:
        """The live metrics row (same vocabulary as the batch driver)."""
        sim = self.sim
        latencies = sorted(
            sim.delivery_times[pid] - t0
            for pid, t0 in self.injected_at.items()
            if pid in sim.delivery_times
        )
        counts = violation_counts(self.checker.violations)
        return {
            "time": sim.time,
            "offered_packets": self.offered,
            "admitted_packets": self.admitted,
            "rejected_packets": self.rejected,
            "delivered_packets": len(sim.delivery_times),
            "in_flight": sim.in_flight,
            "drained": sim.done,
            **latency_percentiles(latencies, (50, 95, 99)),
            "queue_bound_violations": counts.get(QueueBoundOracle.name, 0),
            "conservation_violations": counts.get(
                PacketConservationOracle.name, 0
            ),
            "minimality_violations": counts.get(MinimalityOracle.name, 0),
        }


async def serve_forever(
    service: StreamingService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_ready: Callable[[str, int], None] | None = None,
) -> None:
    """Run the NDJSON TCP server until a client sends ``shutdown``.

    ``port=0`` binds an ephemeral port; ``on_ready`` receives the actual
    ``(host, port)`` once listening, which is how the CLI announces the
    address to stdout for scripted clients.
    """
    stopping = asyncio.Event()

    async def handle_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                response = service.handle_line(line)
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode()
                )
                await writer.drain()
                if response.get("bye"):
                    stopping.set()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    server = await asyncio.start_server(handle_connection, host, port)
    try:
        bound = server.sockets[0].getsockname()
        if on_ready is not None:
            on_ready(bound[0], bound[1])
        await stopping.wait()
    finally:
        server.close()
        await server.wait_closed()
