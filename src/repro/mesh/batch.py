"""Packet batches: a routing problem as flat arrays.

A :class:`PacketBatch` holds one routing problem -- pid, source,
destination and injection time per packet -- as int64 arrays over
:meth:`Topology.node_index` flat ids.  The array engine loads those arrays
directly, so a permutation of a million packets reaches the step loop
without a single Python object.  The batch is still a
``Sequence[Packet]`` for every object-level reader (the reference engine,
the tiling router, tests): indexing, iterating or ``list(...)`` builds the
Packet objects once, on first access, and every later access returns
those same objects.

Once built, the objects are the truth: they are what an engine queues and
what a caller may mutate (an adversary's destination exchange, a test
planting a wrong destination), so :meth:`PacketBatch.of` reads the arrays
of a built batch back off its objects.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.mesh.packet import Packet
from repro.mesh.topology import Topology


def _frozen(values: Any) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


def _refuse_bad_packets(pid: np.ndarray, outside: np.ndarray) -> None:
    """Raise for the first packet, in input order, that repeats an earlier
    pid or has an endpoint outside the grid (``outside``); the repeat is
    reported when one packet is both.  The reference engine's messages."""
    first = len(pid)
    dup = first
    if len(pid) > 1 and not bool((pid[1:] > pid[:-1]).all()):  # ascending: distinct
        order = np.argsort(pid, kind="stable")
        repeat = order[1:][pid[order[1:]] == pid[order[:-1]]]
        if len(repeat):
            dup = int(repeat.min())
    bad = int(np.argmax(outside)) if bool(outside.any()) else first
    if dup < first and dup <= bad:
        raise ValueError(f"duplicate packet id {pid[dup]}")
    if bad < first:
        raise ValueError(f"packet {pid[bad]} endpoints outside topology")


class PacketBatch(Sequence[Packet]):
    """An immutable routing problem over ``topology``'s flat node ids.

    Attributes:
        topology: The grid the flat ids index.
        pid / source / dest / injection_time: Read-only int64 arrays, one
            entry per packet; ``source``/``dest`` are
            :meth:`Topology.node_index` ids.

    Construction refuses a repeated pid and an endpoint outside the grid
    with the engines' ``ValueError`` messages, so every batch an engine
    sees is loadable.
    """

    __slots__ = ("topology", "pid", "source", "dest", "injection_time", "_packets")

    def __init__(
        self,
        topology: Topology,
        pid: Any,
        source: Any,
        dest: Any,
        injection_time: Any = None,
    ) -> None:
        self.topology = topology
        self.pid = _frozen(pid)
        self.source = _frozen(source)
        self.dest = _frozen(dest)
        n = len(self.pid)
        self.injection_time = _frozen(
            np.zeros(n, dtype=np.int64) if injection_time is None else injection_time
        )
        if not (
            self.pid.shape == self.source.shape == self.dest.shape
            == self.injection_time.shape == (n,)
        ):
            raise ValueError(
                "pid, source, dest and injection_time must be 1-D arrays of one length"
            )
        num_nodes = topology.num_nodes
        _refuse_bad_packets(
            self.pid,
            (self.source < 0) | (self.source >= num_nodes)
            | (self.dest < 0) | (self.dest >= num_nodes),
        )
        self._packets: list[Packet] | None = None

    @classmethod
    def of(cls, packets: Iterable[Packet], topology: Topology) -> "PacketBatch":
        """``packets`` as a batch over ``topology``: the one conversion.

        An unbuilt batch over a grid of the same shape is returned as is.
        Anything else -- a Packet iterable, or a batch whose objects were
        built -- is read off its Packet objects, which the result keeps as
        its own: converting never copies a packet.  Raises ``ValueError``
        for a repeated pid or an endpoint outside ``topology``, with one
        vectorized range check instead of a ``Topology.contains`` call per
        endpoint.
        """
        if isinstance(packets, PacketBatch):
            if packets._packets is None and packets.topology.shape == topology.shape:
                return packets
            objects = packets.objects()
        else:
            objects = list(packets)
        n = len(objects)
        pid = np.fromiter((p.pid for p in objects), dtype=np.int64, count=n)
        time = np.fromiter((p.injection_time for p in objects), dtype=np.int64, count=n)
        dims = topology.dims
        coords = np.fromiter(
            itertools.chain.from_iterable(
                itertools.chain.from_iterable((p.source, p.dest) for p in objects)
            ),
            dtype=np.int64,
        )
        if len(coords) != 2 * dims * n:
            # Some endpoint is not a ``dims``-tuple: refused packet by packet.
            contains = topology.contains
            outside = np.fromiter(
                (not (contains(p.source) and contains(p.dest)) for p in objects),
                dtype=bool,
                count=n,
            )
            _refuse_bad_packets(pid, outside)
        ends = coords.reshape(n, 2, dims)  # [packet, source/dest, axis]
        outside = ((ends < 0) | (ends >= topology.shape)).any(axis=(1, 2))
        flat = np.where(outside[:, None], -1, topology.node_indices(ends))
        batch = cls(topology, pid, flat[:, 0], flat[:, 1], time)
        batch._packets = objects
        return batch

    # -- the Packet objects -------------------------------------------------

    @property
    def built(self) -> bool:
        """Whether the Packet objects exist (built, or given to :meth:`of`)."""
        return self._packets is not None

    def objects(self) -> list[Packet]:
        """The Packet objects, in batch order: built on the first call, the
        same list on every later one."""
        objects = self._packets
        if objects is None:
            nodes = list(self.topology.nodes())
            self._packets = objects = [
                Packet(pid, nodes[s], nodes[d], injection_time=t)
                for pid, s, d, t in zip(
                    self.pid.tolist(),
                    self.source.tolist(),
                    self.dest.tolist(),
                    self.injection_time.tolist(),
                )
            ]
        return objects

    def fresh(self) -> "PacketBatch":
        """An unbuilt batch with this batch's current contents: pristine
        packets for one more run, sharing no object with this one."""
        current = PacketBatch.of(self, self.topology)
        return PacketBatch(
            self.topology, current.pid, current.source, current.dest, current.injection_time
        )

    def __len__(self) -> int:
        return len(self.pid)

    def __getitem__(self, index: Any) -> Any:
        return self.objects()[index]

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.objects())

    def __add__(self, other: Sequence[Packet]) -> list[Packet]:
        return list(self) + list(other)

    def __radd__(self, other: Sequence[Packet]) -> list[Packet]:
        return list(other) + list(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "built" if self.built else "unbuilt"
        return f"PacketBatch({len(self)} packets on {self.topology!r}, {state})"
