"""Permutation routing problems (the paper's benchmark, Section 1).

A (partial) permutation sends at most one packet from each node and at most
one packet to each node.  Generators build flat ``(pid, source, dest)``
arrays over :meth:`Topology.node_index` ids and return them as a fresh
:class:`~repro.mesh.batch.PacketBatch`, which the array engine loads
directly and object-level readers see as a Packet sequence.  Packet ids
follow the source order.  All randomness flows through an explicit seed or
``numpy`` generator so every experiment is reproducible.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.mesh.batch import PacketBatch
from repro.mesh.topology import Topology


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _from_dest(topology: Topology, dest: np.ndarray) -> PacketBatch:
    """Every node sends one packet, node ``i`` to ``dest[i]``."""
    ids = np.arange(topology.num_nodes, dtype=np.int64)
    return PacketBatch(topology, ids, ids, dest)


def packets_from_mapping(
    mapping: Mapping[tuple[int, ...], tuple[int, ...]]
    | Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    *,
    check_permutation: bool = True,
) -> PacketBatch:
    """Build packets from explicit (source -> destination) pairs.

    The batch indexes the smallest unwrapped grid holding every endpoint;
    an engine on a grid of another shape converts it through its Packet
    objects (:meth:`PacketBatch.of`).

    Args:
        mapping: Source/destination pairs.  Sources are sorted before id
            assignment so packet ids are independent of input ordering.
        check_permutation: Verify at most one packet per source and per
            destination (the partial-permutation condition).
    """
    pairs = sorted(mapping.items()) if isinstance(mapping, Mapping) else sorted(mapping)
    if check_permutation:
        sources = [s for s, _ in pairs]
        dests = [d for _, d in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("not a partial permutation: duplicate source")
        if len(set(dests)) != len(dests):
            raise ValueError("not a partial permutation: duplicate destination")
    if not pairs:
        return PacketBatch(Topology((1,)), [], [], [])
    ends = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2, -1)
    negative = (ends < 0).any(axis=(1, 2))
    if bool(negative.any()):
        raise ValueError(f"packet {int(np.argmax(negative))} endpoints outside topology")
    topology = Topology(tuple(ends.max(axis=(0, 1)) + 1))
    flat = topology.node_indices(ends)
    return PacketBatch(topology, np.arange(len(pairs)), flat[:, 0], flat[:, 1])


def identity_permutation(topology: Topology) -> PacketBatch:
    """Every node sends to itself (all packets delivered at step 0)."""
    return _from_dest(topology, np.arange(topology.num_nodes, dtype=np.int64))


def random_permutation(
    topology: Topology, seed: int | np.random.Generator | None = None
) -> PacketBatch:
    """A uniformly random full permutation of the nodes."""
    return _from_dest(topology, _rng(seed).permutation(topology.num_nodes))


def random_partial_permutation(
    topology: Topology,
    fraction: float,
    seed: int | np.random.Generator | None = None,
) -> PacketBatch:
    """A random partial permutation using roughly ``fraction`` of the nodes."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = _rng(seed)
    n = topology.num_nodes
    m = int(round(fraction * n))
    sources = rng.choice(n, size=m, replace=False)
    dests = rng.choice(n, size=m, replace=False)
    order = np.argsort(sources)
    return PacketBatch(
        topology, np.arange(m, dtype=np.int64), sources[order], dests[order]
    )


def transpose_permutation(topology: Topology) -> PacketBatch:
    """The coordinate-reversal permutation: (x, y) -> (y, x) in 2D.

    A classic stress pattern for dimension-order routing: all traffic
    crosses the main diagonal.  In d dimensions the node tuple is reversed,
    which requires every side length to be equal.
    """
    if len(set(topology.shape)) != 1:
        raise ValueError("transpose needs equal side lengths on every axis")
    return _from_dest(topology, topology.node_indices(topology.coords[::-1].T))


def bit_reversal_permutation(topology: Topology) -> PacketBatch:
    """(x, y) -> (rev(x), rev(y)) where rev reverses the coordinate's bits.

    Defined for power-of-two side lengths, per axis, in any dimension.
    """
    shape = topology.shape
    for side in shape:
        if side & (side - 1):
            raise ValueError("bit reversal needs power-of-two dimensions")
    coords = topology.coords
    reversed_ = np.zeros_like(coords)
    for axis, side in enumerate(shape):
        v = coords[axis]
        for _ in range(side.bit_length() - 1):
            reversed_[axis] = (reversed_[axis] << 1) | (v & 1)
            v = v >> 1
    return _from_dest(topology, topology.node_indices(reversed_.T))


def rotation_permutation(
    topology: Topology, *shifts: int, dx: int | None = None, dy: int | None = None
) -> PacketBatch:
    """Cyclic shift: one shift per axis, each coordinate mod its side.

    The historical 2D spelling ``rotation_permutation(mesh, dx=3, dy=0)``
    is accepted as an alias for positional ``(dx, dy)``.
    """
    if dx is not None or dy is not None:
        if shifts:
            raise ValueError("pass shifts positionally or as dx/dy, not both")
        shifts = (dx or 0, dy or 0)
    shape = topology.shape
    if len(shifts) != len(shape):
        raise ValueError(
            f"rotation needs one shift per axis ({len(shape)}), got {len(shifts)}"
        )
    shifted = (topology.coords + np.array(shifts)[:, None]) % np.array(shape)[:, None]
    return _from_dest(topology, topology.node_indices(shifted.T))
