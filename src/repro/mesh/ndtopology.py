"""The d-dimensional and irregular grids, and the topology registry.

Every grid is a :class:`~repro.mesh.topology.Topology`: a shape vector and
per-axis wrap flags, whose links are the :func:`~repro.mesh.directions.ports`
of its dimension.  This module names the families beyond the paper's 2D
:class:`~repro.mesh.topology.Mesh`/:class:`~repro.mesh.topology.Torus`:
:class:`MeshND` and :class:`TorusND` are the regular grids of any dimension,
and :class:`SparsePillarMesh` is the irregular variant: a 3D mesh whose
vertical (z) links exist only on a sparse sub-grid of "pillar" columns, the
express/elevator pattern of hierarchical networks-on-chip.

:data:`TOPOLOGY_BUILDERS` maps the registered topology names to builders.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.mesh.topology import Mesh, Node, Topology, Torus


class MeshND(Topology):
    """The d-dimensional mesh: grid links clipped at every boundary."""

    def __init__(self, shape: Sequence[int]) -> None:
        super().__init__(shape, wrap=None)


class TorusND(Topology):
    """The d-dimensional torus: every axis wraps around."""

    def __init__(self, shape: Sequence[int]) -> None:
        shape = tuple(int(s) for s in shape)
        super().__init__(shape, wrap=(True,) * len(shape))


class SparsePillarMesh(Topology):
    """An irregular 3D mesh: z-links only on a sparse grid of pillars.

    Horizontal (x/y) links are the full ``n x n`` mesh in every layer;
    vertical (z) links exist only at nodes whose ``(x, y)`` are both
    multiples of ``pillar_stride``.  Packets change layers by walking to a
    pillar first — the express-channel / elevator pattern.  The graph stays
    connected (pillar ``(0, 0)`` always exists) but the link set is
    node-dependent, so ``regular`` is False: routers must not assume
    axis-based escape channels exist everywhere.
    """

    regular = False

    def __init__(self, n: int, layers: int | None = None, pillar_stride: int = 2) -> None:
        n = int(n)
        if pillar_stride < 1:
            raise ValueError(f"pillar_stride must be >= 1, got {pillar_stride}")
        super().__init__((n, n, int(layers) if layers is not None else n))
        self.pillar_stride = pillar_stride

    def is_pillar(self, node: Node) -> bool:
        stride = self.pillar_stride
        return node[0] % stride == 0 and node[1] % stride == 0

    def neighbor(self, node: Node, direction: Any) -> Node | None:
        if direction.axis == 2 and not self.is_pillar(node):
            return None
        return super().neighbor(node, direction)

    def link_array(self) -> np.ndarray:
        links = super().link_array()
        ids = np.arange(self.num_nodes, dtype=np.int64)
        x, y = ids // self._strides[0], ids // self._strides[1] % self.shape[1]
        off_pillar = (x % self.pillar_stride != 0) | (y % self.pillar_stride != 0)
        for port in self.directions:
            if port.axis == 2:
                links[off_pillar, port] = -1
        return links

    def _pillar_axis_cost(self, a: int, b: int) -> int:
        """Min walk ``|a - p| + |p - b|`` over pillar coordinates ``p``."""
        stride = self.pillar_stride
        lo, hi = (a, b) if a <= b else (b, a)
        if hi // stride * stride >= lo:  # a pillar multiple lies in [lo, hi]
            return hi - lo
        below = lo // stride * stride
        cost = a + b - 2 * below
        above = below + stride
        if above < self.shape[0]:
            cost = min(cost, 2 * above - a - b)
        return cost

    def _pillar_axis_costs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`_pillar_axis_cost`, elementwise over coordinate arrays."""
        stride = self.pillar_stride
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        below = lo // stride * stride
        above = below + stride
        cost = a + b - 2 * below
        cost = np.where(
            above < self.shape[0], np.minimum(cost, 2 * above - a - b), cost
        )
        return np.where(hi // stride * stride >= lo, hi - lo, cost)

    def flat_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        x, y, z = self.coords
        dz = np.abs(z[a] - z[b])
        xa, xb, ya, yb = x[a], x[b], y[a], y[b]
        walk = self._pillar_axis_costs(xa, xb) + self._pillar_axis_costs(ya, yb)
        return np.where(dz == 0, np.abs(xa - xb) + np.abs(ya - yb), walk + dz)

    def distance(self, a: Node, b: Node) -> int:
        dz = abs(a[2] - b[2])
        if dz == 0:
            return abs(a[0] - b[0]) + abs(a[1] - b[1])
        # Any shortest path routes through one best pillar column: splitting
        # the z-moves across several pillars can only add x/y walk (triangle
        # inequality), so the per-axis pillar costs are exact.
        return self._pillar_axis_cost(a[0], b[0]) + self._pillar_axis_cost(a[1], b[1]) + dz

    def _profitable_uncached(self, node: Node, dest: Node) -> frozenset[Any]:
        here = self.distance(node, dest)
        return frozenset(
            port
            for port in self.out_directions(node)
            if self.distance(self.neighbor(node, port), dest) == here - 1
        )

    @property
    def diameter(self) -> int:
        n, nz = self.shape[0], self.shape[2]
        worst_walk = max(
            self._pillar_axis_cost(a, b) for a in range(n) for b in range(n)
        )
        return max(2 * (n - 1), 2 * worst_walk + (nz - 1))


#: Registered topology builders: name -> (side length n) -> topology.  The
#: analyzers, the differential registry, ``TrialSpec``, and the CLI all
#: resolve topology names through this table, so adding an entry here
#: threads a new topology through every layer at once.
TOPOLOGY_BUILDERS: dict[str, Callable[[int], Topology]] = {
    "mesh": lambda n: Mesh(n),
    "torus": lambda n: Torus(n),
    "mesh3d": lambda n: MeshND((n, n, n)),
    "torus3d": lambda n: TorusND((n, n, n)),
    "pillar": lambda n: SparsePillarMesh(n),
}

#: Registered topology names in deterministic order (2D first for
#: backwards-compatible report layouts).
TOPOLOGY_NAMES: tuple[str, ...] = ("mesh", "torus", "mesh3d", "torus3d", "pillar")


def build_topology(name: str, n: int) -> Topology:
    """Instantiate registered topology ``name`` with side length ``n``."""
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; expected one of {TOPOLOGY_NAMES}"
        ) from None
    return builder(n)


__all__ = [
    "MeshND",
    "TorusND",
    "SparsePillarMesh",
    "TOPOLOGY_BUILDERS",
    "TOPOLOGY_NAMES",
    "build_topology",
]
