"""Grid topologies: the mesh of Section 2, the torus of Section 5, and their
d-dimensional generalisations, as one data model.

A topology is a data object: a shape (side length per axis), one wrap flag
per axis, and the link table those two determine.  It answers purely
geometric questions: which nodes exist, which links exist, what is the
minimal distance between two nodes, and -- the quantity the whole paper
revolves around -- which outlinks of a node are *profitable* for a packet,
i.e. bring it strictly closer to its destination.  :class:`Mesh` and
:class:`Torus` build the paper's 2D instances, whose link directions are
the compass ``N, E, S, W``; :mod:`repro.mesh.ndtopology` builds the
d-dimensional and irregular ones (docs/TOPOLOGY.md).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Any, Iterator, Sequence

import numpy as np

from repro.mesh.directions import Direction, ports

Node = tuple[int, ...]


class Topology:
    """A d-dimensional grid with per-axis wrap flags.

    Nodes are coordinate tuples ``(c_0, .., c_{d-1})`` with
    ``0 <= c_i < shape[i]``; axis ``i`` wraps iff ``wrap[i]``.  In 2D the
    coordinates are ``(x, y)``, ``x`` growing eastward (axis 0) and ``y``
    northward (axis 1).  Links, distance, displacement and profitable sets
    all derive from this data; subclasses only restrict the link set (see
    :class:`~repro.mesh.ndtopology.SparsePillarMesh`) or answer a query
    faster (:class:`Mesh`).

    Attributes:
        shape / wrap / dims: Side length and wrap flag per axis, and the
            axis count.
        width / height: ``shape[0]`` and ``shape[1]`` (1 when ``dims == 1``).
        wraps: True when any axis wraps.
        directions: The link directions (:func:`~repro.mesh.directions.ports`);
            ``directions[i]`` has integer value ``i``, so link tables are
            indexed positionally.
        opposites: ``opposites[d]`` reverses direction ``d``.
    """

    #: False for irregular variants whose link set is node-dependent beyond
    #: plain boundary clipping (e.g. the sparse-pillar mesh).  Regularity is
    #: what routers rely on for axis-based escape-channel arguments.
    regular: bool = True

    def __init__(self, shape: Sequence[int], wrap: Sequence[bool] | None = None) -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"shape must be a nonempty tuple of sides >= 1, got {shape}")
        dims = len(shape)
        wrap = tuple(bool(w) for w in (wrap if wrap is not None else (False,) * dims))
        if len(wrap) != dims:
            raise ValueError(f"wrap must have one flag per axis, got {wrap} for shape {shape}")
        self.shape = shape
        self.wrap = wrap
        self.dims = dims
        self.width = shape[0]
        self.height = shape[1] if dims >= 2 else 1
        self.wraps = any(wrap)
        self.num_nodes = math.prod(shape)
        self.directions: tuple[Any, ...] = ports(dims)
        self.opposites: tuple[Any, ...] = tuple(d.opposite for d in self.directions)
        self._pos = {d.axis: d for d in self.directions if d.sign > 0}
        self._neg = {d.axis: d for d in self.directions if d.sign < 0}
        # Flat-id step of one hop along each axis (last axis fastest).
        self._strides = tuple(math.prod(shape[axis + 1 :]) for axis in range(dims))
        # Hot-path memos (docs/PERFORMANCE.md).  Geometry is immutable, so
        # these are pure: profitable sets per (node, dest), and the
        # per-node link tables of the reference engine (built on first use).
        self._profitable_cache: dict[tuple[Node, Node], frozenset[Any]] = {}
        self._neighbor_flat: list[tuple[Node | None, ...]] | None = None
        self._out_dirs_flat: list[tuple[Any, ...]] | None = None

    # -- nodes ---------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """All nodes with the first axis outermost (2D: column-major,
        west-to-east, south-to-north)."""
        return itertools.product(*(range(side) for side in self.shape))

    def contains(self, node: Node) -> bool:
        if len(node) != self.dims:
            return False
        for coord, side in zip(node, self.shape):
            if not 0 <= coord < side:
                return False
        return True

    def node_index(self, node: Node) -> int:
        """Flat id in :meth:`nodes` order (2D: ``x * height + y``)."""
        return sum(map(operator.mul, node, self._strides))

    def node_indices(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`node_index` over the last axis of an integer coordinate
        array (no range check)."""
        return coords @ np.array(self._strides, dtype=np.int64)

    @cached_property
    def coords(self) -> np.ndarray:
        """``(dims, num_nodes)`` coordinates: ``coords[:, i]`` is node ``i``."""
        return np.indices(self.shape, dtype=np.int64).reshape(self.dims, -1)

    # -- links ---------------------------------------------------------------

    def link_array(self) -> np.ndarray:
        """``(num_nodes, 2 * dims)`` flat neighbour ids, -1 where no link.

        Row ``i`` is the node with :meth:`node_index` ``i``; column ``d``
        is direction ``d``.  Both engines derive their link tables from
        this array, so a subclass that restricts links restricts them here
        and in :meth:`neighbor`.
        """
        ids = np.arange(self.num_nodes, dtype=np.int64)
        links = np.empty((self.num_nodes, 2 * self.dims), dtype=np.int64)
        for d in self.directions:
            side, stride = self.shape[d.axis], self._strides[d.axis]
            step = d.sign * stride
            at_edge = ids // stride % side == (side - 1 if d.sign > 0 else 0)
            across = ids - (side - 1) * step if self.wrap[d.axis] else -1
            links[:, d] = np.where(at_edge, across, ids + step)
        return links

    def neighbor(self, node: Node, direction: Any) -> Node | None:
        """The node at the far end of ``node``'s outlink ``direction``.

        Returns None when the outlink does not exist (mesh boundary).
        """
        axis = direction.axis
        coord = node[axis] + direction.sign
        if self.wrap[axis]:
            coord %= self.shape[axis]
        elif not 0 <= coord < self.shape[axis]:
            return None
        return node[:axis] + (coord,) + node[axis + 1 :]

    def _build_tables(self) -> None:
        links = self.link_array()
        lookup: list[Node | None] = list(self.nodes())
        lookup.append(None)  # link id -1 reads the last entry
        columns = [list(map(lookup.__getitem__, col)) for col in links.T.tolist()]
        self._neighbor_flat = list(zip(*columns))
        masks = ((links >= 0) << np.arange(links.shape[1])).sum(axis=1).tolist()
        by_mask = {
            mask: tuple(d for d in self.directions if mask >> d & 1)
            for mask in sorted(set(masks))
        }
        self._out_dirs_flat = [by_mask[mask] for mask in masks]

    def neighbor_table(self) -> list[tuple[Node | None, ...]]:
        """Per-node outlink targets, indexed ``[node_index][direction]``.

        Entry ``None`` means the outlink does not exist (mesh boundary).
        Built once from :meth:`link_array` on first use; the reference
        engine's transmit phase reads this instead of calling
        :meth:`neighbor` per move.
        """
        if self._neighbor_flat is None:
            self._build_tables()
        return self._neighbor_flat  # type: ignore[return-value]

    def out_directions_table(self) -> list[tuple[Any, ...]]:
        """Per-node outlink directions in ``directions`` order, by flat id."""
        if self._out_dirs_flat is None:
            self._build_tables()
        return self._out_dirs_flat  # type: ignore[return-value]

    def out_directions(self, node: Node) -> tuple[Any, ...]:
        """The directions in which ``node`` has outlinks, in ``directions`` order."""
        return self.out_directions_table()[self.node_index(node)]

    def neighbors(self, node: Node) -> list[Node]:
        out = []
        for d in self.directions:
            nb = self.neighbor(node, d)
            if nb is not None:
                out.append(nb)
        return out

    # -- distance and profitability -------------------------------------------

    def displacement(self, node: Node, dest: Node) -> Node:
        """Signed minimal displacement per axis from ``node`` to ``dest``.

        ``dx > 0`` means the destination lies to the east along a shortest
        path, etc.  On a wrapping axis the shorter way around is chosen; an
        exact half-circumference tie is reported as positive.
        """
        out = []
        for a, b, side, wrapped in zip(node, dest, self.shape, self.wrap):
            delta = b - a
            if wrapped:
                delta %= side
                if delta > side // 2:
                    delta -= side
            out.append(delta)
        return tuple(out)

    def distance(self, a: Node, b: Node) -> int:
        """Length of a shortest path from ``a`` to ``b``."""
        return sum(map(abs, self.displacement(a, b)))

    def flat_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:meth:`distance` between flat node ids, elementwise."""
        coords = self.coords
        total = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for axis, (side, wrapped) in enumerate(zip(self.shape, self.wrap)):
            gap = np.abs(coords[axis][a] - coords[axis][b])
            total += np.minimum(gap, side - gap) if wrapped else gap
        return total

    def profitable_directions(self, node: Node, dest: Node) -> frozenset[Any]:
        """Outlinks of ``node`` that move a packet strictly closer to ``dest``.

        This is the only destination-derived information a
        destination-exchangeable algorithm may use (Section 2).  Results are
        memoized per (node, dest) on this topology: this is the single
        most-called geometric query in the simulator's step loop.
        """
        key = (node, dest)
        cached = self._profitable_cache.get(key)
        if cached is None:
            cached = self._profitable_cache[key] = self._profitable_uncached(node, dest)
        return cached

    def _profitable_uncached(self, node: Node, dest: Node) -> frozenset[Any]:
        dirs = []
        for axis, (src, dst) in enumerate(zip(node, dest)):
            if src == dst:
                continue
            if self.wrap[axis]:
                side = self.shape[axis]
                forward = (dst - src) % side
                backward = side - forward
                if forward <= backward:
                    dirs.append(self._pos[axis])
                if forward >= backward:  # both on an exact half-circumference tie
                    dirs.append(self._neg[axis])
            else:
                dirs.append(self._pos[axis] if dst > src else self._neg[axis])
        return frozenset(dirs)

    @property
    def diameter(self) -> int:
        return sum(
            side // 2 if wrapped else side - 1 for side, wrapped in zip(self.shape, self.wrap)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({'x'.join(map(str, self.shape))})"


#: Mesh profitable-direction sets, indexed ``[sign(dx) + 1][sign(dy) + 1]``
#: where ``(dx, dy)`` is the displacement from node to destination.  On the
#: mesh the profitable set depends on nothing but those two signs, so the
#: whole query collapses to one table lookup.
_MESH_PROFITABLE: tuple[tuple[frozenset[Direction], ...], ...] = tuple(
    tuple(
        frozenset(
            ([Direction.N] if sy > 0 else [Direction.S] if sy < 0 else [])
            + ([Direction.E] if sx > 0 else [Direction.W] if sx < 0 else [])
        )
        for sy in (-1, 0, 1)
    )
    for sx in (-1, 0, 1)
)


class Mesh(Topology):
    """The ``width x height`` mesh: bidirectional links between grid neighbours."""

    def __init__(self, width: int, height: int | None = None) -> None:
        super().__init__((width, width if height is None else height))

    def profitable_directions(self, node: Node, dest: Node) -> frozenset[Any]:
        # The sign table needs no per-pair memo.
        dx = dest[0] - node[0]
        dy = dest[1] - node[1]
        return _MESH_PROFITABLE[(dx > 0) - (dx < 0) + 1][(dy > 0) - (dy < 0) + 1]


class Torus(Topology):
    """The ``width x height`` torus: the mesh with wraparound links."""

    def __init__(self, width: int, height: int | None = None) -> None:
        super().__init__((width, width if height is None else height), wrap=(True, True))
