"""Link directions: the compass directions of the 2D mesh and the ports
of a d-dimensional grid.

The paper numbers columns 1..n from west to east and rows 1..n from south to
north (Section 2, "Definitions").  We use 0-indexed coordinates ``(x, y)``
where ``x`` grows eastward and ``y`` grows northward, so moving North adds
``(0, +1)`` and moving East adds ``(+1, 0)``.

A :class:`Port` is the d-dimensional generalisation of :class:`Direction`:
an ``int`` whose value doubles as the positional index into per-node link
tables.  Ports ``0 .. d-1`` move positively along axis ``d-1-p`` (port 0 is
the positive highest axis) and ports ``d .. 2d-1`` are their negatives
(``opposite = (p + d) % 2d``).  At ``d = 2`` that encoding *is* the compass
``N, E, S, W``, so :func:`ports` returns :data:`DIRECTIONS` there: a 2D
grid has one direction vocabulary, whatever class built it.
"""

from __future__ import annotations

import enum
import functools


class Direction(enum.IntEnum):
    """One of the four mesh link directions.

    ``IntEnum`` so directions sort deterministically (N < E < S < W), which
    fixes tie-breaking order everywhere in the simulator.
    """

    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def dx(self) -> int:
        """Change in column index when moving one hop this way."""
        return _DX[self]

    @property
    def dy(self) -> int:
        """Change in row index when moving one hop this way."""
        return _DY[self]

    @property
    def opposite(self) -> "Direction":
        """The reverse direction (N <-> S, E <-> W)."""
        return _OPPOSITE[self]

    @property
    def is_horizontal(self) -> bool:
        return self in (Direction.E, Direction.W)

    @property
    def is_vertical(self) -> bool:
        return self in (Direction.N, Direction.S)

    @property
    def axis(self) -> int:
        """Coordinate axis this direction moves along (x = 0, y = 1).

        Shared with :class:`Port`: the four directions are the ports of a
        2-axis grid.
        """
        return _AXIS[self]

    @property
    def sign(self) -> int:
        """+1 for the coordinate-increasing direction, -1 for the other."""
        return _SIGN[self]

    def step(self, node: tuple[int, int]) -> tuple[int, int]:
        """The coordinates one hop from ``node`` in this direction.

        Pure arithmetic; does not check mesh bounds (see
        :meth:`repro.mesh.topology.Topology.neighbor` for that).
        """
        x, y = node
        return (x + _DX[self], y + _DY[self])


_DX = {Direction.N: 0, Direction.E: 1, Direction.S: 0, Direction.W: -1}
_DY = {Direction.N: 1, Direction.E: 0, Direction.S: -1, Direction.W: 0}
_OPPOSITE = {
    Direction.N: Direction.S,
    Direction.S: Direction.N,
    Direction.E: Direction.W,
    Direction.W: Direction.E,
}
_AXIS = {Direction.N: 1, Direction.E: 0, Direction.S: 1, Direction.W: 0}
_SIGN = {Direction.N: 1, Direction.E: 1, Direction.S: -1, Direction.W: -1}

#: ``OPPOSITE[d]`` is the reverse of ``d``, indexed by ``IntEnum`` value.
#: Hot paths use this instead of the :attr:`Direction.opposite` property,
#: whose descriptor-protocol call is measurable in the step loop.
OPPOSITE: tuple[Direction, ...] = (
    Direction.S,
    Direction.W,
    Direction.N,
    Direction.E,
)

#: All four directions in deterministic (N, E, S, W) order.
DIRECTIONS: tuple[Direction, ...] = (
    Direction.N,
    Direction.E,
    Direction.S,
    Direction.W,
)

#: The two horizontal directions.
HORIZONTAL: tuple[Direction, ...] = (Direction.E, Direction.W)

#: The two vertical directions.
VERTICAL: tuple[Direction, ...] = (Direction.N, Direction.S)


_AXIS_LETTERS = "xyzw"


def _axis_letter(axis: int) -> str:
    return _AXIS_LETTERS[axis] if axis < len(_AXIS_LETTERS) else f"a{axis}"


class Port(int):
    """One link direction of a d-dimensional grid (d != 2).

    An ``int`` subclass (like :class:`Direction`) so ports sort
    deterministically and index link tables positionally.  Carries the
    geometric metadata routers and analyzers need: ``axis``, ``sign``,
    ``opposite``, and a stable ``name`` (``+x``, ``-z``, ..) for reports
    and witnesses.
    """

    axis: int
    sign: int
    name: str
    opposite: "Port"

    def __repr__(self) -> str:
        return f"Port({self.name})"

    def __str__(self) -> str:
        return self.name


@functools.lru_cache(maxsize=None)
def ports(dims: int) -> tuple[Port, ...] | tuple[Direction, ...]:
    """The interned link-direction tuple of a ``dims``-dimensional grid.

    :data:`DIRECTIONS` at ``dims == 2``; :class:`Port` objects otherwise.
    Interned per ``dims`` so every topology of one dimension shares one
    tuple.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    if dims == 2:
        return DIRECTIONS
    out: list[Port] = []
    for value in range(2 * dims):
        negative = value >= dims
        axis = dims - 1 - (value - dims if negative else value)
        port = Port(value)
        port.axis = axis
        port.sign = -1 if negative else 1
        port.name = ("-" if negative else "+") + _axis_letter(axis)
        out.append(port)
    for value, port in enumerate(out):
        port.opposite = out[(value + dims) % (2 * dims)]
    return tuple(out)
