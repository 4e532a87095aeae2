"""Property-based tests (hypothesis) for the d-dimensional topology layer.

The 2D suite (``test_topology_properties.py``) pins the compass behaviour
of :class:`Mesh`/:class:`Torus`; this suite checks the same invariants on
the :class:`MeshND`/:class:`TorusND` grids for d in 1..4, plus the
encoding laws of :func:`ports`, the agreement of the numpy link table
with the scalar ``neighbor`` and of the flat-id geometry (``coords``,
``flat_distance``) with the scalar ``nodes``/``distance``, and an
exhaustive BFS cross-check of the distance closed forms: the irregular
:class:`SparsePillarMesh` and the 2D :class:`Mesh`/:class:`Torus` pair.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.directions import DIRECTIONS, ports
from repro.mesh.ndtopology import (
    TOPOLOGY_NAMES,
    MeshND,
    SparsePillarMesh,
    TorusND,
    build_topology,
)
from repro.mesh.topology import Mesh, Topology, Torus


@st.composite
def nd_case(draw):
    dims = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(2, 5)) for _ in range(dims))
    wrap = draw(st.booleans())
    topo = TorusND(shape) if wrap else MeshND(shape)
    a = tuple(draw(st.integers(0, s - 1)) for s in shape)
    b = tuple(draw(st.integers(0, s - 1)) for s in shape)
    return topo, a, b


@given(nd_case())
@settings(max_examples=200)
def test_neighbor_symmetry(case):
    """Every link is bidirectional: going out p and back p.opposite is home."""
    topo, a, _ = case
    for p in topo.directions:
        nb = topo.neighbor(a, p)
        if nb is not None:
            assert topo.neighbor(nb, p.opposite) == a


@given(nd_case())
@settings(max_examples=200)
def test_distance_matches_closed_form(case):
    """Mesh distance is L1; torus distance is per-axis ring distance."""
    topo, a, b = case
    expected = 0
    for axis, side in enumerate(topo.shape):
        d = abs(a[axis] - b[axis])
        expected += min(d, side - d) if topo.wrap[axis] else d
    assert topo.distance(a, b) == expected
    assert topo.distance(a, b) == topo.distance(b, a)
    assert topo.distance(a, b) <= topo.diameter


@given(nd_case())
@settings(max_examples=200)
def test_profitable_moves_reduce_distance_by_one(case):
    topo, a, b = case
    profitable = topo.profitable_directions(a, b)
    assert bool(profitable) == (a != b)
    for p in topo.directions:
        nb = topo.neighbor(a, p)
        if nb is None:
            continue
        if p in profitable:
            assert topo.distance(nb, b) == topo.distance(a, b) - 1
        else:
            assert topo.distance(nb, b) >= topo.distance(a, b)


@given(nd_case())
@settings(max_examples=200)
def test_wrap_tie_has_both_directions_profitable(case):
    """Even-side half-circumference ties admit both ports; otherwise the
    profitable set holds at most one port per axis."""
    topo, a, b = case
    profitable = topo.profitable_directions(a, b)
    for axis, side in enumerate(topo.shape):
        on_axis = [p for p in profitable if p.axis == axis]
        d = abs(a[axis] - b[axis])
        tie = topo.wrap[axis] and side % 2 == 0 and d == side // 2
        assert len(on_axis) == (2 if tie else (0 if d == 0 else 1))


def _assert_link_array_matches_neighbor(topo):
    links = topo.link_array()
    assert links.shape == (topo.num_nodes, 2 * topo.dims)
    for a in topo.nodes():
        for p in topo.directions:
            nb = topo.neighbor(a, p)
            expected = -1 if nb is None else topo.node_index(nb)
            assert links[topo.node_index(a), p] == expected, (a, p)


@given(nd_case())
@settings(max_examples=100)
def test_link_array_matches_neighbor(case):
    """The numpy link table both engines read is the scalar ``neighbor``."""
    topo, _, _ = case
    _assert_link_array_matches_neighbor(topo)


@pytest.mark.parametrize(
    "topo",
    [Topology((4, 3, 5), wrap=(True, False, True)), SparsePillarMesh(4, layers=3)],
    ids=["mixed-wrap", "pillar"],
)
def test_link_array_matches_neighbor_irregular_and_mixed(topo):
    _assert_link_array_matches_neighbor(topo)


@given(nd_case())
@settings(max_examples=100)
def test_node_index_is_a_bijection(case):
    topo, _, _ = case
    indices = [topo.node_index(node) for node in topo.nodes()]
    assert indices == list(range(topo.num_nodes))


def test_ports_encoding_laws():
    for dims in range(1, 5):
        ps = ports(dims)
        assert len(ps) == 2 * dims
        assert [int(p) for p in ps] == list(range(2 * dims))
        for p in ps:
            assert p.opposite.opposite is p
            assert p.opposite.axis == p.axis
            assert p.opposite.sign == -p.sign
        assert sorted({(p.axis, p.sign) for p in ps}) == [
            (axis, sign) for axis in range(dims) for sign in (-1, 1)
        ]


def test_ports_at_d2_coincide_with_compass_directions():
    """Port 0..3 must be N, E, S, W numerically *and* geometrically."""
    for port, direction in zip(ports(2), DIRECTIONS):
        assert int(port) == int(direction)
        assert port.axis == direction.axis
        assert port.sign == direction.sign
        assert int(port.opposite) == int(direction.opposite)


def _bfs_distances(topo, source):
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for p in topo.out_directions(node):
            nb = topo.neighbor(node, p)
            if nb is not None and nb not in dist:
                dist[nb] = dist[node] + 1
                frontier.append(nb)
    return dist


def test_pillar_distance_matches_bfs_exhaustively():
    topo = SparsePillarMesh(4, layers=3)
    nodes = list(topo.nodes())
    for src in nodes:
        bfs = _bfs_distances(topo, src)
        assert len(bfs) == topo.num_nodes  # connected despite missing z-links
        for dst in nodes:
            assert topo.distance(src, dst) == bfs[dst]


@pytest.mark.parametrize("topo_cls", [Mesh, Torus])
def test_2d_distance_matches_bfs_for_every_pair(topo_cls):
    topo = topo_cls(6)
    nodes = list(topo.nodes())
    for src in nodes:
        bfs = _bfs_distances(topo, src)
        for dst in nodes:
            assert topo.distance(src, dst) == bfs[dst], (src, dst)


@pytest.mark.parametrize("topo_cls,n", [(Mesh, 7), (Torus, 7), (Torus, 8)])
def test_2d_diameter_is_the_largest_bfs_distance(topo_cls, n):
    topo = topo_cls(n)
    assert topo.diameter == max(
        max(_bfs_distances(topo, src).values()) for src in topo.nodes()
    )


def test_rectangular_mesh_is_connected():
    topo = Mesh(4, 9)
    assert len(_bfs_distances(topo, (0, 0))) == topo.num_nodes


def test_pillar_profitable_moves_reduce_bfs_distance():
    topo = SparsePillarMesh(4, layers=3)
    a, b = (1, 3, 0), (3, 1, 2)
    profitable = topo.profitable_directions(a, b)
    assert profitable  # some minimal outlink exists even off-pillar
    for p in profitable:
        assert topo.distance(topo.neighbor(a, p), b) == topo.distance(a, b) - 1


@st.composite
def flat_geometry_case(draw):
    """A registered topology at a small side, or a grid with mixed wrap
    flags, and two aligned arrays of flat node ids."""
    name = draw(st.sampled_from(TOPOLOGY_NAMES + ("mixed-wrap",)))
    if name == "mixed-wrap":
        dims = draw(st.integers(1, 4))
        shape = tuple(draw(st.integers(1, 6)) for _ in range(dims))
        topo = Topology(shape, tuple(draw(st.booleans()) for _ in range(dims)))
    else:
        topo = build_topology(name, draw(st.integers(2, 7)))
    ids = st.integers(0, topo.num_nodes - 1)
    m = draw(st.integers(0, 12))
    a = draw(st.lists(ids, min_size=m, max_size=m))
    b = draw(st.lists(ids, min_size=m, max_size=m))
    return topo, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


@given(flat_geometry_case())
@settings(max_examples=200)
def test_flat_geometry_matches_the_scalar_geometry(case):
    """``coords`` lists the nodes in ``node_index`` order, and
    ``flat_distance`` is ``distance`` elementwise: what the oracles read
    on every topology, the pillar mesh's walk metric and mixed wrap
    included."""
    topo, a, b = case
    nodes = list(topo.nodes())
    assert topo.coords.shape == (topo.dims, topo.num_nodes)
    assert [tuple(c) for c in topo.coords.T.tolist()] == nodes
    assert all(topo.node_index(node) == i for i, node in enumerate(nodes))
    got = topo.flat_distance(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [topo.distance(nodes[i], nodes[j]) for i, j in zip(a, b)]
