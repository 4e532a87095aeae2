"""Unit tests for mesh and torus topologies."""

import pytest

from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh, Torus


class TestMesh:
    def test_node_count(self):
        assert Mesh(5).num_nodes == 25
        assert Mesh(3, 7).num_nodes == 21

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Mesh(0)

    def test_contains(self):
        m = Mesh(4)
        assert m.contains((0, 0)) and m.contains((3, 3))
        assert not m.contains((4, 0))
        assert not m.contains((0, -1))

    def test_interior_degree_four(self):
        m = Mesh(5)
        assert len(m.neighbors((2, 2))) == 4
        assert m.out_directions((2, 2)) == (
            Direction.N,
            Direction.E,
            Direction.S,
            Direction.W,
        )

    def test_corner_degree_two(self):
        m = Mesh(5)
        assert set(m.out_directions((0, 0))) == {Direction.N, Direction.E}
        assert set(m.out_directions((4, 4))) == {Direction.S, Direction.W}

    def test_boundary_neighbor_none(self):
        m = Mesh(4)
        assert m.neighbor((0, 0), Direction.W) is None
        assert m.neighbor((0, 0), Direction.S) is None
        assert m.neighbor((3, 3), Direction.E) is None

    def test_distance_is_manhattan(self):
        m = Mesh(10)
        assert m.distance((0, 0), (9, 9)) == 18
        assert m.distance((2, 5), (7, 1)) == 9
        assert m.distance((4, 4), (4, 4)) == 0

    def test_diameter(self):
        assert Mesh(8).diameter == 14
        assert Mesh(3, 5).diameter == 6

    def test_profitable_northeast(self):
        m = Mesh(8)
        assert m.profitable_directions((1, 1), (5, 6)) == frozenset(
            {Direction.N, Direction.E}
        )

    def test_profitable_single_axis(self):
        m = Mesh(8)
        assert m.profitable_directions((1, 1), (1, 6)) == frozenset({Direction.N})
        assert m.profitable_directions((5, 1), (1, 1)) == frozenset({Direction.W})

    def test_profitable_at_destination_empty(self):
        m = Mesh(8)
        assert m.profitable_directions((3, 3), (3, 3)) == frozenset()

    def test_profitable_moves_reduce_distance(self):
        m = Mesh(6)
        for src in m.nodes():
            for dst in [(0, 0), (5, 5), (2, 4)]:
                for d in m.profitable_directions(src, dst):
                    nb = m.neighbor(src, d)
                    assert nb is not None
                    assert m.distance(nb, dst) == m.distance(src, dst) - 1

    def test_displacement(self):
        m = Mesh(8)
        assert m.displacement((1, 1), (5, 6)) == (4, 5)
        assert m.displacement((5, 6), (1, 1)) == (-4, -5)


class TestTorus:
    def test_wraparound_links(self):
        t = Torus(5)
        assert t.neighbor((0, 0), Direction.W) == (4, 0)
        assert t.neighbor((4, 4), Direction.E) == (0, 4)
        assert t.neighbor((2, 4), Direction.N) == (2, 0)

    def test_every_node_degree_four(self):
        t = Torus(4)
        for node in t.nodes():
            assert len(t.neighbors(node)) == 4

    def test_distance_uses_shorter_way(self):
        t = Torus(8)
        assert t.distance((0, 0), (7, 0)) == 1
        assert t.distance((0, 0), (4, 0)) == 4
        assert t.distance((0, 0), (5, 0)) == 3
        assert t.distance((1, 1), (7, 7)) == 4

    def test_diameter(self):
        assert Torus(8).diameter == 8
        assert Torus(7).diameter == 6

    def test_profitable_wraps(self):
        t = Torus(8)
        # (7,0) -> (0,0): east through the wrap is the short way.
        assert t.profitable_directions((7, 0), (0, 0)) == frozenset({Direction.E})
        # (0,0) -> (6,0): west through the wrap.
        assert t.profitable_directions((0, 0), (6, 0)) == frozenset({Direction.W})

    def test_profitable_halfway_tie_includes_both(self):
        t = Torus(8)
        dirs = t.profitable_directions((0, 0), (4, 0))
        assert dirs == frozenset({Direction.E, Direction.W})

    def test_profitable_moves_reduce_distance(self):
        t = Torus(6)
        for src in t.nodes():
            for dst in [(0, 0), (5, 5), (2, 4)]:
                for d in t.profitable_directions(src, dst):
                    nb = t.neighbor(src, d)
                    assert t.distance(nb, dst) == t.distance(src, dst) - 1

    def test_displacement_halfway_positive(self):
        t = Torus(8)
        dx, dy = t.displacement((0, 0), (4, 0))
        assert (dx, dy) == (4, 0)

    def test_axis_delta_halfway_positive_every_even_size(self):
        """Regression for the halfway tie-break on even sizes.

        The per-axis delta once special-cased ``delta == size // 2`` in a
        dead ``elif`` branch; the simplification must keep reporting the
        tie as +size/2 (never -size/2) for every even size and origin."""
        for size in (2, 4, 6, 8, 10):
            half = size // 2
            for src in range(size):
                delta = Torus(size).displacement((src, 0), ((src + half) % size, 0))[0]
                assert delta == half

    def test_axis_delta_range_and_inverse(self):
        for size in (4, 5, 8):
            for src in range(size):
                for dst in range(size):
                    delta = Torus(size).displacement((src, 0), (dst, 0))[0]
                    assert -size // 2 < delta <= size // 2
                    assert (src + delta) % size == dst

    def test_halfway_on_both_axes(self):
        t = Torus(8)
        assert t.displacement((3, 5), (7, 1)) == (4, 4)
        assert t.distance((3, 5), (7, 1)) == 8
        assert t.profitable_directions((3, 5), (7, 1)) == frozenset(
            {Direction.N, Direction.E, Direction.S, Direction.W}
        )

    def test_submesh_center_matches_mesh(self):
        # Inside a small central window, torus geometry agrees with the mesh.
        t, m = Torus(16), Mesh(16)
        pts = [(6, 6), (7, 9), (9, 7), (8, 8)]
        for a in pts:
            for b in pts:
                assert t.distance(a, b) == m.distance(a, b)
                assert t.profitable_directions(a, b) == m.profitable_directions(a, b)
