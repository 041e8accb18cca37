"""Tests for Cartesian decompositions."""

import pytest

from repro.apps.decomp import CartesianDecomposition
from repro.apps.metatrace.config import interleaved_x_coords
from repro.errors import ConfigurationError


class TestBuild:
    def test_default_x_major_order(self):
        d = CartesianDecomposition.build((2, 2, 1))
        assert d.coord(0) == (0, 0, 0)
        assert d.coord(1) == (0, 1, 0)
        assert d.coord(2) == (1, 0, 0)
        assert d.size == 4

    def test_explicit_coords(self):
        coords = [(1, 0, 0), (0, 0, 0)]
        d = CartesianDecomposition.build((2, 1, 1), coords)
        assert d.coord(0) == (1, 0, 0)
        assert d.coord(1) == (0, 0, 0)

    def test_rejects_wrong_count(self):
        with pytest.raises(ConfigurationError):
            CartesianDecomposition.build((2, 2, 2), [(0, 0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            CartesianDecomposition.build((2, 1, 1), [(0, 0, 0), (0, 0, 0)])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ConfigurationError):
            CartesianDecomposition.build((2, 1, 1), [(0, 0, 0), (5, 0, 0)])

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigurationError):
            CartesianDecomposition.build((0, 1, 1), [])


class TestNeighbors:
    def test_interior_rank_has_six_neighbors(self):
        d = CartesianDecomposition.build((3, 3, 3))
        center = d.coords.index((1, 1, 1))
        assert len(d.neighbors(center)) == 6

    def test_corner_rank_has_three_neighbors(self):
        d = CartesianDecomposition.build((3, 3, 3))
        corner = d.coords.index((0, 0, 0))
        assert len(d.neighbors(corner)) == 3

    def test_neighborhood_is_symmetric(self):
        d = CartesianDecomposition.build((4, 2, 2))
        for rank in range(d.size):
            for _dim, _direction, other in d.neighbors(rank):
                back = [n for _, _, n in d.neighbors(other)]
                assert rank in back

    def test_neighbors_differ_by_one_step(self):
        d = CartesianDecomposition.build((4, 2, 2))
        for rank in range(d.size):
            mine = d.coord(rank)
            for dim, direction, other in d.neighbors(rank):
                theirs = d.coord(other)
                delta = [t - m for t, m in zip(theirs, mine)]
                assert delta[dim] == direction
                assert sum(abs(x) for x in delta) == 1

    def test_rank_bounds(self):
        d = CartesianDecomposition.build((2, 1, 1))
        with pytest.raises(ConfigurationError):
            d.coord(5)


class TestInterleavedMapping:
    def test_first_block_on_even_planes(self):
        coords = interleaved_x_coords((4, 2, 2), 8)
        for i in range(8):
            assert coords[i][0] in (0, 2)
        for i in range(8, 16):
            assert coords[i][0] in (1, 3)

    def test_every_first_block_rank_has_second_block_x_neighbor(self):
        """The property that makes Experiment 1's Late Sender *grid*."""
        coords = interleaved_x_coords((4, 2, 2), 8)
        d = CartesianDecomposition.build((4, 2, 2), coords)
        for rank in range(8):  # FH-BRS block
            neighbor_blocks = {
                other >= 8
                for dim, _, other in d.neighbors(rank)
                if dim == 0
            }
            assert True in neighbor_blocks

    def test_rejects_odd_x(self):
        with pytest.raises(ConfigurationError):
            interleaved_x_coords((3, 2, 2), 6)

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ConfigurationError):
            interleaved_x_coords((4, 2, 2), 6)
