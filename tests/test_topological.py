"""Tests for Algorithm 1 (irregular topological sprinting)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topological import SprintTopology, dark_nodes, sprint_order, sprint_region
from repro.util.directions import Direction


class TestSprintOrder:
    def test_paper_example_three_core(self):
        """Both metrics choose nodes 0, 1, 4 for a 3-core sprint."""
        assert sprint_order(4, 4)[:3] == [0, 1, 4]
        assert sprint_order(4, 4, metric="hamming")[:3] == [0, 1, 4]

    def test_paper_example_four_core(self):
        """Euclidean picks the diagonal node 5; Hamming picks node 2."""
        assert sprint_order(4, 4)[:4] == [0, 1, 4, 5]
        hamming = sprint_order(4, 4, metric="hamming")[:4]
        assert 2 in hamming and 5 not in hamming

    def test_full_order_is_permutation(self):
        order = sprint_order(4, 4)
        assert sorted(order) == list(range(16))

    def test_master_first(self):
        for master in (0, 5, 10, 15):
            assert sprint_order(4, 4, master)[0] == master

    def test_distances_nondecreasing(self):
        from repro.util.geometry import euclidean_sq, node_to_coord

        order = sprint_order(4, 4)
        origin = node_to_coord(0, 4)
        dists = [euclidean_sq(node_to_coord(n, 4), origin) for n in order]
        assert dists == sorted(dists)

    def test_ties_broken_by_index(self):
        order = sprint_order(4, 4)
        # nodes 1 and 4 are equidistant from node 0; 1 must come first
        assert order.index(1) < order.index(4)

    def test_invalid_master(self):
        with pytest.raises(ValueError):
            sprint_order(4, 4, master=16)

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            sprint_order(4, 4, metric="chebyshev")

    def test_region_prefix(self):
        assert sprint_region(4, 4, 8) == sprint_order(4, 4)[:8]

    def test_region_level_bounds(self):
        with pytest.raises(ValueError):
            sprint_region(4, 4, 0)
        with pytest.raises(ValueError):
            sprint_region(4, 4, 17)


class TestSprintTopology:
    def test_active_set_is_built_once(self):
        topo = SprintTopology.for_level(8, 8, 64)
        assert topo.active_set is topo.active_set
        assert topo.active_set == frozenset(topo.active_nodes)

    def test_pickles_load_with_or_without_the_cached_set(self):
        import pickle

        # a topology pickled before the set was built carries only its
        # four fields, like every pickle written before the set was cached
        bare = pickle.dumps(SprintTopology.for_level(4, 4, 8))
        assert b"active_set" not in bare
        topo = pickle.loads(bare)
        assert topo.is_active(9) and not topo.is_active(3)
        built = pickle.loads(pickle.dumps(topo))
        assert built == topo and built.active_set == topo.active_set

    def test_for_level(self):
        topo = SprintTopology.for_level(4, 4, 4)
        assert topo.active_nodes == (0, 1, 4, 5)
        assert topo.level == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SprintTopology(4, 4, ())
        with pytest.raises(ValueError):
            SprintTopology(4, 4, (0, 0))
        with pytest.raises(ValueError):
            SprintTopology(4, 4, (0, 99))
        with pytest.raises(ValueError):
            SprintTopology(4, 4, (1, 2), master=0)  # master not active

    def test_neighbor_edges(self):
        topo = SprintTopology.for_level(4, 4, 16)
        assert topo.neighbor(0, Direction.NORTH) is None
        assert topo.neighbor(0, Direction.WEST) is None
        assert topo.neighbor(0, Direction.EAST) == 1
        assert topo.neighbor(0, Direction.SOUTH) == 4
        assert topo.neighbor(15, Direction.EAST) is None

    def test_connectivity_bits(self):
        topo = SprintTopology.for_level(4, 4, 4)  # {0,1,4,5}
        bits = topo.connectivity_bits(0)
        assert bits[Direction.EAST] and bits[Direction.SOUTH]
        assert not bits[Direction.WEST] and not bits[Direction.NORTH]
        bits5 = topo.connectivity_bits(5)
        assert bits5[Direction.WEST] and bits5[Direction.NORTH]
        assert not bits5[Direction.EAST] and not bits5[Direction.SOUTH]

    def test_connected_requires_both_active(self):
        topo = SprintTopology.for_level(4, 4, 2)  # {0,1}
        assert topo.connected(0, Direction.EAST)
        assert not topo.connected(1, Direction.EAST)  # node 2 is dark
        assert not topo.connected(0, Direction.SOUTH)  # node 4 is dark

    def test_active_links_four_core(self):
        topo = SprintTopology.for_level(4, 4, 4)
        assert topo.active_links() == [(0, 1), (0, 4), (1, 5), (4, 5)]

    def test_dark_nodes_partition(self):
        topo = SprintTopology.for_level(4, 4, 7)
        dark = dark_nodes(topo)
        assert len(dark) == 9
        assert set(dark) | set(topo.active_nodes) == set(range(16))

    def test_every_level_convex_connected_4x4(self):
        """The paper's convexity claim, checked exhaustively on the 4x4 mesh."""
        for level in range(1, 17):
            topo = SprintTopology.for_level(4, 4, level)
            assert topo.is_convex(), f"level {level} not discretely convex"
            assert topo.is_orthogonally_convex(), f"level {level} not orthogonally convex"
            assert topo.is_connected(), f"level {level} not connected"

    def test_every_level_convex_connected_8x8(self):
        for level in range(1, 65, 3):
            topo = SprintTopology.for_level(8, 8, level)
            assert topo.is_orthogonally_convex()
            assert topo.is_connected()

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(2, 6),
        height=st.integers(2, 6),
        data=st.data(),
    )
    def test_property_regions_routable(self, width, height, data):
        """Any level from any master yields a connected, orthogonally
        convex region -- the precondition CDOR needs."""
        master = data.draw(st.integers(0, width * height - 1))
        level = data.draw(st.integers(1, width * height))
        topo = SprintTopology.for_level(width, height, level, master)
        assert topo.is_connected()
        assert topo.is_orthogonally_convex()

    def test_hamming_metric_region_valid(self):
        topo = SprintTopology.for_level(4, 4, 6, metric="hamming")
        assert topo.is_connected()
        assert len(topo.active_nodes) == 6
