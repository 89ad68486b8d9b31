"""Sirius flat topology (paper §4.1, Fig 5a)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CyclicSchedule
from repro.topology import SiriusTopology
from repro.topology.sirius import Uplink
from repro.units import GBPS


class TestFig5aTopology:
    """The paper's 4-node, 2-uplink, 4-grating example."""

    def setup_method(self):
        self.topo = SiriusTopology(4, 2)

    def test_shape(self):
        assert self.topo.uplinks_per_node == 2
        assert self.topo.n_gratings == 4
        assert self.topo.n_blocks == 2

    def test_each_uplink_on_distinct_grating(self):
        for node in range(4):
            gratings = [u.grating for u in self.topo.uplinks(node)]
            assert len(set(gratings)) == len(gratings)

    def test_uplinks_cover_disjoint_blocks(self):
        for node in range(4):
            blocks = [u.reachable_block for u in self.topo.uplinks(node)]
            assert sorted(blocks) == [0, 1]

    def test_full_reachability(self):
        self.topo.validate_full_reachability()

    def test_single_direct_path_per_pair(self):
        # §4.1: "the topology provides direct connectivity between any
        # pairs of nodes through only one of their uplink ports".
        for src in range(4):
            for dst in range(4):
                assert len(self.topo.paths_to(src, dst)) == 1


class TestWavelengthAddressing:
    def test_wavelength_is_destination_proxy(self):
        topo = SiriusTopology(16, 4)
        for src in range(16):
            for dst in range(16):
                for uplink, wavelength in topo.paths_to(src, dst):
                    grating = topo.gratings[uplink.grating]
                    out = grating.output_port(uplink.input_port, wavelength)
                    assert uplink.reachable_block * 4 + out == dst

    def test_wrong_block_rejected(self):
        topo = SiriusTopology(4, 2)
        uplink_to_block0 = topo.uplinks(0)[0]
        with pytest.raises(ValueError):
            topo.wavelength_for(uplink_to_block0, 3)  # node 3 is block 1


class TestScaleExamples:
    def test_paper_scale_25600_racks(self):
        # §4.1: 256 uplinks x 100-port gratings -> 25,600 racks.  (Full
        # construction would allocate 65,536 gratings; check arithmetic
        # on a divided-down version and the counts formula directly.)
        topo = SiriusTopology(256, 16)
        assert topo.uplinks_per_node == 16
        assert topo.n_gratings == 256

    def test_paper_scale_25600_racks_full_size(self):
        # The same deployment at full size: the wiring is closed form,
        # so construction stores none of its 6.5 M uplinks and the
        # contention check runs over 65,536 grating ids.
        topo = SiriusTopology(25600, 100)
        assert topo.uplinks_per_node == 256
        assert topo.n_gratings == 65_536
        assert len(topo.gratings) == 65_536
        schedule = CyclicSchedule(topo)
        schedule.verify_contention_free()
        rng = random.Random(25600)
        for _ in range(50):
            src, dst = rng.randrange(25600), rng.randrange(25600)
            paths = topo.paths_to(src, dst)
            assert len(paths) == 1
            for uplink, wavelength in paths:
                assert uplink.node == src
                assert schedule.destination(uplink, wavelength) == dst
                assert topo.uplinks(src)[uplink.index] == uplink

    def test_4096_racks_through_16_port_gratings(self):
        topo = SiriusTopology(4096, 16)
        assert topo.uplinks_per_node == 256  # the paper's 256 uplinks
        topo._check_node(4095)

    def test_multiplier_replicates_uplinks(self):
        base = SiriusTopology(16, 4)
        doubled = SiriusTopology(16, 4, uplink_multiplier=2)
        assert doubled.uplinks_per_node == 2 * base.uplinks_per_node
        assert len(doubled.paths_to(0, 9)) == 2

    def test_fractional_multiplier_rejected_at_topology_level(self):
        with pytest.raises(ValueError):
            SiriusTopology(16, 4, uplink_multiplier=1.5)

    def test_indivisible_grating_ports_rejected(self):
        with pytest.raises(ValueError):
            SiriusTopology(10, 4)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            SiriusTopology(1, 1)


class TestBandwidth:
    def test_node_uplink_bandwidth(self):
        topo = SiriusTopology(128, 16, link_rate_bps=50 * GBPS)
        assert topo.uplinks_per_node == 8
        assert topo.node_uplink_bandwidth_bps == pytest.approx(400 * GBPS)

    def test_bisection_is_half_aggregate(self):
        topo = SiriusTopology(128, 16)
        assert topo.bisection_bandwidth_bps == pytest.approx(
            128 * topo.node_uplink_bandwidth_bps / 2
        )


class TestFibreDelays:
    def test_default_zero_lengths(self):
        topo = SiriusTopology(4, 2)
        assert topo.propagation_delay(0) == 0.0

    def test_pair_delay_sums_both_sides(self):
        topo = SiriusTopology(4, 2, fibre_lengths_m=[100, 200, 300, 400])
        assert topo.pair_propagation_delay(0, 3) == pytest.approx(
            topo.propagation_delay(0) + topo.propagation_delay(3)
        )

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ValueError):
            SiriusTopology(4, 2, fibre_lengths_m=[1.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(
    blocks=st.integers(min_value=1, max_value=6),
    ports=st.integers(min_value=2, max_value=8),
    mult=st.integers(min_value=1, max_value=2),
)
def test_reachability_property(blocks, ports, mult):
    """Any valid (blocks x ports) topology reaches every node from every
    node, with exactly `mult` parallel paths."""
    n = blocks * ports
    if n < 2:
        return
    topo = SiriusTopology(n, ports, uplink_multiplier=mult)
    topo.validate_full_reachability()
    for src in (0, n - 1):
        for dst in (0, n // 2, n - 1):
            assert len(topo.paths_to(src, dst)) == mult


def _stored_uplinks(topo):
    """The per-node uplink lists the topology once built and kept."""
    per_node = []
    for node in range(topo.n_nodes):
        src_block, input_port = divmod(node, topo.grating_ports)
        uplinks = []
        index = 0
        for dst_block in range(topo.n_blocks):
            for replica in range(topo.links_per_block):
                uplinks.append(Uplink(
                    node=node,
                    index=index,
                    grating=topo._grating_id(src_block, dst_block, replica),
                    input_port=input_port,
                    reachable_block=dst_block,
                ))
                index += 1
        per_node.append(uplinks)
    return per_node


@settings(max_examples=25, deadline=None)
@given(
    blocks=st.integers(min_value=1, max_value=6),
    ports=st.integers(min_value=2, max_value=8),
    mult=st.integers(min_value=1, max_value=3),
)
def test_closed_form_matches_stored_uplinks(blocks, ports, mult):
    """Uplinks computed on demand equal the eagerly built ones, field
    for field and in order."""
    topo = SiriusTopology(blocks * ports, ports, uplink_multiplier=mult)
    stored = _stored_uplinks(topo)
    for node in range(topo.n_nodes):
        assert topo.uplinks(node) == stored[node]
    assert list(topo.iter_uplinks()) == [u for node in stored for u in node]
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            expected = [
                (uplink, topo.wavelength_for(uplink, dst))
                for uplink in stored[src]
                if uplink.reachable_block == topo.block_of(dst)
            ]
            assert topo.paths_to(src, dst) == expected


def test_gratings_view_indexes_like_a_list():
    topo = SiriusTopology(16, 4, uplink_multiplier=2)
    gratings = topo.gratings
    assert len(gratings) == topo.n_gratings == 32
    assert gratings[0] is gratings[31] is gratings[-32]
    assert gratings[0].n_ports == 4
    assert len(list(gratings)) == 32
    with pytest.raises(IndexError):
        gratings[32]
