"""Static cyclic schedule and slot timing (paper §4.2, Fig 5b, §4.5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CyclicSchedule, SlotTiming
from repro.topology import SiriusTopology
from repro.units import GBPS, NANOSECOND


class TestSlotTiming:
    def test_paper_default_slot(self):
        # 10 ns guardband at 10% -> 100 ns slot, 90 ns transmission.
        timing = SlotTiming()
        assert timing.slot_duration_s == pytest.approx(100 * NANOSECOND)
        assert timing.transmission_time_s == pytest.approx(90 * NANOSECOND)

    def test_paper_cell_size_562_bytes(self):
        # §7: 90 ns at 50 Gb/s is a 562-byte cell.
        assert SlotTiming().cell_bytes == pytest.approx(562.5)

    def test_guardband_sweep_scales_slot(self):
        # Fig 11: guardband fixed at 10% of the slot.
        for guard_ns in (1, 5, 10, 20, 40):
            timing = SlotTiming(guardband_s=guard_ns * NANOSECOND)
            assert timing.slot_duration_s == pytest.approx(
                10 * guard_ns * NANOSECOND
            )
            assert timing.guardband_s / timing.slot_duration_s == (
                pytest.approx(0.1)
            )

    def test_payload_below_cell_size(self):
        timing = SlotTiming(header_bytes=50)
        assert timing.payload_bits == timing.cell_bits - 400

    def test_efficiency_below_guard_complement(self):
        timing = SlotTiming()
        assert 0.8 < timing.efficiency < 0.9

    def test_header_cannot_eat_cell(self):
        with pytest.raises(ValueError):
            SlotTiming(guardband_s=0.5 * NANOSECOND, header_bytes=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotTiming(guardband_s=0.0)
        with pytest.raises(ValueError):
            SlotTiming(guard_fraction=1.5)
        with pytest.raises(ValueError):
            SlotTiming(link_rate_bps=0)


class TestFig5bSchedule:
    """The 4-node example schedule."""

    def setup_method(self):
        self.schedule = CyclicSchedule(SiriusTopology(4, 2))

    def test_epoch_is_two_slots(self):
        assert self.schedule.slots_per_epoch == 2

    def test_all_uplinks_share_wavelength_per_slot(self):
        assert self.schedule.wavelength(0) == 0
        assert self.schedule.wavelength(1) == 1
        assert self.schedule.wavelength(2) == 0  # cyclic

    def test_contention_free(self):
        self.schedule.verify_contention_free()

    def test_full_coverage(self):
        self.schedule.verify_full_coverage()

    def test_each_pair_connected_once_per_epoch(self):
        seen = {}
        for slot in range(self.schedule.slots_per_epoch):
            for src, dst, _uplink in self.schedule.connections(slot):
                seen[(src, dst)] = seen.get((src, dst), 0) + 1
        for src in range(4):
            for dst in range(4):
                assert seen[(src, dst)] == 1

    def test_table_has_row_per_uplink(self):
        table = self.schedule.table()
        assert len(table) == 8  # 4 nodes x 2 uplinks
        for row in table:
            assert "slot0" in row and "slot1" in row


class TestTiming:
    def test_paper_epoch_example(self):
        # §4.2: 100 ns slots, 16 nodes per grating -> 1.6 us epoch.
        topo = SiriusTopology(128, 16)
        schedule = CyclicSchedule(topo)
        assert schedule.epoch_duration_s == pytest.approx(1.6e-6)

    def test_epoch_of(self):
        schedule = CyclicSchedule(SiriusTopology(128, 16))
        assert schedule.epoch_of(0.0) == 0
        assert schedule.epoch_of(1.7e-6) == 1
        with pytest.raises(ValueError):
            schedule.epoch_of(-1.0)

    def test_timing_inherits_topology_link_rate(self):
        topo = SiriusTopology(4, 2, link_rate_bps=100 * GBPS)
        schedule = CyclicSchedule(topo)
        assert schedule.timing.link_rate_bps == 100 * GBPS


class TestSlotLookup:
    def test_slot_for_inverts_destination(self):
        topo = SiriusTopology(16, 4)
        schedule = CyclicSchedule(topo)
        for uplink in topo.iter_uplinks():
            for dst in topo.reachable_nodes(uplink):
                slot = schedule.slot_for(uplink, dst)
                assert schedule.destination(uplink, slot) == dst

    def test_pair_slots_count_equals_multiplier(self):
        topo = SiriusTopology(16, 4, uplink_multiplier=2)
        schedule = CyclicSchedule(topo)
        assert len(schedule.pair_slots(0, 9)) == 2

    def test_negative_slot_rejected(self):
        topo = SiriusTopology(4, 2)
        schedule = CyclicSchedule(topo)
        with pytest.raises(ValueError):
            schedule.wavelength(-1)
        with pytest.raises(ValueError):
            schedule.destination(topo.uplinks(0)[0], -1)


@settings(max_examples=20, deadline=None)
@given(blocks=st.integers(1, 4), ports=st.integers(2, 8),
       mult=st.integers(1, 2))
def test_schedule_invariants_property(blocks, ports, mult):
    """Every valid schedule is contention-free with exact coverage."""
    topo = SiriusTopology(blocks * ports, ports, uplink_multiplier=mult)
    schedule = CyclicSchedule(topo)
    schedule.verify_contention_free()
    schedule.verify_full_coverage()


class _ReplicaBlind(SiriusTopology):
    """Miswired: every replica of a block pair shares one grating."""

    def _grating_id(self, src_block, dst_block, replica):
        return super()._grating_id(src_block, dst_block, 0)


class _SourceBlind(SiriusTopology):
    """Miswired: every source block shares the gratings of block 0."""

    def _grating_id(self, src_block, dst_block, replica):
        return super()._grating_id(0, dst_block, replica)


def _walk_finds_contention(topo):
    """Reference: scan every uplink for a shared (grating, input port)."""
    seen = set()
    for uplink in topo.iter_uplinks():
        key = (uplink.grating, uplink.input_port)
        if key in seen:
            return True
        seen.add(key)
    return False


@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(1, 4), ports=st.integers(2, 6),
       mult=st.integers(1, 3),
       wiring=st.sampled_from([SiriusTopology, _ReplicaBlind, _SourceBlind]))
def test_contention_check_matches_uplink_walk(blocks, ports, mult, wiring):
    """The grating-id check fails exactly where the uplink walk finds
    two uplinks on one (grating, input port)."""
    topo = wiring(blocks * ports, ports, uplink_multiplier=mult)
    broken = _walk_finds_contention(topo)
    assert broken == (
        (wiring is _ReplicaBlind and mult > 1)
        or (wiring is _SourceBlind and blocks > 1)
    )
    schedule = CyclicSchedule(topo)
    if broken:
        with pytest.raises(AssertionError, match="grating .* is wired to"):
            schedule.verify_contention_free()
    else:
        schedule.verify_contention_free()
