"""Tests for activation-rate constraints (tRRD/tFAW) and derived budgets."""


from repro.dram.controller import MemoryController
from repro.dram.timing import (
    DDR4_3200,
    max_activations_per_refresh_window,
)
from tests.test_dram import _address


class TestTimingDerivations:
    def test_trc(self):
        assert DDR4_3200.tRC == DDR4_3200.tRAS + DDR4_3200.tRP == 74

    def test_activation_budget_matches_paper_scale(self):
        """~1.4M activations per 64ms window at DDR4-3200 (the hammer
        budget the Row-Hammer literature quotes)."""
        budget = max_activations_per_refresh_window()
        assert 1_200_000 < budget < 1_500_000

    def test_budget_scales_with_window(self):
        full = max_activations_per_refresh_window(window_ms=64.0)
        half = max_activations_per_refresh_window(window_ms=32.0)
        assert abs(half * 2 - full) <= 2


class TestActivationPacing:
    def test_trrd_spaces_back_to_back_acts(self):
        mc = MemoryController()
        # Two row misses in different banks, same rank, same instant.
        a = mc.read(0, 0.0)
        b = mc.read(1 << 13, 0.0)  # next bank, same rank (row region)
        # The second ACT cannot start before tRRD after the first.
        assert b >= a - DDR4_3200.tBL + DDR4_3200.tRRD

    def test_tfaw_limits_burst_of_activations(self):
        mc = MemoryController()
        times = []
        for bank in range(8):
            mc.read(_address(0, bank, 0), 0.0)  # a miss: ACT at the floor
            times.append(mc._rank_acts[0][-1])
        # The 5th ACT waits for the tFAW window of the 1st.
        assert times[4] >= times[0] + DDR4_3200.tFAW
        assert times[7] >= times[3] + DDR4_3200.tFAW

    def test_row_hits_not_paced(self):
        mc = MemoryController()
        now = mc.read(0, 0.0)
        for i in range(1, 6):
            now = mc.read(i * 64, now)
        assert (mc.row_hits, mc.row_misses, mc.row_conflicts) == (5, 1, 0)

    def test_ranks_paced_independently(self):
        mc = MemoryController()
        for bank in range(5):
            mc.read(_address(0, bank, 0), 0.0)
        # Rank 1 is unaffected by rank 0's tFAW window.
        mc.read(_address(1, 0, 0), 0.0)
        assert mc._rank_acts[1] == [0.0]

    def test_pacing_measured_from_actual_act_issue_time(self):
        """A conflicting bank issues its ACT only after tRAS + tRP; the
        rank's tRRD window must be measured from that actual instant, not
        from the (much earlier) admitted time."""
        t = DDR4_3200
        mc = MemoryController()
        mc.read(_address(0, 0, 0), 0.0)  # miss: ACT at 0
        # Same bank, other row: PRE waits for tRAS, ACT after tRP.
        mc.read(_address(0, 0, 1), 0.0)
        first, conflict = mc._rank_acts[0]
        assert first == 0.0
        # The conflicting ACT issued after precharge completed, not at the
        # admitted tRRD floor the old model recorded.
        assert conflict == t.tRAS + t.tRP
        # A third ACT in another bank of the same rank is paced from it.
        mc.read(_address(0, 1, 0), 0.0)
        assert mc._rank_acts[0][-1] == conflict + t.tRRD
        assert mc._rank_acts[0][-1] >= t.tRAS + t.tRP + t.tRRD
