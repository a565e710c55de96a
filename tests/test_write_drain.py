"""Tests for the posted-write queue: fill, watermark drain, backpressure.

The drain model the controller documents (PR 5 bugfix): writes park in
the posted-write queue at zero cost; occupancy reaching
``WRITE_DRAIN_HIGH`` starts a drain episode that books the queued
writes' bank/bus costs; the episode ends when occupancy decays to
``WRITE_DRAIN_LOW``; a full queue (``WRITE_QUEUE_ENTRIES``) stalls the
issuer until a burst completion frees an entry.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.system import System
from repro.cpu.workloads import profile
from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_3200
from repro.perf.organizations import BASELINE_ECC


def _occupancy(mc: MemoryController) -> int:
    return len(mc._write_queue) + len(mc._write_inflight)


class TestWriteQueueFill:
    def test_posted_writes_park_without_cost(self):
        """Below the high watermark, writes book no bank/bus time."""
        mc = MemoryController()
        for i in range(MemoryController.WRITE_DRAIN_HIGH - 1):
            accepted = mc.write(i * (1 << 14), 0.0)
            assert accepted == 0.0
        assert mc.writes == MemoryController.WRITE_DRAIN_HIGH - 1
        assert mc.write_drains == 0
        assert mc._bus_free_at == 0.0  # nothing issued
        assert mc.row_hits + mc.row_misses + mc.row_conflicts == 0
        # A read right now sees an idle bus and idle banks.
        clean = MemoryController().read(1 << 26, 0.0)
        assert mc.read(1 << 26, 0.0) == clean

    def test_occupancy_tracks_queue_plus_inflight(self):
        mc = MemoryController()
        for i in range(10):
            mc.write(i * (1 << 14), 0.0)
        assert _occupancy(mc) == 10


class TestWatermarkDrain:
    def test_high_watermark_starts_drain(self):
        mc = MemoryController()
        for i in range(MemoryController.WRITE_DRAIN_HIGH):
            mc.write(i * (1 << 14), 0.0)
        assert mc.write_drains == 1
        # Every parked write issued: bank/bus costs booked, row stats move.
        assert len(mc._write_queue) == 0
        assert len(mc._write_inflight) == MemoryController.WRITE_DRAIN_HIGH
        booked = mc.row_hits + mc.row_misses + mc.row_conflicts
        assert booked == MemoryController.WRITE_DRAIN_HIGH
        assert mc._bus_free_at >= MemoryController.WRITE_DRAIN_HIGH * DDR4_3200.tBL

    def test_drained_writes_delay_subsequent_reads(self):
        busy = MemoryController()
        idle = MemoryController()
        for i in range(MemoryController.WRITE_DRAIN_HIGH):
            busy.write(i * (1 << 14), 0.0)
        delayed = busy.read(1 << 26, 0.0)
        clean = idle.read(1 << 26, 0.0)
        assert delayed > clean

    def test_episode_persists_until_low_watermark(self):
        """While draining, newly arriving writes issue immediately; the
        episode (one ``write_drains`` increment) ends only after
        occupancy decays to the low watermark."""
        mc = MemoryController()
        high = MemoryController.WRITE_DRAIN_HIGH
        for i in range(high + 5):
            mc.write(i * (1 << 14), 0.0)
        # Still one episode: the extra writes joined the ongoing drain.
        assert mc.write_drains == 1
        assert len(mc._write_queue) == 0  # all issued immediately

    def test_new_episode_after_decay_below_low(self):
        mc = MemoryController()
        high = MemoryController.WRITE_DRAIN_HIGH
        for i in range(high):
            mc.write(i * (1 << 14), 0.0)
        assert mc.write_drains == 1
        # Far in the future every burst has completed: occupancy is 0,
        # below the low watermark, so the episode has ended.
        later = mc._bus_free_at + 1.0
        for i in range(high):
            mc.write((1 << 20) + i * (1 << 14), later)
        assert mc.write_drains == 2

    def test_low_watermark_ends_episode_lazily(self):
        mc = MemoryController()
        high = MemoryController.WRITE_DRAIN_HIGH
        low = MemoryController.WRITE_DRAIN_LOW
        for i in range(high):
            mc.write(i * (1 << 14), 0.0)
        assert mc._write_draining
        # One write arriving after enough bursts completed to fall to the
        # low watermark observes the episode end (it parks, unissued).
        completions = sorted(mc._write_inflight)
        t_low = completions[high - low - 1] + 1e-9
        mc.write(1 << 22, t_low)
        assert not mc._write_draining
        assert len(mc._write_queue) == 1


class TestBackpressure:
    def test_full_queue_stalls_the_issuer(self):
        """More writes than queue entries at one instant: acceptance is
        pushed past the completion that frees an entry."""
        mc = MemoryController()
        entries = MemoryController.WRITE_QUEUE_ENTRIES
        accepts = [mc.write(i * (1 << 14), 0.0) for i in range(entries + 8)]
        assert accepts[0] == 0.0
        assert max(accepts) > 0.0  # someone stalled
        # Acceptance times never precede issue time and never regress.
        assert all(b >= a for a, b in zip(accepts, accepts[1:]))

    def test_accept_time_is_at_least_now(self):
        mc = MemoryController()
        assert mc.write(0, 123.0) >= 123.0

    def test_constants_are_consistent(self):
        assert (
            MemoryController.WRITE_DRAIN_LOW
            < MemoryController.WRITE_DRAIN_HIGH
            < MemoryController.WRITE_QUEUE_ENTRIES
        )


class TestHierarchyIntegration:
    def test_writeback_stall_propagates_to_access_latency(self):
        """A full posted-write queue backpressures the miss that triggered
        the victim writeback."""
        h = CacheHierarchy(1, BASELINE_ECC, enable_prefetch=False)
        # Saturate the write queue directly.
        for i in range(MemoryController.WRITE_QUEUE_ENTRIES + 4):
            h.controller.write((1 << 40) + i * (1 << 14), 0.0)
        stall = h._dram_write(1 << 22, now_cpu=0.0)
        assert stall > 0.0

    def test_write_heavy_workload_drains(self):
        """End to end: a store-heavy run exercises the watermark path."""
        system = System(profile("lbm"), BASELINE_ECC, n_cores=2, seed=3)
        system.run(40_000, warmup_instructions=5_000)
        mc = system.hierarchy.controller
        assert mc.writes > 0
        assert mc.write_drains > 0


class TestInclusionViolation:
    def test_dirty_l1_victim_never_silently_dropped(self):
        """Back-invalidation races aside, a dirty L1 victim absent from
        the LLC must reach DRAM and be counted, not vanish."""
        h = CacheHierarchy(1, BASELINE_ECC, enable_prefetch=False)
        target = 0x10000
        line = target // 64
        h.access(0, target, True, 0.0)  # miss; fills LLC + L1 (dirty)
        # Break the inclusion invariant from outside: drop the LLC copy
        # without back-invalidating the L1.
        assert h.llc.invalidate(line) is not None
        writes_before = h.dram_writes
        # Evict the dirty line from its (4-way) L1 set.
        n_sets = h.l1[0].n_sets
        for k in range(1, 6):
            h.access(0, target + k * n_sets * 64, False, float(k))
        assert h.inclusion_violations == 1
        assert h.dram_writes > writes_before  # victim written back

    def test_normal_operation_never_violates_inclusion(self):
        system = System(profile("mcf"), BASELINE_ECC, n_cores=2, seed=1)
        system.run(30_000, warmup_instructions=5_000)
        assert system.hierarchy.inclusion_violations == 0
