"""Tests for the DRAM timing model (timing, mapping, banks, controller)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.controller import MemoryController, map_address
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE, DDR4_3200


def _coords(address):
    """``(rank, bank, row)`` of the controller's address map."""
    packed = map_address(address)
    return packed & 1, (packed >> 1) & 15, packed >> 6


def _address(rank, bank, row):
    """A byte address the map sends to ``(rank, bank, row)``, column 0."""
    h = 0
    fold = row
    while fold:
        h ^= fold & 15
        fold >>= 4
    return ((row << 5) | (rank << 4) | (bank ^ h)) << 13


def _row_results(mc):
    return mc.row_hits, mc.row_misses, mc.row_conflicts


class TestTiming:
    def test_derived_latencies_ordered(self):
        t = DDR4_3200
        assert t.row_hit_cycles < t.row_miss_cycles < t.row_conflict_cycles

    def test_ddr4_3200_values(self):
        assert DDR4_3200.tCL == 22
        assert DDR4_3200.row_hit_cycles == 26
        assert DDR4_3200.row_miss_cycles == 48
        assert DDR4_3200.row_conflict_cycles == 70

    def test_cpu_ratio(self):
        assert CPU_CYCLES_PER_MEM_CYCLE == 2  # 3.2GHz core / 1.6GHz bus


class TestAddressMapper:
    def test_consecutive_lines_walk_the_row(self):
        assert _coords(0) == _coords(64)
        # The next column of the open row: a row-buffer hit.
        mc = MemoryController()
        first = mc.read(0, 0.0)
        mc.read(64, first)
        assert _row_results(mc) == (1, 1, 0)

    def test_row_buffer_spans_128_lines(self):
        rank_a, bank_a, row_a = _coords(0)
        rank_b, bank_b, row_b = _coords(127 * 64)
        rank_c, bank_c, row_c = _coords(128 * 64)
        assert bank_a == bank_b and row_a == row_b
        assert (bank_c, row_c) != (bank_a, row_a) or rank_c != rank_a

    @given(st.integers(0, (1 << 40) - 1), st.integers(0, (1 << 40) - 1))
    @settings(max_examples=60)
    def test_mapping_is_injective(self, addr_a, addr_b):
        line_a, line_b = addr_a // 64, addr_b // 64
        # One device image: 128 columns x 16 banks x 2 ranks x 65536 rows.
        lines = 128 * 16 * 2 * 65536
        if line_a % lines != line_b % lines:
            # The column is the line's slot in the 128-line row buffer.
            a = (map_address(addr_a), line_a % 128)
            b = (map_address(addr_b), line_b % 128)
            # Distinct lines within one device image map to distinct coords.
            if line_a != line_b and line_a < 2 ** 28 and line_b < 2 ** 28:
                assert a != b

    def test_bank_hash_decorrelates_regions(self):
        """Streams at large address offsets must not share bank sequences."""
        banks_a = [_coords(i * 64)[1] for i in range(0, 4096, 128)]
        banks_b = [_coords((1 << 34) + i * 64)[1] for i in range(0, 4096, 128)]
        assert banks_a != banks_b


class TestBank:
    def test_hit_miss_conflict_sequence(self):
        mc = MemoryController()
        row5 = _address(0, 3, 5)
        t1 = mc.read(row5, 0.0)
        assert _row_results(mc) == (0, 1, 0)  # miss
        t2 = mc.read(row5 + 64, t1)
        assert _row_results(mc) == (1, 1, 0)  # hit
        t3 = mc.read(_address(0, 3, 9), t2)
        assert _row_results(mc) == (1, 1, 1)  # conflict
        assert t1 < t2 < t3

    def test_conflict_respects_tras(self):
        mc = MemoryController()
        mc.read(_address(0, 3, 1), 0.0)
        # Immediately conflicting: precharge cannot happen before tRAS.
        data_at = mc.read(_address(0, 3, 2), 0.0)
        assert _row_results(mc) == (0, 1, 1)
        assert data_at >= DDR4_3200.tRAS + DDR4_3200.row_conflict_cycles

    def test_precharge_closes_row(self):
        """Refresh precharges every bank: the same row misses again."""
        mc = MemoryController()
        mc.read(_address(0, 3, 1), 0.0)
        mc.read(_address(0, 3, 1), float(DDR4_3200.tREFI) + 100.0)
        assert mc.refreshes == 1
        assert _row_results(mc) == (0, 2, 0)


class TestController:
    def test_read_latency_floor(self):
        mc = MemoryController()
        assert mc.read(0, 0.0) >= DDR4_3200.row_miss_cycles

    def test_row_hit_after_first_access(self):
        mc = MemoryController()
        first = mc.read(0, 0.0)
        hits = mc.row_hits
        mc.read(64, first)
        assert mc.row_hits == hits + 1

    def test_bus_serializes_concurrent_reads(self):
        mc = MemoryController()
        # Two reads to different banks at the same instant: bursts cannot
        # overlap on the shared data bus.
        a = mc.read(0, 0.0)
        b = mc.read(1 << 20, 0.0)
        assert abs(a - b) >= DDR4_3200.tBL

    def test_read_queue_backpressure(self):
        mc = MemoryController()
        completions = [mc.read(i * (1 << 20), 0.0) for i in range(80)]
        # More requests than queue entries at one instant: the later ones
        # must be delayed past the earliest completions.
        assert completions[-1] > completions[0]

    def test_writes_consume_bandwidth(self):
        busy = MemoryController()
        idle = MemoryController()
        for i in range(64):
            busy.write(i * (1 << 14), 0.0)
        delayed = busy.read(1 << 26, 0.0)
        clean = idle.read(1 << 26, 0.0)
        assert delayed > clean

    def test_refresh_blocks_banks(self):
        mc = MemoryController()
        t = DDR4_3200
        mc.read(0, 0.0)
        ready = mc.read(64, float(t.tREFI) + 1.0)
        assert ready >= t.tREFI + t.tRFC
        assert mc.refreshes >= 1

    def test_stats_accumulate(self):
        mc = MemoryController()
        now = 0.0
        for i in range(10):
            now = mc.read(i * 64, now)
        assert mc.reads == 10
        # Sequential lines hit the row.
        assert mc.row_hits / sum(_row_results(mc)) > 0.5
        assert mc.total_read_latency / mc.reads > 0
