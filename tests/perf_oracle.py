"""The fast perf engine's scalar passes, kept as the batched ones' oracle.

``tests/test_perf_batched.py`` pins the production passes of
:mod:`repro.perf.fastpath` to these: the batched content replay to the
exact one-op-at-a-time :func:`repro.perf.fastpath._scalar_replay` (also
the production fallback, so it stays in ``src/``), and the event-table
timing tick :func:`repro.perf.fastpath._timing_batched` to the original
per-event heap walk :func:`_timing_scalar` below, which nothing under
``src/`` runs. Both helpers take any controller with the production
call shape, so ``tests/dram_oracle.py``'s object-model controller can
drive the same walks.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import CoreConfig
from repro.cpu.system import SystemResult
from repro.dram.controller import MemoryController
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE
from repro.perf import fastpath
from repro.perf.fastpath import (
    A_DEMAND_READ,
    A_PF_READ,
    A_VICTIM_WRITE,
    _ContentResult,
    _CoreEvents,
)


def scalar_content_pass(
    prof, n_cores: int, seed: int, instructions_per_core: int, warmup_instructions: int
) -> Optional[_ContentResult]:
    """The content pass on the exact scalar replay (never memoized)."""
    merged = fastpath._merge_ops(
        prof, n_cores, seed, instructions_per_core, warmup_instructions
    )
    if merged is None:
        return None
    return fastpath._content_result(merged, fastpath._scalar_replay(merged))


def timing_pass(
    content: _ContentResult,
    prof,
    organization,
    config,
    controller=None,
    scalar: bool = False,
    diagnostics: Optional[dict] = None,
) -> SystemResult:
    """``fastpath._timing_pass`` with a chosen controller and walk.

    ``controller`` defaults to the production controller over the
    content's shared coordinate memo; ``scalar`` selects the per-event
    heap walk instead of the event-table tick.
    """
    if controller is None:
        controller = MemoryController(content.coords)
    walk = (_timing_scalar if scalar else fastpath._timing_batched)(
        content, organization, controller
    )
    return fastpath._timing_result(
        content, prof, organization, config, controller, walk, diagnostics
    )


class _CoreTiming:
    """One core's clock in the sparse timing pass.

    ``check_time[i] + correction`` is the core's clock at op ``i``'s
    access; ``correction`` accumulates DRAM latencies of serializing
    loads and ROB-window stalls, each resolved at the op where it lands
    (stalls at an outstanding load's precomputed window-crossing op).
    """

    __slots__ = (
        "check_time",
        "instr",
        "events",
        "event_pos",
        "correction",
        "outstanding",
        "warm_op",
        "start_cycle",
        "marked",
        "n_ops",
    )

    def __init__(self, check_time, instr, events, warm_op, premarked):
        self.check_time = check_time
        self.instr = instr
        self.events = events
        self.event_pos = 0
        self.correction = 0.0
        self.outstanding: deque = deque()
        self.warm_op = warm_op
        self.start_cycle = 0.0
        # With no warm-up the reference never reassigns start_cycles;
        # otherwise the mark lands at the first at-quota op (even op 0).
        self.marked = premarked
        self.n_ops = len(check_time)

    def advance(self, upto: int) -> None:
        """Resolve window stalls (and the warm-up mark) through op ``upto``."""
        out = self.outstanding
        check = self.check_time
        while out and out[0][0] <= upto:
            crossing, completion = out.popleft()
            if not self.marked and self.warm_op < crossing:
                # The mark precedes this stall point (stalls at the mark
                # op itself apply first: drain happens before marking).
                self.start_cycle = check[self.warm_op] + self.correction
                self.marked = True
            at = check[crossing] + self.correction
            if completion > at:
                self.correction += completion - at
        if not self.marked and self.warm_op <= upto:
            self.start_cycle = check[self.warm_op] + self.correction
            self.marked = True

    def next_event_time(self) -> Optional[float]:
        """Clock of the next controller event, or None when drained."""
        if self.event_pos < len(self.events):
            op = self.events[self.event_pos][0]
            self.advance(op)
            return self.check_time[op] + self.correction
        self.advance(self.n_ops - 1)
        return None


def _legacy_events(table: _CoreEvents) -> List[Tuple[int, int, List[int]]]:
    """A :class:`_CoreEvents` table as the scalar tick's legacy tuples."""
    off = table.act_off
    actions = table.actions
    return [
        (table.op[j], table.pos[j], actions[off[j] : off[j + 1]])
        for j in range(table.n_ev)
    ]


def _timing_scalar(content: _ContentResult, organization, controller):
    """The original per-event heap walk (the event-table tick's oracle).

    Runs only in tests, as the batched tick's equivalence oracle: both
    walks must produce bit-identical results over the same content and
    controller (``tests/test_perf_batched.py`` pins it).
    """
    cpi = content.base_cpi
    rob = CoreConfig().rob_entries
    l1_llc_lat = float(
        CacheHierarchy.L1_HIT_CYCLES + CacheHierarchy.LLC_HIT_CYCLES
    )
    tail = organization.read_tail_cpu_cycles
    extra_read = organization.extra_read_per_read
    extra_write = organization.extra_write_per_writeback
    meta_address = organization.metadata_address
    cpm = CPU_CYCLES_PER_MEM_CYCLE

    dram_reads = 0
    dram_writes = 0
    backpressure_stalls = 0
    # Metadata MSHR coalescing / write-queue merging, exactly as in
    # CacheHierarchy (_meta_read / _dram_write).
    meta_inflight: "OrderedDict[int, float]" = OrderedDict()
    meta_recent: "OrderedDict[int, float]" = OrderedDict()
    merge_window = 1000.0  # CacheHierarchy._META_WRITE_MERGE_WINDOW

    premarked = content.no_warmup
    events = [_legacy_events(table) for table in content.events]
    cores = [
        _CoreTiming(
            content.check_time[c],
            content.instr[c],
            events[c],
            content.warm_op[c],
            premarked,
        )
        for c in range(content.n_cores)
    ]

    def snapshot() -> Dict[str, float]:
        return {
            "dram_reads": dram_reads,
            "dram_writes": dram_writes,
            "row_hits": controller.row_hits,
            "row_misses": controller.row_misses,
            "row_conflicts": controller.row_conflicts,
            "reads": controller.reads,
            "read_latency": controller.total_read_latency,
        }

    warmup_events = sum(table.n_warm for table in content.events)
    base = snapshot() if warmup_events == 0 else None

    heap: List[Tuple[float, int]] = []
    for c, core in enumerate(cores):
        t = core.next_event_time()
        if t is not None:
            heap.append((t, c))
    heapq.heapify(heap)

    cread = controller.read
    cwrite = controller.write
    heappush = heapq.heappush
    heappop = heapq.heappop

    while heap:
        now_cpu, c = heappop(heap)
        core = cores[c]
        op, merged_pos, actions = core.events[core.event_pos]
        core.event_pos += 1
        now_mem = now_cpu / cpm
        demand_latency = 0.0
        stall = 0.0
        for packed in actions:
            code = packed & 7
            address = (packed >> 3) << 6
            if code == A_DEMAND_READ or code == A_PF_READ:
                ready = cread(address, now_mem)
                dram_reads += 1
                if extra_read:
                    maddr = meta_address(address)
                    completion = meta_inflight.get(maddr)
                    if completion is None or completion <= now_mem:
                        completion = cread(maddr, now_mem)
                        dram_reads += 1
                        meta_inflight[maddr] = completion
                        meta_inflight.move_to_end(maddr)
                        while len(meta_inflight) > 8:
                            meta_inflight.popitem(last=False)
                    ready = max(ready, completion)
                if code == A_DEMAND_READ:
                    demand_latency = (ready - now_mem) * cpm + tail
            else:  # the three writeback flavours
                accepted = cwrite(address, now_mem)
                dram_writes += 1
                if extra_write:
                    maddr = meta_address(address)
                    last = meta_recent.get(maddr)
                    if last is None or now_mem - last >= merge_window:
                        accepted = max(accepted, cwrite(maddr, now_mem))
                        dram_writes += 1
                        meta_recent[maddr] = now_mem
                        meta_recent.move_to_end(maddr)
                        while len(meta_recent) > 32:
                            meta_recent.popitem(last=False)
                if code == A_VICTIM_WRITE:
                    stall = (accepted - now_mem) * cpm
                    if stall:
                        backpressure_stalls += 1
        if merged_pos < content.boundary_pos:
            warmup_events -= 1
            if warmup_events == 0:
                base = snapshot()
        # The op's own timing (stores discard their latency entirely; the
        # demand-victim backpressure stall rides the load's latency).
        if not content.is_write[c][op] and demand_latency:
            latency = l1_llc_lat + demand_latency + stall
            if content.serializing[c][op]:
                core.correction += latency
            else:
                crossing = bisect_left(core.instr, core.instr[op] + rob)
                if crossing < core.n_ops:
                    core.outstanding.append((crossing, now_cpu + cpi + latency))
        # Inlined next_event_time: the common case (no pending stalls,
        # warm-up mark placed) skips both method calls.
        pos = core.event_pos
        evs = core.events
        if pos < len(evs):
            nop = evs[pos][0]
            if core.outstanding or not core.marked:
                core.advance(nop)
            heappush(heap, (core.check_time[nop] + core.correction, c))
        elif core.outstanding or not core.marked:
            core.advance(core.n_ops - 1)

    if base is None:
        base = snapshot()
    measured = []
    for c, core in enumerate(cores):
        # next_event_time already drained the event list and resolved all
        # remaining stalls/marks through the final op.
        measured.append(content.final_time[c] + core.correction - core.start_cycle)
    return measured, base, snapshot(), backpressure_stalls


