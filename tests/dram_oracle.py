"""The object-model DRAM controller: the production controller's oracle.

:class:`repro.dram.controller.MemoryController` is this model rewritten
on plain dicts, lists and floats. The A/B properties in
``tests/test_perf_fastpath.py`` hold the production class to this one
bit for bit: every response, every counter, the address map, and the
whole fast-engine timing pass. Nothing under ``src/`` imports it.

The classes are the object-model ``repro.dram`` modules —
:class:`DramAddress` / :class:`AddressMapper`, :class:`Bank` and
:class:`MemResponse` / :class:`ControllerStats` /
:class:`MemoryController` — cut to the one configuration production
runs: Table II timing, the default address map, the open-page policy
and refresh always on. :class:`TimingAdapter` puts the production call
shape (``read`` returning a time, counters as attributes) in front of
the oracle controller.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.timing import DDR4_3200, DramTiming

# -- address map --------------------------------------------------------------


@dataclass(frozen=True)
class DramAddress:
    rank: int
    bank: int
    row: int
    col: int  #: column address at cache-line granularity


class AddressMapper:
    """Bit-sliced address mapping for a single-channel system."""

    def __init__(
        self,
        line_bytes: int = 64,
        ranks: int = 2,
        banks: int = 16,
        row_buffer_bytes: int = 8192,
        rows: int = 65536,
    ):
        self.line_bytes = line_bytes
        self.ranks = ranks
        self.banks = banks
        self.rows = rows
        self.cols_per_row = row_buffer_bytes // line_bytes

    def map(self, address: int) -> DramAddress:
        """Physical byte address -> (rank, bank, row, column).

        The bank index is XOR-hashed with the folded row bits (permutation-
        based page interleaving, as real controllers do) so that strided
        streams from different address regions do not march across banks in
        lockstep. The hash is injective given (row, bank), so no two
        addresses alias.
        """
        banks = self.banks
        line, col = divmod(address // self.line_bytes, self.cols_per_row)
        line, bank = divmod(line, banks)
        line, rank = divmod(line, self.ranks)
        row = line % self.rows
        fold = line  # row plus any higher (region/core) bits
        h = 0
        while fold:
            fold, r = divmod(fold, banks)
            h ^= r
        return DramAddress(rank=rank, bank=(bank ^ h) % banks, row=row, col=col)


# -- bank ----------------------------------------------------------------------


class Bank:
    """Tracks the open row and the earliest next-command times of a bank."""

    def __init__(self, timing: DramTiming):
        self.timing = timing
        self.open_row: Optional[int] = None
        #: Earliest memory-cycle at which a new column command may start.
        self.ready_at: float = 0.0
        #: When the current row's tRAS window ends (precharge not earlier).
        self._ras_done_at: float = 0.0

    def access(self, row: int, now: float) -> "tuple[float, str, Optional[float]]":
        """Issue an access to ``row`` at time >= ``now``.

        Returns ``(data_ready_time, kind, act_time)`` where kind is
        ``hit``, ``miss`` (bank was precharged) or ``conflict`` (another
        row was open) and ``act_time`` is the memory cycle at which the
        ACT command actually issued (``None`` for a row hit, which needs
        no ACT). A busy or conflicting bank issues its ACT later than the
        caller's ``now`` — the controller must pace tRRD/tFAW from this
        actual instant, not from admission. Updates bank state.
        """
        t = self.timing
        start = max(now, self.ready_at)
        act_at: Optional[float] = None
        if self.open_row == row:
            kind = "hit"
            data_at = start + t.row_hit_cycles
            self.ready_at = start + t.tCCD
        elif self.open_row is None:
            kind = "miss"
            act_at = start
            data_at = start + t.row_miss_cycles
            self.open_row = row
            self._ras_done_at = start + t.tRAS
            self.ready_at = start + t.tRCD + t.tCCD
        else:
            kind = "conflict"
            start = max(start, self._ras_done_at)
            # The ACT can only issue once the precharge completes.
            act_at = start + t.tRP
            data_at = start + t.row_conflict_cycles
            self.open_row = row
            self._ras_done_at = start + t.tRP + t.tRAS
            self.ready_at = start + t.tRP + t.tRCD + t.tCCD
        return data_at, kind, act_at

    def precharge(self, now: float) -> None:
        """Close the open row (used by refresh)."""
        self.open_row = None
        self.ready_at = max(self.ready_at, max(now, self._ras_done_at) + self.timing.tRP)


# -- controller ----------------------------------------------------------------


@dataclass(frozen=True)
class MemResponse:
    data_ready_time: float  #: memory cycles (end of data burst)
    row_result: str  #: 'hit' / 'miss' / 'conflict'


@dataclass
class ControllerStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_read_latency: float = 0.0
    refreshes: int = 0
    write_drains: int = 0


class MemoryController:
    """Single-channel DDR4 controller (Table II configuration)."""

    READ_QUEUE_ENTRIES = 64
    WRITE_QUEUE_ENTRIES = 64
    WRITE_DRAIN_HIGH = 48
    WRITE_DRAIN_LOW = 16

    def __init__(self):
        self.timing = DDR4_3200
        self.mapper = AddressMapper()
        self._banks: Dict[Tuple[int, int], Bank] = {}
        self._bus_free_at = 0.0
        #: Per-rank recent actual ACT issue times (tRRD / tFAW window).
        self._rank_acts: Dict[int, List[float]] = {}
        #: Min-heap of outstanding read completion times (queue occupancy).
        self._inflight_reads: List[float] = []
        #: Posted writes not yet issued to a bank (oldest first).
        self._write_queue: Deque[int] = deque()
        #: Min-heap of issued writes' data-burst completion times; a write
        #: occupies its queue entry until its burst finishes.
        self._write_inflight: List[float] = []
        #: True while a high-watermark drain episode is in progress.
        self._write_draining = False
        self._next_refresh = float(self.timing.tREFI)
        self.stats = ControllerStats()

    # -- public API ---------------------------------------------------------

    def read(self, address: int, now: float) -> MemResponse:
        """Issue a demand/prefetch read; returns when its data burst ends."""
        now = self._admit_read(now)
        self._maybe_refresh(now)
        response = self._do_access(address, now)
        heapq.heappush(self._inflight_reads, response.data_ready_time)
        self.stats.reads += 1
        self.stats.total_read_latency += response.data_ready_time - now
        return response

    def write(self, address: int, now: float) -> float:
        """Post a write (writeback); returns the time it was accepted.

        Writes are off the critical path: they park in the posted-write
        queue and cost nothing until the controller drains them. A write
        occupies its queue entry from admission until its data burst to
        DRAM completes. Draining follows the classic watermark policy:

        - occupancy reaching ``WRITE_DRAIN_HIGH`` starts a drain episode
          (counted in ``stats.write_drains``) during which queued and
          newly arriving writes issue immediately, booking their bank
          access and bus burst so subsequent reads observe the busy time;
        - the episode ends once occupancy decays to ``WRITE_DRAIN_LOW``
          (entries free as bursts complete);
        - a full queue (``WRITE_QUEUE_ENTRIES``) backpressures the
          issuer: the returned accept time is pushed past ``now`` to the
          completion that frees an entry, and callers charge that stall.

        Writes still parked when the simulation ends were never drained
        and book no bank/bus cost — the posted-write semantics.
        """
        self.stats.writes += 1
        self._maybe_refresh(now)
        inflight = self._write_inflight
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        queue = self._write_queue
        if self._write_draining and len(queue) + len(inflight) <= self.WRITE_DRAIN_LOW:
            self._write_draining = False
        if len(queue) + len(inflight) >= self.WRITE_QUEUE_ENTRIES:
            # Full: issue anything still parked, then stall until the
            # earliest in-flight burst frees an entry.
            self._issue_writes(now)
            if len(inflight) >= self.WRITE_QUEUE_ENTRIES:
                now = max(now, heapq.heappop(inflight))
                while inflight and inflight[0] <= now:
                    heapq.heappop(inflight)
        queue.append(address)
        if (
            not self._write_draining
            and len(queue) + len(inflight) >= self.WRITE_DRAIN_HIGH
        ):
            self._write_draining = True
            self.stats.write_drains += 1
        if self._write_draining:
            self._issue_writes(now)
        return now

    # -- internals -------------------------------------------------------------

    def _issue_writes(self, now: float) -> None:
        """Issue every parked write to its bank, booking bank/bus cost.

        Issued writes move to ``_write_inflight``; their queue entries
        free as the (bus-serialized) data bursts complete.
        """
        queue = self._write_queue
        inflight = self._write_inflight
        while queue:
            response = self._do_access(queue.popleft(), now)
            heapq.heappush(inflight, response.data_ready_time)

    def _admit_read(self, now: float) -> float:
        """Block until the read queue has a free entry."""
        while self._inflight_reads and self._inflight_reads[0] <= now:
            heapq.heappop(self._inflight_reads)
        if len(self._inflight_reads) >= self.READ_QUEUE_ENTRIES:
            now = max(now, heapq.heappop(self._inflight_reads))
            while self._inflight_reads and self._inflight_reads[0] <= now:
                heapq.heappop(self._inflight_reads)
        return now

    def _bank(self, rank: int, bank: int) -> Bank:
        key = (rank, bank)
        entry = self._banks.get(key)
        if entry is None:
            entry = Bank(self.timing)
            self._banks[key] = entry
        return entry

    def _do_access(self, address: int, now: float) -> MemResponse:
        coords = self.mapper.map(address)
        bank = self._bank(coords.rank, coords.bank)
        rank = coords.rank
        if bank.open_row != coords.row:
            # This access needs an ACT: honour the rank's tRRD/tFAW pacing.
            now = self._admit_activation(rank, now)
        data_at, kind, act_at = bank.access(coords.row, now)
        if act_at is not None:
            # Pace the window from the instant the ACT actually issued —
            # a busy/conflicting bank issues later than it was admitted.
            self._record_activation(rank, act_at)
        # The data burst occupies the shared bus for tBL cycles ending at
        # data_at; push it back if the bus is still busy.
        tBL = self.timing.tBL
        burst_start = max(data_at - tBL, self._bus_free_at)
        data_at = burst_start + tBL
        self._bus_free_at = data_at
        stats = self.stats
        if kind == "hit":
            stats.row_hits += 1
        elif kind == "miss":
            stats.row_misses += 1
        else:
            stats.row_conflicts += 1
        return MemResponse(data_ready_time=data_at, row_result=kind)

    def _admit_activation(self, rank: int, now: float) -> float:
        """Earliest time a new ACT to this rank may issue (tRRD, tFAW)."""
        acts = self._rank_acts.get(rank)
        if not acts:
            return now
        t = self.timing
        start = max(now, acts[-1] + t.tRRD)
        if len(acts) >= 4:
            start = max(start, acts[-4] + t.tFAW)
        return start

    def _record_activation(self, rank: int, act_at: float) -> None:
        """Remember an ACT's actual issue time for tRRD/tFAW pacing."""
        acts = self._rank_acts.setdefault(rank, [])
        acts.append(act_at)
        if len(acts) > 4:
            del acts[: len(acts) - 4]

    def _maybe_refresh(self, now: float) -> None:
        while now >= self._next_refresh:
            # All-bank refresh: every bank is precharged and unavailable
            # for tRFC from the refresh point.
            for bank in self._banks.values():
                bank.precharge(self._next_refresh)
                bank.ready_at = max(bank.ready_at, self._next_refresh + self.timing.tRFC)
            self.stats.refreshes += 1
            self._next_refresh += self.timing.tREFI


class TimingAdapter:
    """The oracle controller behind the production controller's API.

    ``read`` returns the data-burst end time and the counters read as
    attributes, so the fast engine's timing walk can drive either class.
    """

    def __init__(self) -> None:
        self.controller = MemoryController()

    def read(self, address: int, now: float) -> float:
        return self.controller.read(address, now).data_ready_time

    def write(self, address: int, now: float) -> float:
        return self.controller.write(address, now)

    def __getattr__(self, name: str):
        return getattr(self.controller.stats, name)
