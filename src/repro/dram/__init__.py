"""DRAM timing model (the Ramulator stand-in; see DESIGN.md §4).

Models the Table II memory system: DDR4-3200, 1 channel, 2 ranks of 16
banks, 8KB row buffer, 64-entry read and write queues. Captures the
effects the paper's performance results hinge on: row-buffer hits versus
misses/conflicts, bank-level parallelism, data-bus occupancy, write-drain
interference, and refresh — the terms that translate extra memory
accesses (SGX-/Synergy-style MACs) and extra check latency (SafeGuard)
into slowdown.

:class:`MemoryController` is the one controller both perf engines run;
its object-model oracle lives in ``tests/dram_oracle.py``.
"""

from repro.dram.timing import DDR4_3200, DramTiming
from repro.dram.controller import MemoryController, map_address

__all__ = [
    "DDR4_3200",
    "DramTiming",
    "MemoryController",
    "map_address",
]
