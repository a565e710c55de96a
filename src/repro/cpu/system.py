"""Multi-core co-simulation (Table II: 4 cores, workload replicated 4x).

Cores advance through their traces in least-local-time-first order so
shared-resource contention (LLC capacity, DRAM banks and bus) is resolved
in approximately global time, the standard co-simulation discipline for
transaction-level models. Execution continues until every core has
covered its instruction quota, mirroring the paper's "until all cores
execute at least 500 million instructions" methodology.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import Core, CoreConfig
from repro.cpu.trace import TraceGenerator
from repro.cpu.workloads import WorkloadProfile


@dataclass
class SystemResult:
    """Aggregate outcome of one simulation."""

    workload: str
    organization: str
    n_cores: int
    instructions_per_core: int
    core_cycles: List[float]
    core_ipc: List[float]
    dram_reads: int
    dram_writes: int
    llc_miss_rate: float
    row_hit_rate: float
    avg_read_latency_mem_cycles: float

    @property
    def total_cycles(self) -> float:
        """System completion time: the slowest core's cycle count."""
        return max(self.core_cycles)

    @property
    def aggregate_ipc(self) -> float:
        total_instr = self.instructions_per_core * self.n_cores
        return total_instr / self.total_cycles if self.total_cycles else 0.0

    def speedup_over(self, baseline: "SystemResult") -> float:
        """Performance relative to a baseline run (>1 = faster)."""
        return baseline.total_cycles / self.total_cycles

    def to_json(self) -> dict:
        """JSON-friendly payload for campaign cell caches.

        Python floats round-trip exactly through ``json`` (shortest-repr
        encoding), so a cached result is bit-identical to a fresh run.
        """
        return {
            "workload": self.workload,
            "organization": self.organization,
            "n_cores": self.n_cores,
            "instructions_per_core": self.instructions_per_core,
            "core_cycles": list(self.core_cycles),
            "core_ipc": list(self.core_ipc),
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "llc_miss_rate": self.llc_miss_rate,
            "row_hit_rate": self.row_hit_rate,
            "avg_read_latency_mem_cycles": self.avg_read_latency_mem_cycles,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SystemResult":
        return cls(
            workload=str(payload["workload"]),
            organization=str(payload["organization"]),
            n_cores=int(payload["n_cores"]),
            instructions_per_core=int(payload["instructions_per_core"]),
            core_cycles=[float(v) for v in payload["core_cycles"]],
            core_ipc=[float(v) for v in payload["core_ipc"]],
            dram_reads=int(payload["dram_reads"]),
            dram_writes=int(payload["dram_writes"]),
            llc_miss_rate=float(payload["llc_miss_rate"]),
            row_hit_rate=float(payload["row_hit_rate"]),
            avg_read_latency_mem_cycles=float(
                payload["avg_read_latency_mem_cycles"]
            ),
        )

    def weighted_speedup(self, baseline: "SystemResult") -> float:
        """Sum over cores of per-core IPC relative to the baseline run.

        The standard multi-programmed metric; for rate mode (identical
        replicas) it tracks :meth:`speedup_over` closely but weights each
        core's own slowdown rather than only the slowest core's.
        """
        if baseline.n_cores != self.n_cores:
            raise ValueError("core counts differ")
        total = 0.0
        for mine, base in zip(self.core_cycles, baseline.core_cycles):
            total += base / mine if mine else 0.0
        return total / self.n_cores


class System:
    """4-core rate-mode system over a shared hierarchy."""

    def __init__(
        self,
        workload: WorkloadProfile,
        organization,
        n_cores: int = 4,
        seed: int = 0,
        core_config: Optional[CoreConfig] = None,
        sources: "List | None" = None,
    ):
        """``sources`` optionally replaces the synthetic per-core trace
        generators with custom ones (e.g. file replay via
        :class:`repro.cpu.tracefile.TraceFileSource`); one per core."""
        self.workload = workload
        self.organization = organization
        self.n_cores = n_cores
        self.seed = seed
        self.hierarchy = CacheHierarchy(n_cores, organization)
        self._core_config = core_config or CoreConfig(base_cpi=workload.base_cpi)
        if sources is not None and len(sources) != n_cores:
            raise ValueError("need one trace source per core")
        self._sources = sources

    def run(
        self, instructions_per_core: int, warmup_instructions: int = 0
    ) -> SystemResult:
        """Simulate until every core covers its instruction quota.

        ``warmup_instructions`` are executed first to populate the caches
        and DRAM row buffers; their cycles and instructions are excluded
        from the reported result (the SimPoint-warming analogue).
        """
        generators = self._sources or [
            TraceGenerator(self.workload, i, self.seed) for i in range(self.n_cores)
        ]
        # Bring the LLC to steady-state occupancy first: fill most of the
        # capacity with footprint lines, dirty in the workload's store
        # proportion, so capacity evictions (and their writebacks) flow
        # from the start of measurement.
        llc_lines = self.hierarchy.llc.n_sets * self.hierarchy.llc.ways
        per_core = int(llc_lines * 0.85) // self.n_cores
        dirty_rng = random.Random(self.seed ^ 0xD127)
        # Read-modify-write patterns dirty more resident lines than the
        # instantaneous store ratio alone suggests.
        dirty_probability = min(1.0, self.workload.store_fraction * 2.0)
        for generator in generators:
            for address in generator.steady_state_addresses(per_core):
                self.hierarchy.prime(
                    address, dirty=dirty_rng.random() < dirty_probability
                )
        # Warm (LLC-resident) regions primed last so they sit at the MRU
        # end and survive the steady-state churn, as live data would.
        for generator in generators:
            for address in generator.warm_region_addresses():
                self.hierarchy.prime(address)
        cores = [
            Core(i, generators[i].ops(warmup_instructions + instructions_per_core),
                 self._core_config)
            for i in range(self.n_cores)
        ]
        start_cycles = [0.0] * self.n_cores
        start_marked = [warmup_instructions == 0] * self.n_cores
        pending_marks = 0 if warmup_instructions == 0 else self.n_cores
        stats_base = self._snapshot_stats() if pending_marks else None
        # Min-heap of (local_time, core_id); tick the most-behind core.
        # This loop is the simulation: hoist the bound methods and replace
        # the pop/push pair with heapreplace (one sift instead of two).
        heap = [(core.time, core.core_id) for core in cores]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        access = self.hierarchy.access
        while heap:
            core_id = heap[0][1]
            core = cores[core_id]
            op = core.next_op()
            if op is None:
                heappop(heap)
                continue
            if not start_marked[core_id] and core.instructions >= warmup_instructions:
                start_cycles[core_id] = core.time
                start_marked[core_id] = True
                pending_marks -= 1
                if pending_marks == 0:
                    stats_base = self._snapshot_stats()
            outcome = access(core_id, op.address, op.is_write, core.time)
            core.complete_op(op, outcome.latency_cpu)
            heapreplace(heap, (core.time, core_id))

        stats = self._stats_delta(stats_base or self._zero_stats())
        measured = [core.time - start_cycles[i] for i, core in enumerate(cores)]
        return SystemResult(
            workload=self.workload.name,
            organization=getattr(self.organization, "name", "unknown"),
            n_cores=self.n_cores,
            instructions_per_core=instructions_per_core,
            core_cycles=measured,
            core_ipc=[
                instructions_per_core / cycles if cycles else 0.0
                for cycles in measured
            ],
            dram_reads=stats["dram_reads"],
            dram_writes=stats["dram_writes"],
            llc_miss_rate=stats["llc_miss_rate"],
            row_hit_rate=stats["row_hit_rate"],
            avg_read_latency_mem_cycles=stats["avg_read_latency"],
        )

    # -- measurement-window stats ----------------------------------------------

    def _snapshot_stats(self) -> Dict[str, float]:
        llc = self.hierarchy.llc.stats
        mc = self.hierarchy.controller
        return {
            "dram_reads": self.hierarchy.dram_reads,
            "dram_writes": self.hierarchy.dram_writes,
            "llc_hits": llc.hits,
            "llc_misses": llc.misses,
            "row_hits": mc.row_hits,
            "row_misses": mc.row_misses,
            "row_conflicts": mc.row_conflicts,
            "reads": mc.reads,
            "read_latency": mc.total_read_latency,
        }

    def _zero_stats(self) -> Dict[str, float]:
        return {key: 0 for key in self._snapshot_stats()}

    def _stats_delta(self, base: Dict[str, float]) -> Dict[str, float]:
        now = self._snapshot_stats()
        d = {key: now[key] - base[key] for key in now}
        llc_total = d["llc_hits"] + d["llc_misses"]
        row_total = d["row_hits"] + d["row_misses"] + d["row_conflicts"]
        return {
            "dram_reads": int(d["dram_reads"]),
            "dram_writes": int(d["dram_writes"]),
            "llc_miss_rate": d["llc_misses"] / llc_total if llc_total else 0.0,
            "row_hit_rate": d["row_hits"] / row_total if row_total else 0.0,
            "avg_read_latency": d["read_latency"] / d["reads"] if d["reads"] else 0.0,
        }
