"""Parallel, cacheable performance-campaign engine.

The cycle-level model simulates one ``(workload, organization, seed)``
cell at a time; a figure is a grid of such cells. Every cell is
independent — the :class:`~repro.cpu.system.System` seeds its trace
generators from ``derive_seed(seed, ..., core)`` and shares no state
across cells — so the grid fans perfectly over the generic campaign
core (:mod:`repro.campaign`) and the merged result reproduces the
sequential loop of :func:`repro.perf.model.run_comparison`
**bit-for-bit** (worker count never changes the science). This is the
performance-campaign sibling of :mod:`repro.faultsim.parallel`; both
are thin adapters over the same executor, store, and progress core.

Robustness and observability (all supplied by the shared core, under
the campaign family name ``perf``):

- ``cache_dir`` persists one JSON file per completed cell
  (``perf-<digest>.json``) through the unified
  :class:`repro.campaign.ResultStore`, keyed by a *science fingerprint*
  (workload profile, organization, scale knobs, and every code-level
  constant that determines the cycle counts). A killed or re-scoped
  campaign reloads verified cells and recomputes only the missing (or
  corrupted / stale) ones; completed cells are also listed in the
  store's append-only index (``python -m repro campaign-status``).
- ``progress`` receives a :class:`repro.campaign.CampaignProgress`
  snapshot after every cell completes (items and units are both cells:
  cells/sec, ETA, cache hits so far, and — when cells were rejected —
  why: corrupt vs. stale).

Worker-count resolution order: the ``workers`` argument >
``REPRO_WORKERS`` > 1 (in-process).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import (
    Campaign,
    ProgressCallback,
    resolve_workers,
    run_campaign,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import StreamPrefetcher
from repro.cpu.core import CoreConfig
from repro.cpu.system import SystemResult
from repro.cpu.trace import TraceGenerator
from repro.cpu.workloads import SPEC2017_PROFILES, profile
from repro.dram.controller import MemoryController
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE, DDR4_3200
from repro.perf import fastpath
from repro.perf.model import (
    MultiSeedSummary,
    PerfConfig,
    WorkloadResult,
    geomean_slowdown_percent,
    run_workload,
)
from repro.perf.organizations import BASELINE_ECC, PerfOrganization
from repro.switches import PERF

#: Bumped whenever the cycle-level model's *behaviour* changes (new
#: timing constraint, bug fix, different warmup discipline, ...). It
#: invalidates every cached cell, which is exactly what a science change
#: requires; the constants below catch configuration drift between runs
#: of one model version.
MODEL_VERSION = 3


@dataclass(frozen=True)
class CampaignCell:
    """One independent simulation: a workload/organization/seed triple."""

    index: int
    workload: str
    organization: PerfOrganization
    seed: int

    @property
    def key(self) -> Tuple[str, str, int]:
        """Identity within one campaign (workload, org name, seed)."""
        return (self.workload, self.organization.name, self.seed)


# -- science fingerprint ---------------------------------------------------------


def cell_fingerprint(cell: CampaignCell, config: PerfConfig) -> dict:
    """Everything that determines one cell's :class:`SystemResult`.

    Two runs with equal fingerprints produce bit-identical results, so a
    cached cell may substitute for a fresh simulation. Beyond the obvious
    inputs (workload profile, organization, scale knobs, seed), the
    fingerprint pins the code-level constants the cycle counts depend on:
    DRAM timing, the controller's queue/watermark geometry, hierarchy
    latencies and sizes, prefetcher tuning, and the core window. A PR
    that changes model *logic* rather than a constant must bump
    ``MODEL_VERSION``.
    """
    prof = profile(cell.workload)
    defaults = CoreConfig()
    pf = StreamPrefetcher()
    engine = PERF.resolve(config.engine)
    return {
        "model_version": MODEL_VERSION,
        # The engines are statistically equivalent, not bit-identical, so
        # a cached cell must never substitute across them.
        "engine": engine,
        # Which generation of the fast engine's replay/timing kernels
        # produced the cell (0 for the reference engine, which has no
        # kernels): a kernel rewrite recomputes instead of trusting a
        # cache written by older code, even though rewrites are pinned
        # bit-identical by the batched/scalar A/B suites.
        "kernel_revision": fastpath.KERNEL_REVISION if engine == "fast" else 0,
        "workload": dataclasses.asdict(prof),
        "organization": dataclasses.asdict(cell.organization),
        "n_cores": config.n_cores,
        "instructions_per_core": config.instructions_per_core,
        "warmup_instructions": config.warmup_instructions,
        "seed": cell.seed,
        "timing": dataclasses.asdict(DDR4_3200),
        "cpu_cycles_per_mem_cycle": CPU_CYCLES_PER_MEM_CYCLE,
        "controller": {
            "read_queue": MemoryController.READ_QUEUE_ENTRIES,
            "write_queue": MemoryController.WRITE_QUEUE_ENTRIES,
            "drain_high": MemoryController.WRITE_DRAIN_HIGH,
            "drain_low": MemoryController.WRITE_DRAIN_LOW,
        },
        "hierarchy": {
            "l1_hit": CacheHierarchy.L1_HIT_CYCLES,
            "llc_hit": CacheHierarchy.LLC_HIT_CYCLES,
            "store": CacheHierarchy.STORE_CYCLES,
        },
        "prefetcher": {
            "n_streams": pf.n_streams,
            "degree": pf.degree,
            "distance": pf.distance,
        },
        "core": {"width": defaults.width, "rob_entries": defaults.rob_entries},
        "warm_bytes": TraceGenerator.WARM_BYTES,
    }


# -- the campaign adapter --------------------------------------------------------


def _run_cell(cell: CampaignCell, config: PerfConfig) -> SystemResult:
    """Simulate one cell (runs inside a worker).

    Rebuilds the per-cell :class:`PerfConfig` so the worker depends only
    on picklable inputs; the cell's own seed overrides the campaign
    default (multi-seed campaigns put every seed in the same grid).
    ``config.engine`` arrives already resolved by :func:`run_cells`, so a
    pool worker never consults its own process-wide mode.
    """
    cell_config = PerfConfig(
        n_cores=config.n_cores,
        instructions_per_core=config.instructions_per_core,
        warmup_instructions=config.warmup_instructions,
        seed=cell.seed,
        engine=config.engine,
    )
    return run_workload(profile(cell.workload), cell.organization, cell_config)


class _PerfCampaign(Campaign):
    """The performance grid as a :class:`repro.campaign.Campaign`.

    The unit of pool distribution is a ``(workload, seed)`` group, not a
    cell: the fast engine memoizes the org-independent content pass per
    process, so every organization of a workload must run in the same
    worker to share it; splitting a group across the pool recomputes the
    pass once per organization, which on the Figure 7 grid roughly
    doubles the parallel campaign's total work. Grouping only changes
    which worker runs a cell, never its result.
    """

    name = "perf"

    def __init__(self, config: PerfConfig):
        self.config = config

    def fingerprint(self, cell: CampaignCell) -> dict:
        return cell_fingerprint(cell, self.config)

    def group_key(self, cell: CampaignCell):
        return (cell.workload, cell.seed)

    def run_item(self, cell: CampaignCell) -> SystemResult:
        return _run_cell(cell, self.config)

    def serialize_result(self, cell, result: SystemResult):
        return result.to_json()

    def deserialize_result(self, cell, payload) -> SystemResult:
        return SystemResult.from_json(payload)


def run_cells(
    cells: Sequence[CampaignCell],
    config: Optional[PerfConfig] = None,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> Dict[Tuple[str, str, int], SystemResult]:
    """Simulate every cell; returns results keyed by :attr:`CampaignCell.key`.

    Results are independent of worker count and completion order: the
    mapping is keyed, every cell is deterministic in its fingerprint, and
    cached cells are verified against the full fingerprint before use.
    With ``workers == 1`` the cells run in-process (no pool), which still
    exercises caching and progress reporting. ``store`` accepts a ready
    store object — e.g. a :class:`repro.campaign.RemoteResultStore`
    sharing cells across hosts — and takes precedence over ``cache_dir``.
    """
    config = config or PerfConfig()
    # Resolve the engine once, here in the parent: fingerprints, the
    # in-process path, and every pool worker then agree on it even if the
    # process-wide mode changes mid-campaign (or differs in a worker).
    config = dataclasses.replace(config, engine=PERF.resolve(config.engine))
    workers = resolve_workers(workers)
    results = run_campaign(
        _PerfCampaign(config),
        cells,
        workers=workers,
        store_dir=cache_dir,
        store=store,
        progress=progress,
    )
    return {cell.key: results[cell.index] for cell in cells}


def plan_grid(
    organizations: Sequence[PerfOrganization],
    workloads: Optional[Sequence[str]],
    seeds: Sequence[int],
    baseline: PerfOrganization = BASELINE_ECC,
) -> List[CampaignCell]:
    """The deduplicated cell grid for a comparison campaign.

    Every (workload, organization, seed) appears exactly once even when
    the baseline is also listed among the organizations; dedup is by
    organization *name*, matching how results are keyed.
    """
    names = (
        list(workloads)
        if workloads is not None
        else [prof.name for prof in SPEC2017_PROFILES]
    )
    cells: List[CampaignCell] = []
    seen = set()
    for seed in seeds:
        for workload in names:
            for org in [baseline, *organizations]:
                key = (workload, org.name, seed)
                if key in seen:
                    continue
                seen.add(key)
                cells.append(
                    CampaignCell(
                        index=len(cells),
                        workload=workload,
                        organization=org,
                        seed=seed,
                    )
                )
    return cells


def run_comparison_parallel(
    organizations: Sequence[PerfOrganization],
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    baseline: PerfOrganization = BASELINE_ECC,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> List[WorkloadResult]:
    """Campaign equivalent of :func:`repro.perf.model.run_comparison`.

    Identical output for any worker count (pinned by
    ``tests/test_perf_campaign.py``); adds caching and progress.
    """
    config = config or PerfConfig()
    cells = plan_grid(organizations, workloads, [config.seed], baseline)
    by_key = run_cells(
        cells,
        config,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        progress=progress,
    )
    names = (
        list(workloads)
        if workloads is not None
        else [prof.name for prof in SPEC2017_PROFILES]
    )
    out: List[WorkloadResult] = []
    for workload in names:
        entry = WorkloadResult(
            workload=workload,
            baseline=by_key[(workload, baseline.name, config.seed)],
        )
        for org in organizations:
            entry.results[org.name] = by_key[(workload, org.name, config.seed)]
        out.append(entry)
    return out


def run_comparison_multiseed_parallel(
    organizations: Sequence[PerfOrganization],
    seeds: Sequence[int],
    workloads: Optional[Sequence[str]] = None,
    config: Optional[PerfConfig] = None,
    baseline: PerfOrganization = BASELINE_ECC,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, MultiSeedSummary]:
    """Campaign equivalent of :func:`run_comparison_multiseed`.

    The whole ``seeds x workloads x organizations`` grid goes to the pool
    at once (a per-seed loop over ``run_comparison_parallel`` would
    barrier between seeds and leave workers idle at each boundary).
    """
    config = config or PerfConfig()
    cells = plan_grid(organizations, workloads, list(seeds), baseline)
    by_key = run_cells(
        cells,
        config,
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        progress=progress,
    )
    names = (
        list(workloads)
        if workloads is not None
        else [prof.name for prof in SPEC2017_PROFILES]
    )
    per_org: Dict[str, List[float]] = {org.name: [] for org in organizations}
    for seed in seeds:
        results = []
        for workload in names:
            entry = WorkloadResult(
                workload=workload,
                baseline=by_key[(workload, baseline.name, seed)],
            )
            for org in organizations:
                entry.results[org.name] = by_key[(workload, org.name, seed)]
            results.append(entry)
        for org in organizations:
            per_org[org.name].append(
                geomean_slowdown_percent(results, org.name)
            )
    return {
        name: MultiSeedSummary(name, values) for name, values in per_org.items()
    }
