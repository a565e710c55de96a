"""Sharded, checkpointable Monte-Carlo engine.

Splits the module population into deterministic shards and runs them
through the generic campaign core (:mod:`repro.campaign`). Because every
module draws from its own seed stream (``derive_seed(seed, 0x51A7,
global_index)``) and the per-module fault counts come from one batched
Poisson draw (:func:`repro.faultsim.montecarlo.draw_fault_counts`), a
shard covering global indices ``[lo, hi)`` simulates exactly the modules
the sequential loop would have, and merging the shard results
(:meth:`ReliabilityResult.merge`) reproduces :func:`simulate`
**bit-for-bit** — worker count and shard count never change the science.

Robustness and observability (all supplied by the shared core):

- ``checkpoint_dir`` writes one fingerprint-verified JSON file per
  completed shard through the unified :class:`repro.campaign.ResultStore`;
  a killed run restarted with the same config loads verified checkpoints
  and only recomputes the missing (or corrupted / stale) shards.
- ``progress`` receives a :class:`ProgressStats` snapshot after every
  shard completes (modules/sec, ETA, failures so far, and — when a
  resume rejected checkpoints — why: corrupt vs. stale).

Worker-count resolution order: explicit argument > ``config.workers`` >
``REPRO_WORKERS`` > 1 (in-process).

The engine (scalar reference loop vs. the vectorized fast path of
:mod:`repro.faultsim.fastpath`) is resolved once per run and recorded in
every shard's fingerprint; both engines are shard-invariant, and a
resume never mixes modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.campaign import (
    Campaign,
    CampaignProgress,
    ProgressBase,
    fingerprint_digest,
    resolve_workers,
    run_campaign,
)
from repro.campaign.store import STORE_VERSION
from repro.faultsim import fastpath
from repro.faultsim.geometry import ModuleGeometry
from repro.faultsim.montecarlo import (
    FailureRecord,
    MonteCarloConfig,
    ReliabilityResult,
    build_result,
    draw_fault_counts,
    scheme_name,
    simulate_range,
)

#: Checkpoint schema version (the unified store's cell version).
CHECKPOINT_VERSION = STORE_VERSION

ProgressCallback = Callable[["ProgressStats"], None]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[lo, hi)`` of the module population."""

    index: int
    lo: int
    hi: int

    @property
    def n_modules(self) -> int:
        return self.hi - self.lo


@dataclass
class ProgressStats(ProgressBase):
    """Snapshot handed to the progress callback after each shard.

    A thin naming layer over :class:`repro.campaign.ProgressBase`: the
    rate/ETA/fraction accounting lives in the core, shared with every
    other campaign engine.
    """

    shards_done: int
    shards_total: int
    shards_from_checkpoint: int
    modules_done: int
    modules_total: int
    failures_so_far: int
    elapsed_s: float
    rejected_corrupt: int = 0
    rejected_stale: int = 0

    ITEM_NOUN = "shard"
    RATE_NOUN = "modules"

    items_done = property(lambda self: self.shards_done)
    items_total = property(lambda self: self.shards_total)
    items_from_store = property(lambda self: self.shards_from_checkpoint)
    units_done = property(lambda self: self.modules_done)
    units_total = property(lambda self: self.modules_total)
    modules_per_sec = property(lambda self: self.rate)

    def _trailer(self) -> str:
        return f"failures {self.failures_so_far}"


def plan_shards(n_modules: int, n_shards: int) -> List[Shard]:
    """Split ``[0, n_modules)`` into ``n_shards`` near-equal slices.

    Deterministic in its inputs (resume depends on the plan being
    reproducible); every module lands in exactly one shard.
    """
    if n_modules < 0:
        raise ValueError(f"n_modules must be >= 0, got {n_modules}")
    n_shards = max(1, min(n_shards, max(1, n_modules)))
    base, extra = divmod(n_modules, n_shards)
    shards: List[Shard] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        shards.append(Shard(index=index, lo=lo, hi=hi))
        lo = hi
    return shards


@dataclass(frozen=True, eq=False)
class _ShardItem:
    """A shard plus its slice of the batched Poisson fault counts.

    The counts ride on the item (not the campaign) so a pool task ships
    only the modules it simulates, never the whole population's array.
    """

    shard: Shard
    counts: np.ndarray

    @property
    def index(self) -> int:
        return self.shard.index

    @property
    def key(self):
        return (self.shard.index, self.shard.lo, self.shard.hi)


class _FaultSimCampaign(Campaign):
    """Monte-Carlo reliability as a :class:`repro.campaign.Campaign`.

    Checkpoint directories keep their historical contract — exactly one
    ``shard-NNNNN.json`` per shard and nothing else — so the store's
    index is disabled; checkpoints are per-run scratch, not a shared
    result cache. ``shared_store=True`` (a store *object* was supplied,
    e.g. a networked :class:`repro.campaign.RemoteResultStore`) flips
    both decisions: cells get digest-based names so different runs'
    shards can coexist in one shared namespace, and completions are
    indexed so ``campaign-status`` sees the family.
    """

    name = "faultsim"
    index_results = False

    def __init__(
        self,
        evaluator,
        geometry: ModuleGeometry,
        config: MonteCarloConfig,
        engine: str,
        base_fingerprint: dict,
        shared_store: bool = False,
    ):
        self.evaluator = evaluator
        self.geometry = geometry
        self.config = config
        self.engine = engine
        self.base_fingerprint = base_fingerprint
        self.shared_store = shared_store
        if shared_store:
            self.index_results = True

    def fingerprint(self, item: _ShardItem) -> dict:
        shard = item.shard
        return {
            **self.base_fingerprint,
            "shard": {"index": shard.index, "lo": shard.lo, "hi": shard.hi},
        }

    def cell_name(self, item: _ShardItem, fingerprint: dict) -> str:
        if self.shared_store:
            return f"faultsim-{fingerprint_digest(fingerprint)}.json"
        return f"shard-{item.index:05d}.json"

    def run_item(self, item: _ShardItem) -> List[FailureRecord]:
        # ``engine`` was resolved once by the coordinator and travels
        # with the campaign, so worker processes never re-consult
        # mutable process state (``REPRO_FAULTSIM`` / ``forced()``).
        simulate_fn = (
            fastpath.simulate_range_fast
            if self.engine == "fast"
            else simulate_range
        )
        return simulate_fn(
            self.evaluator,
            self.geometry,
            self.config,
            item.counts,
            item.shard.lo,
            item.shard.hi,
        )

    def serialize_result(self, item, records: Sequence[FailureRecord]):
        return [record.to_json() for record in records]

    def deserialize_result(self, item, payload) -> List[FailureRecord]:
        return [FailureRecord.from_json(entry) for entry in payload]

    def item_units(self, item: _ShardItem) -> int:
        return item.shard.n_modules

    def result_failures(self, records) -> int:
        return len(records)


def simulate_parallel(
    evaluator,
    geometry: ModuleGeometry,
    config: Optional[MonteCarloConfig] = None,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> ReliabilityResult:
    """Sharded equivalent of :func:`simulate`; identical output.

    Keyword overrides take precedence over the corresponding
    ``MonteCarloConfig`` fields. With ``workers == 1`` the shards run
    in-process (no pool), which still exercises checkpointing and
    progress reporting. ``store`` accepts a ready store object (e.g. a
    networked :class:`repro.campaign.RemoteResultStore`); it takes
    precedence over ``checkpoint_dir`` and switches the campaign to
    digest-based cell names so shards from different runs share one
    namespace safely.
    """
    config = config or MonteCarloConfig()
    workers = resolve_workers(workers, config.workers)
    if shards is None:
        shards = config.shards
    if shards is None:
        # A few shards per worker keeps the pool busy through stragglers
        # and gives checkpoint/progress useful granularity.
        shards = workers * 4 if workers > 1 else 1
    if checkpoint_dir is None:
        checkpoint_dir = config.checkpoint_dir

    scheme = scheme_name(evaluator)
    engine = config.resolved_engine()
    fingerprint = config.science_fingerprint(scheme, geometry)
    plan = plan_shards(config.n_modules, shards)
    fault_counts = draw_fault_counts(config, geometry)

    campaign = _FaultSimCampaign(
        evaluator,
        geometry,
        config,
        engine,
        fingerprint,
        shared_store=store is not None,
    )
    items = [
        _ShardItem(shard, fault_counts[shard.lo : shard.hi]) for shard in plan
    ]

    def translate(snap: CampaignProgress) -> None:
        progress(
            ProgressStats(
                shards_done=snap.items_done,
                shards_total=snap.items_total,
                shards_from_checkpoint=snap.items_from_store,
                modules_done=snap.units_done,
                modules_total=snap.units_total,
                failures_so_far=snap.failures,
                elapsed_s=snap.elapsed_s,
                rejected_corrupt=snap.rejected_corrupt,
                rejected_stale=snap.rejected_stale,
            )
        )

    shard_records = run_campaign(
        campaign,
        items,
        workers=workers,
        store_dir=checkpoint_dir,
        store=store,
        progress=translate if progress is not None else None,
    )

    parts = [
        build_result(scheme, config, shard_records[s.index], n_modules=s.n_modules)
        for s in plan
    ]
    merged = ReliabilityResult.merge(parts)
    # plan_shards covers the population exactly, so the pooled count is
    # the configured one; assert the invariant cheaply.
    assert merged.n_modules == config.n_modules
    return merged
