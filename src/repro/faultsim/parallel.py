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

Robustness and observability (all supplied by the shared core, under
the campaign family name ``faultsim``):

- ``checkpoint_dir`` writes one fingerprint-verified cell per completed
  shard (``faultsim-<digest>.json``) through the unified
  :class:`repro.campaign.ResultStore` and lists it in the store's index,
  so ``python -m repro campaign-status DIR`` sees the run; a killed run
  restarted with the same config loads verified checkpoints and only
  recomputes the missing (or corrupted / stale) shards. Runs of
  different schemes or configs share one directory safely.
- ``progress`` receives a :class:`repro.campaign.CampaignProgress`
  snapshot after every shard completes: items are shards, units are
  modules (so the rate is modules/s), ``failures`` counts failure
  records, and ``rejected_corrupt``/``rejected_stale`` say why a resume
  recomputed a shard.

Worker-count resolution order: the ``workers`` argument >
``REPRO_WORKERS`` > 1 (in-process).

The engine (scalar reference loop vs. the vectorized fast path of
:mod:`repro.faultsim.fastpath`) is resolved once per run and recorded in
every shard's fingerprint; both engines are shard-invariant, and a
resume never mixes modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.campaign import (
    Campaign,
    ProgressCallback,
    resolve_workers,
    run_campaign,
)
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


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[lo, hi)`` of the module population."""

    index: int
    lo: int
    hi: int

    @property
    def n_modules(self) -> int:
        return self.hi - self.lo


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
    """Monte-Carlo reliability as a :class:`repro.campaign.Campaign`."""

    name = "faultsim"

    def __init__(
        self,
        evaluator,
        geometry: ModuleGeometry,
        config: MonteCarloConfig,
        engine: str,
        base_fingerprint: dict,
    ):
        self.evaluator = evaluator
        self.geometry = geometry
        self.config = config
        self.engine = engine
        self.base_fingerprint = base_fingerprint

    def fingerprint(self, item: _ShardItem) -> dict:
        shard = item.shard
        return {
            **self.base_fingerprint,
            "shard": {"index": shard.index, "lo": shard.lo, "hi": shard.hi},
        }

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

    ``workers`` and ``shards`` change how the run executes, never its
    result; ``shards=None`` picks four per worker. With ``workers == 1``
    the shards run in-process (no pool), which still exercises
    checkpointing and progress reporting. ``store`` accepts a ready
    store object (e.g. a networked
    :class:`repro.campaign.RemoteResultStore`) and takes precedence over
    ``checkpoint_dir``.
    """
    config = config or MonteCarloConfig()
    workers = resolve_workers(workers)
    if shards is None:
        # A few shards per worker keeps the pool busy through stragglers
        # and gives checkpoint/progress useful granularity.
        shards = workers * 4 if workers > 1 else 1

    scheme = scheme_name(evaluator)
    engine = config.resolved_engine()
    fingerprint = config.science_fingerprint(scheme, geometry)
    plan = plan_shards(config.n_modules, shards)
    fault_counts = draw_fault_counts(config, geometry)

    campaign = _FaultSimCampaign(evaluator, geometry, config, engine, fingerprint)
    items = [
        _ShardItem(shard, fault_counts[shard.lo : shard.hi]) for shard in plan
    ]

    shard_records = run_campaign(
        campaign,
        items,
        workers=workers,
        store_dir=checkpoint_dir,
        store=store,
        progress=progress,
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
