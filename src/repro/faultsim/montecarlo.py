"""Monte-Carlo driver producing probability-of-system-failure curves.

Reproduces the paper's Section III-B methodology: N module instances are
simulated for a 7-year lifetime; faults arrive per chip as a Poisson
process with the Table III FIT rates; each arrival is placed uniformly in
the module geometry and classified by the scheme's evaluator against the
faults already present; the module's *failure time* is the first DUE or
SDC. The output is the fraction of failed modules versus time.

The paper simulates 10M devices; that is feasible here too (the
simulation is event-driven and ~93% of modules draw zero faults) but the
default is 200K modules, which already gives tight confidence intervals
for the probabilities involved. Pass ``n_modules`` to scale up, and see
:mod:`repro.faultsim.parallel` for the sharded multi-process engine that
produces bit-identical results on many cores.

Determinism contract (relied on by the parallel engine):

- per-module fault *counts* come from one batched Poisson draw seeded
  with ``derive_seed(seed, 0xFA017)`` — :func:`draw_fault_counts`;
- each busy module's faults are generated from its own
  ``random.Random(derive_seed(seed, 0x51A7, module_index))`` stream.

A shard covering global module indices ``[lo, hi)`` therefore reproduces
exactly the modules the sequential loop would have simulated, and merging
shard results (:meth:`ReliabilityResult.merge`) reconstructs the
sequential output bit-for-bit.

The scalar loop here is the *reference* engine (and the default); the
vectorized fast engine in :mod:`repro.faultsim.fastpath` — selected per
config or via ``REPRO_FAULTSIM=fast`` — classifies single-fault modules
with derived outcome tables and falls back to this loop for multi-fault
modules.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.evaluators import Outcome
from repro.faultsim.faults import FaultInstance, place_fault
from repro.faultsim.fit import FAULT_MODES, FaultMode
from repro.faultsim.geometry import ModuleGeometry
from repro.switches import FAULTSIM
from repro.utils import units
from repro.utils.rng import derive_seed


@dataclass
class MonteCarloConfig:
    """Knobs for one reliability run."""

    n_modules: int = 200_000
    years: float = 7.0
    seed: int = 0
    fit_multiplier: float = 1.0
    #: Optional scrub interval: correctable *transient* faults older than
    #: this are dropped before each classification (FaultSim's scrubbing
    #: model). None disables scrubbing (conservative).
    scrub_interval_hours: Optional[float] = None
    #: Fault modes; defaults to Table III.
    modes: Sequence[FaultMode] = field(default_factory=lambda: list(FAULT_MODES))
    #: Evaluation grid resolution in months.
    grid_months: int = 6
    #: Monte-Carlo engine: ``"reference"`` (the scalar loop) or
    #: ``"fast"`` (the vectorized single-fault path of
    #: :mod:`repro.faultsim.fastpath`). None defers to the process-wide
    #: ``faultsim`` switch (``REPRO_FAULTSIM``, default ``"reference"``).
    #: Unlike the execution arguments of
    #: :func:`repro.faultsim.parallel.simulate_parallel` (workers,
    #: shards, checkpoint directory) this *does* change the science output
    #: (statistically equivalent, not bit-identical), so it is part of
    #: the fingerprint.
    engine: Optional[str] = None

    def resolved_engine(self) -> str:
        """The engine this config runs under (config > env > reference)."""
        return FAULTSIM.resolve(self.engine)

    def science_fingerprint(self, scheme: str, geometry: ModuleGeometry) -> dict:
        """The output-determining knobs, as a JSON-friendly dict.

        Used to validate checkpoints: two runs with equal fingerprints
        produce identical results no matter how they are sharded. The
        resolved engine is included so a checkpoint written by one engine
        can never be resumed by the other.
        """
        return {
            "scheme": scheme,
            "geometry": geometry.name,
            "engine": self.resolved_engine(),
            "n_modules": self.n_modules,
            "years": self.years,
            "seed": self.seed,
            "fit_multiplier": self.fit_multiplier,
            "scrub_interval_hours": self.scrub_interval_hours,
            "grid_months": self.grid_months,
            "modes": [
                [m.scope.value, m.transient_fit, m.permanent_fit]
                for m in self.modes
            ],
        }


@dataclass(frozen=True)
class FailureRecord:
    """One module's first failure, reduced to what the statistics need.

    Small and JSON-serializable so shard checkpoints stay lightweight.
    """

    time_hours: float
    outcome: Outcome
    scope: str  #: ``Scope.value`` of the triggering fault

    def to_json(self) -> list:
        return [self.time_hours, self.outcome.value, self.scope]

    @staticmethod
    def from_json(payload: Sequence) -> "FailureRecord":
        time_hours, outcome, scope = payload
        return FailureRecord(float(time_hours), Outcome(outcome), str(scope))


@dataclass
class ReliabilityResult:
    """Failure statistics for one scheme."""

    scheme: str
    n_modules: int
    years: float
    grid_hours: List[float]
    fail_probability: List[float]  #: P(failed by grid point)
    n_failed: int
    n_due: int
    n_sdc: int
    failures_by_scope: Dict[str, int]
    #: Sorted first-failure times (hours). Carried so that shard results
    #: merge exactly: the merged curve is recomputed from the pooled
    #: times, not averaged from per-shard curves.
    fail_times: List[float] = field(default_factory=list)

    @property
    def final_fail_probability(self) -> float:
        return self.fail_probability[-1] if self.fail_probability else 0.0

    def confidence_interval(self, z: float = 1.96) -> "Tuple[float, float]":
        """Wilson score interval for the final failure probability.

        The paper runs 10M devices; at the default 200K the interval
        quantifies how much of any scheme-to-scheme difference is noise.
        """
        n = self.n_modules
        if n == 0:
            return (0.0, 0.0)
        p = self.final_fail_probability
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        margin = (z / denom) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
        return (max(0.0, centre - margin), min(1.0, centre + margin))

    def differs_significantly_from(self, other: "ReliabilityResult") -> bool:
        """True when the two final probabilities' 95% intervals disjoint."""
        low_a, high_a = self.confidence_interval()
        low_b, high_b = other.confidence_interval()
        return high_a < low_b or high_b < low_a

    def probability_at_years(self, years: float) -> float:
        """Interpolated failure probability at a point in time.

        Linear interpolation between the evaluation-grid points, with the
        implicit origin (0, 0) before the first point; clamped to the
        final probability past the end of the grid and to 0 before t=0.
        """
        if not self.grid_hours:
            return 0.0
        hours = years * units.HOURS_PER_YEAR
        if hours <= 0.0:
            return 0.0
        if hours >= self.grid_hours[-1]:
            return self.fail_probability[-1]
        index = bisect.bisect_right(self.grid_hours, hours)
        if index == 0:
            t_left, p_left = 0.0, 0.0
        else:
            t_left = self.grid_hours[index - 1]
            p_left = self.fail_probability[index - 1]
            if hours == t_left:  # exactly on a grid point: its value
                return p_left
        t_right = self.grid_hours[index]
        p_right = self.fail_probability[index]
        fraction = (hours - t_left) / (t_right - t_left)
        return p_left + fraction * (p_right - p_left)

    @classmethod
    def merge(cls, parts: Sequence["ReliabilityResult"]) -> "ReliabilityResult":
        """Pool shard results into one, bit-identical to a sequential run.

        The failure-probability curve is recomputed from the pooled
        failure times over the pooled module count — exactly the
        computation :func:`simulate` performs — so merging is associative
        and order-independent, and the Wilson interval of the merged
        result is the pooled-n interval. All parts must describe the same
        scheme, lifetime, and evaluation grid.
        """
        if not parts:
            raise ValueError("cannot merge zero ReliabilityResult shards")
        head = parts[0]
        for part in parts[1:]:
            if part.scheme != head.scheme:
                raise ValueError(
                    f"scheme mismatch: {part.scheme!r} != {head.scheme!r}"
                )
            if part.years != head.years or part.grid_hours != head.grid_hours:
                raise ValueError("evaluation grid mismatch between shards")
        n_modules = sum(p.n_modules for p in parts)
        fail_times = sorted(t for p in parts for t in p.fail_times)
        by_scope: Dict[str, int] = {}
        for part in parts:
            for scope, count in part.failures_by_scope.items():
                by_scope[scope] = by_scope.get(scope, 0) + count
        fail_probability = [
            bisect.bisect_right(fail_times, t) / n_modules
            for t in head.grid_hours
        ]
        return cls(
            scheme=head.scheme,
            n_modules=n_modules,
            years=head.years,
            grid_hours=list(head.grid_hours),
            fail_probability=fail_probability,
            n_failed=sum(p.n_failed for p in parts),
            n_due=sum(p.n_due for p in parts),
            n_sdc=sum(p.n_sdc for p in parts),
            failures_by_scope=by_scope,
            fail_times=fail_times,
        )


def merge_results(parts: Sequence[ReliabilityResult]) -> ReliabilityResult:
    """Module-level alias for :meth:`ReliabilityResult.merge`."""
    return ReliabilityResult.merge(parts)


def draw_fault_counts(
    config: MonteCarloConfig, geometry: ModuleGeometry
) -> np.ndarray:
    """The single batched Poisson draw of per-module fault counts.

    One array for the whole population, seeded independently of the
    per-module streams; shards slice it by global module index so any
    sharding reproduces the sequential counts exactly.
    """
    total_hours = config.years * units.HOURS_PER_YEAR
    # Per-chip arrival rate across all modes (events per hour).
    lam_chip = (
        sum(m.total_fit for m in config.modes)
        * config.fit_multiplier
        / units.FIT_HOURS
    )
    lam_module = lam_chip * geometry.total_chips * total_hours
    np_rng = np.random.default_rng(derive_seed(config.seed, 0xFA017))
    return np_rng.poisson(lam_module, config.n_modules)


def _mode_categories(
    config: MonteCarloConfig,
) -> Tuple[List[Tuple[FaultMode, bool]], np.ndarray]:
    """Categorical distribution over (mode, transient) pairs."""
    categories: List[Tuple[FaultMode, bool]] = []
    weights: List[float] = []
    for mode in config.modes:
        if mode.transient_fit > 0:
            categories.append((mode, True))
            weights.append(mode.transient_fit)
        if mode.permanent_fit > 0:
            categories.append((mode, False))
            weights.append(mode.permanent_fit)
    cumulative = np.cumsum(np.asarray(weights, dtype=float))
    cumulative /= cumulative[-1]
    return categories, cumulative


def _simulate_module(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    module_index: int,
    n_faults: int,
    categories: List[Tuple[FaultMode, bool]],
    cumulative: np.ndarray,
    total_hours: float,
) -> Optional[FailureRecord]:
    """One busy module's scalar fault loop; its first failure or None.

    The reference engine's inner body, shared verbatim by the fast
    engine's multi-fault fallback so the two stay bit-identical there.
    The RNG consumption order (times, then per-arrival mode/chip/
    placement) is part of the determinism contract — do not reorder.
    """
    rng = random.Random(derive_seed(config.seed, 0x51A7, module_index))
    times = sorted(rng.uniform(0.0, total_hours) for _ in range(n_faults))
    active: List[FaultInstance] = []
    scrub = config.scrub_interval_hours
    # Earliest arrival among active *transient* faults (arrivals append in
    # time order, so the front transient is the oldest): the scrub filter
    # is a no-op until that one expires, so rebuild the list only then
    # instead of re-filtering on every arrival.
    oldest_transient: Optional[float] = None
    for time_hours in times:
        mode, transient = categories[bisect.bisect_left(cumulative, rng.random())]
        chip = rng.randrange(geometry.chips_per_rank)
        fault = place_fault(mode.scope, transient, time_hours, chip, geometry, rng)
        if (
            scrub is not None
            and oldest_transient is not None
            and time_hours - oldest_transient >= scrub
        ):
            active = [
                f
                for f in active
                if not f.transient or time_hours - f.time_hours < scrub
            ]
            oldest_transient = min(
                (f.time_hours for f in active if f.transient), default=None
            )
        outcome = evaluator.classify(active, fault)
        if outcome.is_failure:
            return FailureRecord(time_hours, outcome, fault.scope.value)
        active.append(fault)
        if transient and oldest_transient is None:
            oldest_transient = time_hours
    return None


def simulate_range(
    evaluator,
    geometry: ModuleGeometry,
    config: MonteCarloConfig,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
) -> List[FailureRecord]:
    """Simulate modules with global indices ``[lo, hi)``.

    ``fault_counts`` is the slice ``draw_fault_counts(...)[lo:hi]`` (or
    the full array when simulating everything). Each module is seeded
    from its *global* index, so the union of any disjoint ranges covering
    ``[0, n_modules)`` equals the sequential run.
    """
    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)

    records: List[FailureRecord] = []
    busy_modules = np.nonzero(fault_counts)[0]
    for local_index in busy_modules:
        record = _simulate_module(
            evaluator,
            geometry,
            config,
            lo + int(local_index),
            int(fault_counts[local_index]),
            categories,
            cumulative,
            total_hours,
        )
        if record is not None:
            records.append(record)
    return records


def build_result(
    scheme: str,
    config: MonteCarloConfig,
    records: Sequence[FailureRecord],
    n_modules: Optional[int] = None,
) -> ReliabilityResult:
    """Fold failure records into a :class:`ReliabilityResult`.

    ``n_modules`` defaults to ``config.n_modules``; shard results pass
    their own population slice size so that merging re-weights exactly.
    """
    n_modules = config.n_modules if n_modules is None else n_modules
    total_hours = config.years * units.HOURS_PER_YEAR
    n_points = max(1, int(config.years * 12 / config.grid_months))
    grid_hours = [(i + 1) * total_hours / n_points for i in range(n_points)]
    fail_times = sorted(r.time_hours for r in records)
    fail_probability = [
        bisect.bisect_right(fail_times, t) / n_modules for t in grid_hours
    ]

    by_scope: Dict[str, int] = {}
    n_due = n_sdc = 0
    for record in records:
        by_scope[record.scope] = by_scope.get(record.scope, 0) + 1
        if record.outcome is Outcome.DUE:
            n_due += 1
        else:
            n_sdc += 1

    return ReliabilityResult(
        scheme=scheme,
        n_modules=n_modules,
        years=config.years,
        grid_hours=grid_hours,
        fail_probability=fail_probability,
        n_failed=len(records),
        n_due=n_due,
        n_sdc=n_sdc,
        failures_by_scope=by_scope,
        fail_times=fail_times,
    )


def scheme_name(evaluator) -> str:
    """The display name the results carry for one evaluator."""
    return getattr(evaluator, "name", type(evaluator).__name__)


def simulate(
    evaluator,
    geometry: ModuleGeometry,
    config: Optional[MonteCarloConfig] = None,
) -> ReliabilityResult:
    """Run the Monte-Carlo reliability simulation for one scheme.

    Dispatches to the scalar reference loop or the vectorized fast
    engine according to ``config.engine`` / ``REPRO_FAULTSIM`` (see
    :mod:`repro.faultsim.fastpath`). Both engines draw the module
    population from the same batched Poisson stream.
    """
    from repro.faultsim import fastpath

    config = config or MonteCarloConfig()
    fault_counts = draw_fault_counts(config, geometry)
    if config.resolved_engine() == "fast":
        records = fastpath.simulate_range_fast(
            evaluator, geometry, config, fault_counts
        )
    else:
        records = simulate_range(evaluator, geometry, config, fault_counts)
    return build_result(scheme_name(evaluator), config, records)
