"""The benchmark's three workloads and their correctness gate.

Each workload drives one simulator of the reproduction through its public
campaign entry point, on a fresh result store (cold) and then again on the
populated store (warm):

- ``hammer-sweep``: :func:`repro.rowhammer.sweep.run_sweep` over the
  4 attacks x 4 mitigations x 4 schemes grid (Row-Hammer-bound);
- ``perf-grid``: :func:`repro.perf.campaign.run_comparison_parallel` over
  the Figure 7/12 organizations x every SPEC-like profile x two seeds
  (perf-engine-bound);
- ``reliability``: :func:`repro.faultsim.parallel.simulate_parallel` over
  the Figure 6 and Figure 10 schemes (Monte-Carlo-bound, the only
  multi-worker workload, few cells with large payloads).

A workload's results are *canonical*: a dict from a stable cell key to the
cell's JSON payload. Canonical results make the gate, the warm-equals-cold
check and the science digest independent of each layer's result types.

Constructing a workload object is the set-up that ``setup_s`` times:
planning the grid and building the controllers, organizations and
evaluators a run needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
from typing import Callable, Dict, List, Optional

from repro.core import registry
from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig
from repro.faultsim.parallel import simulate_parallel
from repro.perf.campaign import plan_grid, run_comparison_parallel
from repro.perf.model import PerfConfig
from repro.perf.organizations import BASELINE_ECC, organization_for
from repro.rowhammer import sweep

#: Sizes of each workload. ``full`` is what the benchmark measures;
#: ``tiny`` keeps the benchmark's own tests fast.
SIZES = {
    "full": {
        # A twelfth of the sweep's default per-window budget: the weak
        # mitigations still break through (so the gate's attack-efficacy
        # check holds) and one cold sweep takes seconds, so a run repeats
        # it often enough for a steady median.
        "hammer_budget": 10_000,
        "perf_workloads": None,  # every SPEC-like profile
        "perf_seeds": 2,
        "perf_instructions": 100_000,
        "perf_warmup": 30_000,
        "fig6_modules": 600_000,
        "fig10_modules": 100_000,
    },
    "tiny": {
        "hammer_budget": 6_000,
        "perf_workloads": ("mcf", "omnetpp"),
        "perf_seeds": 1,
        "perf_instructions": 20_000,
        "perf_warmup": 5_000,
        "fig6_modules": 20_000,
        "fig10_modules": 5_000,
    },
}

#: Monte-Carlo shards per reliability simulation, fixed so the cell count
#: does not depend on the host's core count.
RELIABILITY_SHARDS = 8

#: Progress callback type: receives the campaign core's snapshots.
Progress = Optional[Callable[[object], None]]


def canonical_digest(results: Dict[str, object]) -> str:
    """sha256 of the canonical results: equal digests mean equal science."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_text(results: Dict[str, object]) -> Dict[str, str]:
    """Each cell's payload as canonical JSON, for bit-for-bit comparison."""
    return {key: json.dumps(value, sort_keys=True) for key, value in results.items()}


def differing(expected: Dict[str, str], results: Dict[str, object]) -> List[str]:
    """Keys whose payload in ``results`` is not bit-for-bit ``expected``."""
    return [
        key for key, text in expected.items()
        if key not in results or json.dumps(results[key], sort_keys=True) != text
    ]


#: Gate reason for a warm rerun that returned other results than the cold run.
WARM_DIFFERS = "warm rerun differs from the cold run"


def _is_safeguard(scheme: str) -> bool:
    return scheme.startswith("safeguard")


class Workload:
    """One benchmark workload: set-up in ``__init__``, then repeated runs."""

    name = ""
    workers = 1

    def planned_keys(self) -> List[str]:
        """Every cell key a complete run must return."""
        raise NotImplementedError

    def cell_weight(self, key: str) -> int:
        """Campaign cells behind one canonical key."""
        return 1

    @property
    def n_cells(self) -> int:
        return sum(self.cell_weight(key) for key in self.planned_keys())

    def reset(self) -> None:
        """Forget per-process result memos so the next run is really cold."""

    def run(self, store_dir: str, progress: Progress = None) -> Dict[str, object]:
        """Run the whole grid against ``store_dir``; canonical results."""
        raise NotImplementedError

    def science_failures(self, results: Dict[str, object]) -> Dict[str, str]:
        """Cells whose results break a claim of the paper: key -> reason."""
        return {}

    def science_counts(self, results: Dict[str, object]) -> Dict[str, int]:
        """Reported, ungated counts about the results' science."""
        return {}

    def instructions_per_cell(self) -> int:
        """Simulated instructions per perf cell (0 outside the perf grid)."""
        return 0

    def check(
        self,
        cold: Dict[str, object],
        reference: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """The correctness gate for one cold run.

        Returns the failed cell keys with the first reason each failed: a
        planned cell missing, a cold run that differs bit for bit from
        ``reference`` (the :func:`canonical_text` of the first cold run in
        this process), or a broken science claim
        (:meth:`science_failures`). Warm reruns are compared with
        :func:`differing` as they finish.
        """
        failed: Dict[str, str] = {}
        for key in self.planned_keys():
            if key not in cold:
                failed[key] = "missing from the cold run"
        if reference is not None:
            for key in differing(reference, cold):
                failed.setdefault(key, "cold run differs from the first cold run")
        for key, reason in self.science_failures(cold).items():
            failed.setdefault(key, reason)
        return failed

    def failed_cells(self, failed: Dict[str, str]) -> int:
        return sum(self.cell_weight(key) for key in failed)


class HammerSweep(Workload):
    """Row-Hammer attack sweep: attacks x mitigations x schemes, one seed."""

    name = "hammer-sweep"

    def __init__(self, seed: int, size: str = "full"):
        self.cells = sweep.plan_sweep(seeds=(seed,))
        self.config = sweep.SweepConfig(budget=SIZES[size]["hammer_budget"])
        # Build one controller per scheme: codec tables are per-process
        # lazy state that every later run reuses.
        for scheme in sweep.DEFAULT_SCHEMES:
            registry.create(scheme, key=sweep.SWEEP_KEY)

    @staticmethod
    def _key(cell_key) -> str:
        return "|".join(str(part) for part in cell_key)

    def planned_keys(self) -> List[str]:
        return [self._key(cell.key) for cell in self.cells]

    def reset(self) -> None:
        # A private memo: tolerate a version of the sweep without it.
        memo = getattr(sweep, "_ATTACK_MEMO", None)
        if isinstance(memo, dict):
            memo.clear()

    def run(self, store_dir, progress=None):
        outcomes = sweep.run_sweep(
            self.cells, self.config, workers=1, cache_dir=store_dir, progress=progress
        )
        return {self._key(key): outcome.to_json() for key, outcome in outcomes.items()}

    def science_failures(self, results):
        failed = {}
        conventional = []
        for key, outcome in results.items():
            if _is_safeguard(outcome["scheme"]):
                if outcome["silent_corruptions"]:
                    failed[key] = "SafeGuard scheme consumed corrupted data silently"
            else:
                conventional.append(key)
        if conventional and not any(
            results[key]["silent_corruptions"] for key in conventional
        ):
            # The attacks must still work: with no conventional-ECC silent
            # corruption anywhere, the sweep no longer tests SafeGuard.
            for key in conventional:
                failed.setdefault(key, "no conventional-ECC cell shows silent corruption")
        return failed


#: The Figure 7/12 MAC organizations compared against conventional ECC.
PERF_SCHEMES = ("safeguard-secded", "sgx-mac", "synergy-mac")


class PerfGrid(Workload):
    """Cycle-level performance grid: MAC organizations x profiles x seeds."""

    name = "perf-grid"

    def __init__(self, seed: int, size: str = "full"):
        spec = SIZES[size]
        self.workloads = spec["perf_workloads"]
        self.organizations = [organization_for(name, 8) for name in PERF_SCHEMES]
        self.configs = [
            PerfConfig(
                instructions_per_core=spec["perf_instructions"],
                warmup_instructions=spec["perf_warmup"],
                seed=seed * spec["perf_seeds"] + offset,
                engine="fast",
            )
            for offset in range(spec["perf_seeds"])
        ]
        self.cells = plan_grid(
            self.organizations,
            self.workloads,
            [config.seed for config in self.configs],
        )

    @staticmethod
    def _key(workload: str, org: str, seed: int) -> str:
        return f"{workload}|{org}|{seed}"

    def planned_keys(self):
        return [self._key(*cell.key) for cell in self.cells]

    def instructions_per_cell(self) -> int:
        config = self.configs[0]
        return config.n_cores * (config.instructions_per_core + config.warmup_instructions)

    def reset(self) -> None:
        from repro.perf import fastpath

        # A private memo: tolerate a version of the engine without it.
        memo = getattr(fastpath, "_CONTENT_MEMO", None)
        if memo is not None:
            memo.clear()

    def run(self, store_dir, progress=None):
        results = {}
        for config in self.configs:
            rows = run_comparison_parallel(
                self.organizations,
                self.workloads,
                config,
                workers=1,
                cache_dir=store_dir,
                progress=progress,
            )
            for row in rows:
                results[self._key(row.workload, BASELINE_ECC.name, config.seed)] = (
                    row.baseline.to_json()
                )
                for org, result in row.results.items():
                    results[self._key(row.workload, org, config.seed)] = result.to_json()
        return results

    def science_failures(self, results):
        """MAC checks only add latency: no organization may run
        significantly faster than the baseline.

        The test is on the geometric-mean runtime ratio over every profile
        and seed of the grid: it fails when the whole 95% interval of the
        mean log ratio lies below zero. Single cells and single seeds do
        run faster than the baseline at this scale (a scheduling artifact
        of the timing model); :meth:`faster_cells` counts those, and the
        benchmark reports the count on every run.
        """
        failed = {}
        for org in self.organizations:
            keys = [key for key in self.planned_keys() if key.split("|")[1] == org.name]
            logs = []
            for key in keys:
                workload, _, seed = key.split("|")
                base = results.get(self._key(workload, BASELINE_ECC.name, int(seed)))
                if base is not None and key in results:
                    logs.append(
                        math.log(max(results[key]["core_cycles"]) / max(base["core_cycles"]))
                    )
            if len(logs) < 2:
                continue
            margin = 1.96 * statistics.stdev(logs) / math.sqrt(len(logs))
            if statistics.fmean(logs) + margin < 0.0:
                for key in keys:
                    failed[key] = "MAC organization significantly faster than the baseline"
        return failed

    def science_counts(self, results):
        return {"faster_than_baseline_cells": self.faster_cells(results)}

    def faster_cells(self, results) -> int:
        """MAC cells whose runtime beats their own profile's baseline."""
        count = 0
        for key, payload in results.items():
            workload, org, seed = key.split("|")
            if org == BASELINE_ECC.name:
                continue
            base = results.get(self._key(workload, BASELINE_ECC.name, int(seed)))
            if base and max(payload["core_cycles"]) < max(base["core_cycles"]):
                count += 1
        return count


#: Figure 6 (x8 SECDED, 1x FIT) and Figure 10 (x4 Chipkill, 1x and 10x FIT).
RELIABILITY_RUNS = (
    ("secded", "x8", 1.0),
    ("safeguard-secded-noparity", "x8", 1.0),
    ("safeguard-secded", "x8", 1.0),
    ("chipkill", "x4", 1.0),
    ("safeguard-chipkill", "x4", 1.0),
    ("chipkill", "x4", 10.0),
    ("safeguard-chipkill", "x4", 10.0),
)


class Reliability(Workload):
    """FaultSim-style Monte-Carlo: Figure 6 and Figure 10 schemes."""

    name = "reliability"

    def __init__(self, seed: int, size: str = "full"):
        spec = SIZES[size]
        self.workers = min(2, os.cpu_count() or 1)
        self.runs = []
        for scheme, organization, fit in RELIABILITY_RUNS:
            geometry = X8_SECDED_16GB if organization == "x8" else X4_CHIPKILL_16GB
            modules = spec["fig6_modules"] if organization == "x8" else spec["fig10_modules"]
            config = MonteCarloConfig(
                n_modules=modules, seed=seed, fit_multiplier=fit, engine="fast"
            )
            self.runs.append(
                (self._key(scheme, fit), scheme, evaluator_for(scheme, geometry), geometry, config)
            )

    @staticmethod
    def _key(scheme: str, fit: float) -> str:
        return f"{scheme}|{fit:g}xFIT"

    def planned_keys(self):
        return [key for key, *_ in self.runs]

    def cell_weight(self, key):
        return RELIABILITY_SHARDS

    def run(self, store_dir, progress=None):
        results = {}
        for key, _, evaluator, geometry, config in self.runs:
            result = simulate_parallel(
                evaluator,
                geometry,
                config,
                workers=self.workers,
                shards=RELIABILITY_SHARDS,
                checkpoint_dir=os.path.join(store_dir, key.replace("|", "-")),
                progress=progress,
            )
            results[key] = dataclasses.asdict(result)
        return results

    def science_failures(self, results):
        failed = {}
        for key, scheme, _, _, config in self.runs:
            result = results.get(key)
            if result is None:
                continue
            if _is_safeguard(scheme) and result["n_sdc"]:
                failed[key] = "SafeGuard scheme reported silent data corruption"
            elif result["n_modules"] != config.n_modules:
                failed[key] = "simulated module count differs from the plan"
        return failed


WORKLOADS = {cls.name: cls for cls in (HammerSweep, PerfGrid, Reliability)}
