"""FaultSim-style Monte-Carlo DRAM reliability simulator.

Reimplements the methodology of FaultSim [34] as used by the paper's
Section III-B: fault arrivals are sampled per chip and per failure mode
from the field FIT rates of Sridharan & Liberty [43] (Table III); each
arrival is placed in the module's geometry and classified against the
already-present faults by a per-scheme evaluator; a module *fails* at the
first detected-uncorrectable (DUE) or silently-escaping (SDC) event.

- :mod:`repro.faultsim.fit` — Table III FIT rates and fault-mode catalog.
- :mod:`repro.faultsim.geometry` — module/chip geometry for the x8 SECDED
  and x4 Chipkill configurations.
- :mod:`repro.faultsim.faults` — fault instances, placement, and
  address-overlap logic.
- :mod:`repro.faultsim.evaluators` — per-scheme codeword evaluators
  (SECDED, SafeGuard with/without column parity, Chipkill,
  SafeGuard-Chipkill).
- :mod:`repro.faultsim.montecarlo` — the driver producing
  probability-of-system-failure curves (Figures 6 and 10).
- :mod:`repro.faultsim.parallel` — the sharded multi-process engine
  (checkpoint/resume, progress reporting) producing results
  bit-identical to the sequential driver.
- :mod:`repro.faultsim.fastpath` — the vectorized Monte-Carlo engine
  behind the ``REPRO_FAULTSIM=fast|reference`` switch: single-fault
  modules classified by numpy table lookups over derived outcome
  tables, multi-fault modules bit-identical to the reference loop.
"""

from repro.faultsim.fit import FaultMode, FAULT_MODES, total_fit, scale_fit
from repro.faultsim.geometry import ModuleGeometry, X8_SECDED_16GB, X4_CHIPKILL_16GB
from repro.faultsim.faults import FaultInstance, Scope, Pattern
from repro.faultsim.evaluators import (
    Outcome,
    SECDEDEvaluator,
    SafeGuardSECDEDEvaluator,
    ChipkillEvaluator,
    SafeGuardChipkillEvaluator,
)
from repro.faultsim.montecarlo import (
    FailureRecord,
    MonteCarloConfig,
    ReliabilityResult,
    merge_results,
    simulate,
)
from repro.faultsim.parallel import Shard, plan_shards, simulate_parallel
from repro.faultsim.fastpath import simulate_range_fast

__all__ = [
    "FaultMode",
    "FAULT_MODES",
    "total_fit",
    "scale_fit",
    "ModuleGeometry",
    "X8_SECDED_16GB",
    "X4_CHIPKILL_16GB",
    "FaultInstance",
    "Scope",
    "Pattern",
    "Outcome",
    "SECDEDEvaluator",
    "SafeGuardSECDEDEvaluator",
    "ChipkillEvaluator",
    "SafeGuardChipkillEvaluator",
    "MonteCarloConfig",
    "ReliabilityResult",
    "FailureRecord",
    "merge_results",
    "simulate",
    "simulate_parallel",
    "plan_shards",
    "Shard",
    "simulate_range_fast",
]
