"""Vectorized Monte-Carlo fast path (the ``REPRO_FAULTSIM`` switch).

The scalar engine in :mod:`repro.faultsim.montecarlo` builds a
``random.Random`` per busy module, sorts arrival times, and dispatches to
a class-based evaluator — interpreter overhead that dominates
paper-scale campaigns even after multi-process sharding. This module is
the FaultSim-style observation turned into an engine: with Table III FIT
rates the overwhelming majority of busy modules draw **exactly one**
fault, and a fault arriving at a clean module classifies with
``existing == []``, so its outcome is a pure function of
*(scheme, fault scope, is-ECC-chip)*.

The fast engine therefore:

- **derives** a per-scheme outcome table by probing the scheme's own
  evaluator with clean-module faults (Table IV semantics stay
  single-sourced in :mod:`repro.faultsim.evaluators`; the table is never
  re-encoded by hand, and the derivation cross-checks several placements
  per cell);
- batch-draws arrival times, fault modes, and chip indices for all
  single-fault modules with a vectorized counter-based RNG
  (:func:`derive_seed`'s splitmix64 mixing applied to whole index
  arrays), then classifies them with one array table-lookup — no
  ``FaultInstance``, no ``random.Random``, no method dispatch;
- falls back to the scalar evaluator loop — the exact per-module
  ``derive_seed(seed, 0x51A7, i)`` stream — for multi-fault modules, so
  those records are **bit-identical** to the reference engine's.

Because every draw is a pure function of ``(seed, global module index)``,
the fast engine is shard-invariant like the reference one: any
worker/shard count reproduces the same fast-engine result. Fast and
reference outputs are *statistically* equivalent (same Poisson fault
counts, same per-arrival distributions) but not bit-identical — the
single-fault draws come from different streams. The engine is recorded
in :meth:`MonteCarloConfig.science_fingerprint`, so checkpoints never
resume across modes.

Mode resolution: ``MonteCarloConfig.engine`` > the ``faultsim`` row of
:mod:`repro.switches` (``REPRO_FAULTSIM``) > ``"reference"`` (the
default, which keeps the bit-identical sequential/parallel contract).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.evaluators import Outcome
from repro.faultsim.faults import place_fault
from repro.faultsim.fit import FaultMode
from repro.faultsim.geometry import ModuleGeometry
from repro.utils.rng import child_seeds, derive_seed, unit_uniforms

#: Salt of the fast engine's counter-based draw stream (disjoint from the
#: reference streams 0xFA017 / 0x51A7 by construction of derive_seed).
FAST_STREAM_SALT = 0xFA57


# child_seeds / unit_uniforms live in repro.utils.rng (shared with the
# REPRO_PERF fast engine); the imports above re-export them here.


# -- derived outcome tables ------------------------------------------------------

#: Outcome <-> small integer codes used in the classification arrays.
OUTCOME_CODES = {Outcome.CORRECTED: 0, Outcome.DUE: 1, Outcome.SDC: 2}
CODE_OUTCOMES = (Outcome.CORRECTED, Outcome.DUE, Outcome.SDC)

#: Placements probed per table cell; a clean-module outcome that varies
#: with position would make the table lookup unsound, so disagreement
#: raises instead of silently mis-classifying.
_PROBES_PER_CELL = 3


def derive_outcome_table(
    evaluator,
    geometry: ModuleGeometry,
    categories: Sequence[Tuple[FaultMode, bool]],
) -> np.ndarray:
    """Clean-module outcome codes, derived by probing the evaluator.

    Returns a ``(len(categories), 2)`` uint8 array indexed by
    ``[category, is_ecc_chip]``. The evaluator is the single source of
    truth: each cell is ``evaluator.classify([], fault)`` for a fault of
    that category placed on a data (resp. ECC) chip. Several random
    placements are probed per cell and must agree — the clean-module
    outcome contract is *(scope, is-ECC-chip)* only.
    """
    probe_rng = random.Random(0xDE81)
    data_chip = 0
    ecc_chip = (
        geometry.data_chips_per_rank
        if geometry.ecc_chips_per_rank > 0
        else data_chip
    )
    table = np.zeros((len(categories), 2), dtype=np.uint8)
    for index, (mode, transient) in enumerate(categories):
        for is_ecc, chip in ((0, data_chip), (1, ecc_chip)):
            outcomes = {
                evaluator.classify(
                    [],
                    place_fault(mode.scope, transient, 0.0, chip, geometry, probe_rng),
                )
                for _ in range(_PROBES_PER_CELL)
            }
            if len(outcomes) != 1:
                raise ValueError(
                    f"{type(evaluator).__name__} clean-module outcome for "
                    f"scope={mode.scope.value} is_ecc={bool(is_ecc)} is "
                    f"position-dependent ({sorted(o.value for o in outcomes)}); "
                    "the vectorized engine cannot table-classify it"
                )
            table[index, is_ecc] = OUTCOME_CODES[outcomes.pop()]
    return table


# -- the vectorized range simulator ----------------------------------------------


def simulate_range_fast(
    evaluator,
    geometry: ModuleGeometry,
    config,
    fault_counts: np.ndarray,
    lo: int = 0,
    hi: Optional[int] = None,
) -> List["FailureRecord"]:
    """Vectorized counterpart of :func:`simulate_range` (same contract).

    Single-fault modules are classified in one table lookup over batched
    draws; modules with two or more faults run the exact scalar
    per-module loop (their records are bit-identical to the reference
    engine's). Deterministic in ``(seed, lo, hi)`` and shard-invariant:
    disjoint ranges covering the population reproduce the full run.
    """
    from repro.faultsim.montecarlo import (
        FailureRecord,
        _mode_categories,
        _simulate_module,
    )
    from repro.utils import units

    if hi is None:
        hi = lo + len(fault_counts)
    if hi - lo != len(fault_counts):
        raise ValueError(
            f"fault_counts has {len(fault_counts)} entries for range [{lo}, {hi})"
        )
    total_hours = config.years * units.HOURS_PER_YEAR
    categories, cumulative = _mode_categories(config)
    counts = np.asarray(fault_counts)

    records: List[FailureRecord] = []

    single_local = np.nonzero(counts == 1)[0]
    if single_local.size:
        indices = single_local.astype(np.uint64) + np.uint64(lo)
        base = child_seeds(
            np.uint64(derive_seed(config.seed, FAST_STREAM_SALT)), indices
        )
        # Scrubbing never matters here: one fault on a clean module has
        # nothing resident to scrub against.
        times = unit_uniforms(child_seeds(base, 0)) * total_hours
        category = np.searchsorted(
            cumulative, unit_uniforms(child_seeds(base, 1)), side="left"
        )
        chips = child_seeds(base, 2) % np.uint64(geometry.chips_per_rank)
        is_ecc = (chips >= np.uint64(geometry.data_chips_per_rank)).astype(np.intp)
        table = derive_outcome_table(evaluator, geometry, categories)
        codes = table[category, is_ecc]
        scope_values = [mode.scope.value for mode, _ in categories]
        for position in np.nonzero(codes)[0]:
            records.append(
                FailureRecord(
                    float(times[position]),
                    CODE_OUTCOMES[int(codes[position])],
                    scope_values[int(category[position])],
                )
            )

    for local_index in np.nonzero(counts >= 2)[0]:
        record = _simulate_module(
            evaluator,
            geometry,
            config,
            lo + int(local_index),
            int(counts[local_index]),
            categories,
            cumulative,
            total_hours,
        )
        if record is not None:
            records.append(record)
    return records
