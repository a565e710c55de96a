"""Per-activation reference loops of the Row-Hammer hot path.

- :func:`oracle_run` is the :class:`AttackRunner` loop as it stood before
  the runner skipped inherited no-op mitigation hooks and the model
  cached its neighbour table: every mitigation hook called on every ACT,
  and every activation and victim-refresh disturbing its neighbours
  through :func:`oracle_disturb_neighbors`, which recomputes the
  couplings and runs the flip draw at every level.
- :func:`oracle_schedule` is the schedule generator of
  :func:`repro.rowhammer.attacks.compile_schedule` as it stood before the
  compiler built its stream from ``itertools``: one Python step per ACT.
- :func:`oracle_poisson` is the textbook Knuth draw of
  :meth:`DisturbanceModel._poisson` before it was tightened.

All are kept here, verbatim (the model's methods as free functions), as the differential oracles of
``tests/test_rowhammer_runner.py``: the production code must produce the
same activation stream, the same :class:`AttackResult` and the same model
and mitigation end state on every input.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rowhammer.attacks import AttackPattern, SchedulePhase
from repro.rowhammer.model import DisturbanceModel
from repro.rowhammer.runner import AttackResult, AttackRunner


def oracle_run(
    runner: AttackRunner,
    attack: AttackPattern,
    windows: int = 1,
    budget: Optional[int] = None,
) -> AttackResult:
    """Execute ``windows`` refresh windows of the attack, one call per ACT."""
    self = runner
    budget = budget if budget is not None else self.activations_per_window
    ref_period = max(1, budget // self.refs_per_window)
    flips_by_row: Dict[int, int] = {}
    intended = set(attack.intended_victims)
    intended_flips = 0
    throttled = getattr(self.mitigation, "permits", None)
    blocked_activations = 0
    final_flip_bits: Dict[int, Set[int]] = {}
    for _ in range(windows):
        acts = 0
        for row in attack.activations(budget, ref_period):
            acts += 1
            if throttled is not None and not throttled(row).allowed:
                # BlockHammer-style throttling: the activation slot is
                # consumed but the row is not activated.
                blocked_activations += 1
                if acts % ref_period == 0:
                    _apply_mitigation(self, self.mitigation.on_refresh_command())
                continue
            new_flips = oracle_activate(self.model, row)
            new_flips += _apply_mitigation(self, self.mitigation.on_activate(row))
            if acts % ref_period == 0:
                new_flips += _apply_mitigation(
                    self, self.mitigation.on_refresh_command()
                )
            for victim, bits in new_flips:
                flips_by_row[victim] = flips_by_row.get(victim, 0) + len(bits)
                if victim in intended:
                    intended_flips += len(bits)
        final_flip_bits = {
            row: set(bits) for row, bits in self.model.flipped.items()
        }
        # End of the 64ms window: every row is auto-refreshed.
        self.mitigation.on_window_end()
        self.model.periodic_refresh()
    return AttackResult(
        attack=attack.name,
        mitigation=self.mitigation.name,
        windows=windows,
        activations=self.model.activations,
        mitigation_refreshes=self.model.mitigation_refreshes,
        flips_by_row=flips_by_row,
        intended_flips=intended_flips,
        final_flip_bits=final_flip_bits,
        blocked_activations=blocked_activations,
    )


def _apply_mitigation(
    self: AttackRunner, rows: List[int]
) -> List[Tuple[int, List[int]]]:
    flips: List[Tuple[int, List[int]]] = []
    for row in rows:
        if 0 <= row < self.model.config.n_rows:
            flips.extend(oracle_mitigation_refresh(self.model, row))
    return flips


def oracle_activate(self: DisturbanceModel, row: int) -> List[Tuple[int, List[int]]]:
    """:meth:`DisturbanceModel.activate`."""
    self.activations += 1
    self._restore(row)
    return oracle_disturb_neighbors(self, row)


def oracle_mitigation_refresh(
    self: DisturbanceModel, row: int
) -> List[Tuple[int, List[int]]]:
    """:meth:`DisturbanceModel.mitigation_refresh`."""
    self.mitigation_refreshes += 1
    self._restore(row)
    return oracle_disturb_neighbors(self, row)


def oracle_disturb_neighbors(
    self: DisturbanceModel, row: int
) -> List[Tuple[int, List[int]]]:
    """:meth:`DisturbanceModel._disturb_neighbors`, one flip draw per level."""
    cfg = self.config
    new_flips: List[Tuple[int, List[int]]] = []
    for distance in range(1, cfg.blast_radius + 1):
        coupling = cfg.coupling_d1 if distance == 1 else (
            cfg.coupling_d2 / (4 ** (distance - 2))
        )
        for victim in (row - distance, row + distance):
            if not 0 <= victim < cfg.n_rows:
                continue
            level = self._disturbance.get(victim, 0.0) + coupling
            self._disturbance[victim] = level
            flips = self._maybe_flip(victim, level)
            if flips:
                new_flips.append((victim, flips))
    return new_flips


def oracle_schedule(
    phases: Sequence[SchedulePhase], budget: int, ref_period: int, min_fill: int = 1
) -> Iterator[int]:
    """The activation stream of ``compile_schedule(phases, min_fill)``."""
    explicit_total = sum(
        phase.reads for phase in phases if phase.reads is not None
    )
    compiled = tuple(phases)
    pointers = [0] * len(compiled)
    issued = 0
    while issued < budget:
        for index, phase in enumerate(compiled):
            slots = (
                phase.reads
                if phase.reads is not None
                else max(min_fill, ref_period - explicit_total)
            )
            if phase.restart:
                pointers[index] = 0
            rows = phase.rows
            n = len(rows)
            pointer = pointers[index]
            for _ in range(min(slots, budget - issued)):
                yield rows[pointer % n]
                pointer += 1
                issued += 1
            pointers[index] = pointer


def oracle_poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson draw, the product starting at 1.0."""
    if lam <= 0:
        return 0
    l = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= l:
            return k
        k += 1
