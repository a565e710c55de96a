"""Drive an attack pattern against a mitigation over refresh windows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.rowhammer.attacks import AttackPattern
from repro.rowhammer.mitigations import Mitigation, NoMitigation
from repro.rowhammer.model import REFS_PER_WINDOW, DisturbanceModel

from repro.dram.timing import max_activations_per_refresh_window

#: Activations an attacker can issue to one bank per 64ms refresh window,
#: derived from the DDR4-3200 timing model's tRC (~1.38M; a realistic
#: attack loop achieves somewhat less).
ACTIVATIONS_PER_WINDOW = max_activations_per_refresh_window()

__all__ = [
    "ACTIVATIONS_PER_WINDOW",
    "REFS_PER_WINDOW",
    "AttackResult",
    "AttackRunner",
]


@dataclass
class AttackResult:
    """Outcome of an attack campaign."""

    attack: str
    mitigation: str
    windows: int
    activations: int
    mitigation_refreshes: int
    #: All flips observed, per victim row (accumulated across windows).
    flips_by_row: Dict[int, int]
    #: Flips that landed in the attack's *intended* victims.
    intended_flips: int
    #: Exact flipped bit positions at the end of the final window (before
    #: the closing auto-refresh), for wiring into a data path.
    final_flip_bits: Dict[int, Set[int]] = field(default_factory=dict)
    #: Activations denied by a throttling mitigation (BlockHammer).
    blocked_activations: int = 0

    @property
    def total_flips(self) -> int:
        return sum(self.flips_by_row.values())

    @property
    def broke_through(self) -> bool:
        """Did the attack flip bits despite the mitigation?"""
        return self.intended_flips > 0


class AttackRunner:
    """Runs attack windows: ACT stream + mitigation + periodic REF."""

    def __init__(
        self,
        model: Optional[DisturbanceModel] = None,
        mitigation: Optional[Mitigation] = None,
        activations_per_window: int = ACTIVATIONS_PER_WINDOW,
        refs_per_window: int = REFS_PER_WINDOW,
    ):
        self.model = model or DisturbanceModel()
        self.mitigation = mitigation or NoMitigation()
        self.activations_per_window = activations_per_window
        self.refs_per_window = refs_per_window

    def run(
        self, attack: AttackPattern, windows: int = 1, budget: Optional[int] = None
    ) -> AttackResult:
        """Execute ``windows`` refresh windows of the attack.

        Mitigation hooks a class inherits as no-ops are not called; every
        activation and victim-refresh goes through the model.
        """
        budget = budget if budget is not None else self.activations_per_window
        ref_period = max(1, budget // self.refs_per_window)
        model, mitigation = self.model, self.mitigation
        activate, apply_mitigation = model.activate, self._apply_mitigation
        on_activate = _hook(mitigation.on_activate, NoMitigation.on_activate)
        on_refresh = _hook(
            mitigation.on_refresh_command, Mitigation.on_refresh_command
        )
        throttled = getattr(mitigation, "permits", None)
        flips_by_row: Dict[int, int] = {}
        intended = set(attack.intended_victims)
        intended_flips = 0
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
                    if on_refresh is not None and acts % ref_period == 0:
                        apply_mitigation(on_refresh())
                    continue
                new_flips = activate(row)
                if on_activate is not None:
                    new_flips += apply_mitigation(on_activate(row))
                if on_refresh is not None and acts % ref_period == 0:
                    new_flips += apply_mitigation(on_refresh())
                for victim, bits in new_flips:
                    flips_by_row[victim] = flips_by_row.get(victim, 0) + len(bits)
                    if victim in intended:
                        intended_flips += len(bits)
            final_flip_bits = {row: set(bits) for row, bits in model.flipped.items()}
            # End of the 64ms window: every row is auto-refreshed.
            mitigation.on_window_end()
            model.periodic_refresh()
        return AttackResult(
            attack=attack.name,
            mitigation=mitigation.name,
            windows=windows,
            activations=model.activations,
            mitigation_refreshes=model.mitigation_refreshes,
            flips_by_row=flips_by_row,
            intended_flips=intended_flips,
            final_flip_bits=final_flip_bits,
            blocked_activations=blocked_activations,
        )

    def _apply_mitigation(self, rows: List[int]) -> List[Tuple[int, List[int]]]:
        flips: List[Tuple[int, List[int]]] = []
        for row in rows:
            if 0 <= row < self.model.config.n_rows:
                flips.extend(self.model.mitigation_refresh(row))
        return flips


def _hook(bound, inherited):
    """``bound`` unless it is the class's inherited no-op ``inherited``."""
    return None if getattr(bound, "__func__", None) is inherited else bound
