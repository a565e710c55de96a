"""Per-row disturbance-accumulation Row-Hammer model.

Physics abstraction (Section II-C): every activation of row ``r`` leaks a
little charge from nearby rows; a victim flips bits once the accumulated
disturbance since its last refresh crosses the RH-Threshold. The model
tracks one disturbance counter per row with distance-dependent coupling:
distance-1 neighbours take the full unit of disturbance per activation,
distance-2 neighbours a small fraction (direct distance-2 flips need far
more activations — consistent with [9]'s characterization).

Two further properties matter for fidelity to the attacks:

- **A refresh is an activation.** Refreshing a row resets *its* counter
  but disturbs *its* neighbours exactly like an activation — this is the
  mechanism Half-Double [9] turns against precise mitigations: the
  mitigation's own victim-refreshes of the near row hammer the row beyond
  it. Periodic all-bank auto-refresh is modelled as a plain counter reset
  (its disturbance contribution is part of the calibrated threshold).
- **Bit-flips are cell-dependent.** Each row has a pseudorandom set of
  weak cells (the data-dependence of RH failures); crossing multiples of
  the threshold flips progressively more of them, so sustained hammering
  escalates from single-bit to multi-bit corruption (the ECCploit
  escalation of Section II-E).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import exp
from typing import Dict, List, Optional, Set, Tuple

from repro.dram.timing import max_activations_per_refresh_window
from repro.utils.rng import derive_seed

#: REF commands per 64ms refresh window (tREFI = 7.8us -> 8192 per 64ms).
REFS_PER_WINDOW = 8192

#: Activations between consecutive REF commands at the full attack
#: budget: the one source of truth for the REF cadence that REF-gated
#: schedules (TRRespass flush bursts) synchronize against. The runner
#: derives the actual per-run cadence from its budget and
#: ``REFS_PER_WINDOW``; this constant is only the default for schedules
#: iterated outside a runner. Keeping it derived (not a copied literal)
#: means an override of the refresh interval can never desynchronize
#: attack schedules from the mitigation's actual REF cadence.
DEFAULT_REF_PERIOD = max(1, max_activations_per_refresh_window() // REFS_PER_WINDOW)


@dataclass
class RowHammerConfig:
    """Disturbance-model parameters."""

    n_rows: int = 128
    #: Bits per row (e.g. 8KB row buffer = 65536; kept small for speed).
    bits_per_row: int = 8192
    #: Activations on an adjacent aggressor required to flip bits.
    rh_threshold: int = 4800
    #: Disturbance per activation at distance 1 (units of activations).
    coupling_d1: float = 1.0
    #: Disturbance per activation at distance 2 (direct; weak). At 0.003
    #: the direct distance-2 threshold is ~1.6M activations — beyond one
    #: refresh window's activation budget, so distance-2 victims flip only
    #: with the mitigation's unwitting help (the Half-Double regime [9]).
    coupling_d2: float = 0.003
    #: Maximum distance at which coupling acts.
    blast_radius: int = 2
    #: Weak cells per row (flippable by RH; data-dependent in practice).
    weak_cells_per_row: int = 24
    #: Expected flips each time a row's disturbance crosses the threshold.
    flips_per_crossing: float = 2.0
    seed: int = 0


class DisturbanceModel:
    """Tracks disturbance and produces victim bit-flips."""

    def __init__(self, config: Optional[RowHammerConfig] = None):
        self.config = config or RowHammerConfig()
        self._disturbance: Dict[int, float] = {}
        #: Bits already flipped (and not yet restored by refresh): row -> bits.
        self.flipped: Dict[int, Set[int]] = {}
        self._weak_cells: Dict[int, List[int]] = {}
        #: Row -> the ``(victim, coupling)`` pairs it disturbs, built on
        #: first use.
        self._neighbor_table: Dict[int, List[Tuple[int, float]]] = {}
        # Below a positive threshold the flip draw returns ``[]`` without
        # touching any state, so it is skipped; any other threshold leaves
        # every level to the draw itself.
        threshold = self.config.rh_threshold
        self._draw_from = threshold if threshold > 0 else float("-inf")
        self._rng = random.Random(derive_seed(self.config.seed, 0xBEEF))
        self.activations = 0
        self.mitigation_refreshes = 0

    # -- access operations ---------------------------------------------------

    def activate(self, row: int) -> List[Tuple[int, List[int]]]:
        """Activate ``row``; returns newly flipped (victim_row, bits).

        Activating a row restores its own cells (its data is rewritten on
        precharge), so its disturbance counter — and any flips it had —
        are cleared, mirroring why victims must not be accessed during an
        attack (Section II-C).
        """
        self.activations += 1
        self._restore(row)
        return self._disturb_neighbors(row)

    def mitigation_refresh(self, row: int) -> List[Tuple[int, List[int]]]:
        """A victim-refresh issued by an RH mitigation.

        Restores the target row but — being a row activation — disturbs
        the rows adjacent to *it* (the Half-Double lever).
        """
        self.mitigation_refreshes += 1
        self._restore(row)
        return self._disturb_neighbors(row)

    def periodic_refresh(self) -> None:
        """The 64ms auto-refresh: every row restored."""
        self._disturbance.clear()
        self.flipped.clear()

    # -- queries ----------------------------------------------------------------

    def disturbance(self, row: int) -> float:
        return self._disturbance.get(row, 0.0)

    def flips_in(self, row: int) -> Set[int]:
        return self.flipped.get(row, set())

    def total_flips(self) -> int:
        return sum(len(bits) for bits in self.flipped.values())

    # -- internals -----------------------------------------------------------------

    def _restore(self, row: int) -> None:
        self._disturbance.pop(row, None)
        self.flipped.pop(row, None)

    def _neighbors(self, row: int) -> List[Tuple[int, float]]:
        """In-bank ``(victim, coupling)`` pairs an activation of ``row``
        disturbs, nearest distance first and the lower row first."""
        cfg = self.config
        pairs: List[Tuple[int, float]] = []
        for distance in range(1, cfg.blast_radius + 1):
            coupling = cfg.coupling_d1 if distance == 1 else (
                cfg.coupling_d2 / (4 ** (distance - 2))
            )
            for victim in (row - distance, row + distance):
                if 0 <= victim < cfg.n_rows:
                    pairs.append((victim, coupling))
        return pairs

    def _disturb_neighbors(self, row: int) -> List[Tuple[int, List[int]]]:
        pairs = self._neighbor_table.get(row)
        if pairs is None:
            pairs = self._neighbor_table[row] = self._neighbors(row)
        disturbance, draw_from = self._disturbance, self._draw_from
        new_flips: List[Tuple[int, List[int]]] = []
        for victim, coupling in pairs:
            level = disturbance.get(victim, 0.0) + coupling
            disturbance[victim] = level
            if level >= draw_from:
                flips = self._maybe_flip(victim, level)
                if flips:
                    new_flips.append((victim, flips))
        return new_flips

    def _maybe_flip(self, victim: int, level: float) -> List[int]:
        cfg = self.config
        crossings = int(level // cfg.rh_threshold)
        if crossings <= 0:
            return []
        already = self.flipped.setdefault(victim, set())
        weak = self._weak_cells_of(victim)
        # Expected flips scale with threshold crossings; cap at the row's
        # weak-cell population.
        expected = min(cfg.flips_per_crossing * crossings, len(weak))
        target = min(len(weak), self._poisson(expected))
        new_bits = []
        for bit in weak:
            if len(already) >= target:
                break
            if bit not in already:
                already.add(bit)
                new_bits.append(bit)
        return new_bits

    def _weak_cells_of(self, row: int) -> List[int]:
        cells = self._weak_cells.get(row)
        if cells is None:
            rng = random.Random(derive_seed(self.config.seed, 0xCE11, row))
            cells = sorted(
                rng.sample(range(self.config.bits_per_row),
                           self.config.weak_cells_per_row)
            )
            self._weak_cells[row] = cells
        return cells

    def _poisson(self, lam: float) -> int:
        # Knuth's method is fine at the small lambdas used here. The
        # product starts at the first draw (``1.0 * u == u``), so the
        # stream of draws is the textbook one.
        if lam <= 0:
            return 0
        limit = exp(-lam)
        rand = self._rng.random
        k = 0
        p = rand()
        while p > limit:
            k += 1
            p *= rand()
        return k
