"""Row-Hammer attack-sweep campaign: attacks x mitigations x organizations.

The third consumer of the generic campaign core (:mod:`repro.campaign`),
alongside the Monte-Carlo shards of :mod:`repro.faultsim.parallel` and
the performance cells of :mod:`repro.perf.campaign`. One sweep point
answers the paper's end-to-end question for a single combination: run an
attack pattern against a mitigation (:class:`AttackRunner`), wire any
breakthrough bit-flips into one memory organization's data path
(:class:`VictimArray`), and classify what software would have consumed —
corrected, detected-UE, or silently corrupted (the security risk
SafeGuard eliminates; Figure 1c generalized across the attack surface).

Every point is deterministic in its fingerprint (attack, mitigation,
scheme, seed, disturbance-model knobs), so the sweep inherits the full
campaign contract: worker-count-invariant results, a resumable
fingerprint-verified cache, crash retry, and progress snapshots. Points
are grouped by ``(attack, mitigation, seed)`` — the attack simulation is
organization-independent, so every scheme of one attack instance runs in
the worker that already simulated it (a per-process memo mirrors the
perf engine's shared content pass).

CLI::

    python -m repro hammer-sweep --workers 4 --cache-dir .sweep
    python -m repro campaign-status .sweep

Worker-count resolution: the ``workers`` argument > ``REPRO_WORKERS`` > 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import (
    Campaign,
    ProgressCallback,
    resolve_workers,
    run_campaign,
)
from repro.core import registry
from repro.rowhammer.attacks import (
    AttackPattern,
    double_sided,
    half_double,
    many_sided,
    single_sided,
)
from repro.rowhammer.integration import VictimArray
from repro.rowhammer.mitigations import (
    GrapheneMitigation,
    Mitigation,
    NoMitigation,
    PARA,
    TRRMitigation,
)
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner
from repro.utils.rng import derive_seed

#: Bumped when the sweep's science changes (attack wiring, consumption
#: classification, disturbance model defaults routed through
#: :class:`SweepConfig`); invalidates every cached point.
SWEEP_VERSION = 1

#: MAC key used for the sweep's controllers (any fixed key works: the
#: sweep studies corruption consumption, not key secrecy).
SWEEP_KEY = b"hammer-sweep-key"

#: Attack names -> pattern factory (victim row -> :class:`AttackPattern`).
ATTACKS = {
    "single-sided": single_sided,
    "double-sided": double_sided,
    "many-sided": many_sided,
    "half-double": half_double,
}

#: Default sweep grid (attack names x mitigation names).
DEFAULT_ATTACKS = tuple(ATTACKS)
DEFAULT_MITIGATIONS = ("none", "para", "trr", "graphene")
DEFAULT_SCHEMES = ("secded", "safeguard-secded", "chipkill", "safeguard-chipkill")


@dataclass
class SweepConfig:
    """Shared knobs of one sweep campaign (identical for every point)."""

    #: Disturbance threshold; low enough that interactive budgets break
    #: weak mitigations (same regime as the fig1b/fig1c experiments).
    rh_threshold: int = 1200
    #: Activation budget per refresh window.
    budget: int = 120_000
    #: Refresh windows per attack run.
    windows: int = 1
    #: The row the attack aims at.
    victim_row: int = 64
    #: Disturbance-model overrides (escalated flips, as in fig1c, so
    #: breakthroughs produce multi-bit words that separate the schemes).
    weak_cells_per_row: int = 64
    flips_per_crossing: float = 6.0


def make_mitigation(name: str, config: SweepConfig, seed: int) -> Mitigation:
    """Instantiate a mitigation by name, sized for the sweep's regime."""
    if name == "none":
        return NoMitigation()
    if name == "para":
        # PARA's coin flips are part of the point's science: seed them
        # from the point seed so the result is deterministic.
        return PARA(probability=0.002, seed=derive_seed(seed, 0x9A7A))
    if name == "trr":
        return TRRMitigation(table_size=4)
    if name == "graphene":
        return GrapheneMitigation(
            design_threshold=config.rh_threshold,
            window_activations=config.budget,
        )
    raise ValueError(
        f"unknown mitigation {name!r}; known: {', '.join(DEFAULT_MITIGATIONS)}"
    )


def _make_attack(name: str, victim_row: int) -> AttackPattern:
    try:
        factory = ATTACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown attack {name!r}; known: {', '.join(ATTACKS)}"
        ) from None
    return factory(victim_row)


@dataclass(frozen=True)
class SweepCell:
    """One sweep point: attack x mitigation x organization x seed."""

    index: int
    attack: str
    mitigation: str
    scheme: str
    seed: int

    @property
    def key(self) -> Tuple[str, str, str, int]:
        return (self.attack, self.mitigation, self.scheme, self.seed)


@dataclass
class SweepOutcome:
    """What one sweep point observed, end to end."""

    attack: str
    mitigation: str
    scheme: str
    seed: int
    #: Attack-side: bits flipped anywhere / in the intended victims, and
    #: the mitigation's victim-refresh count.
    total_flips: int = 0
    intended_flips: int = 0
    mitigation_refreshes: int = 0
    #: Consumption-side: the controller's own classification of reads.
    lines_read: int = 0
    corrected: int = 0
    detected_ue: int = 0
    silent_corruptions: int = 0

    @property
    def broke_through(self) -> bool:
        return self.intended_flips > 0

    @property
    def security_risk(self) -> bool:
        return self.silent_corruptions > 0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "SweepOutcome":
        return cls(**payload)


def plan_sweep(
    attacks: Sequence[str] = DEFAULT_ATTACKS,
    mitigations: Sequence[str] = DEFAULT_MITIGATIONS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    seeds: Sequence[int] = (3,),
) -> List[SweepCell]:
    """The full sweep grid; validates every name eagerly."""
    for attack in attacks:
        _make_attack(attack, 0)
    for name in schemes:
        registry.scheme(name)  # unknown names raise with the full list
    cells: List[SweepCell] = []
    for seed in seeds:
        for attack in attacks:
            for mitigation in mitigations:
                make_mitigation(mitigation, SweepConfig(), seed)
                for scheme in schemes:
                    cells.append(
                        SweepCell(
                            index=len(cells),
                            attack=attack,
                            mitigation=mitigation,
                            scheme=scheme,
                            seed=seed,
                        )
                    )
    return cells


def _attack_result(cell: SweepCell, config: SweepConfig):
    """Simulate the attack half of a point (organization-independent)."""
    rh_config = RowHammerConfig(
        rh_threshold=config.rh_threshold,
        seed=cell.seed,
        weak_cells_per_row=config.weak_cells_per_row,
        flips_per_crossing=config.flips_per_crossing,
    )
    runner = AttackRunner(
        DisturbanceModel(rh_config),
        make_mitigation(cell.mitigation, config, cell.seed),
    )
    return (
        runner.run(
            _make_attack(cell.attack, config.victim_row),
            windows=config.windows,
            budget=config.budget,
        ),
        rh_config,
    )


class _SweepCampaign(Campaign):
    """The attack sweep as a :class:`repro.campaign.Campaign`.

    Grouping by ``(attack, mitigation, seed)`` lets the per-process memo
    below serve every organization of one attack instance from a single
    simulation — the sweep's analogue of the perf engine's shared
    content pass. Grouping only changes which worker runs a point, never
    its result: the memo key is the point's full attack-side science.
    """

    name = "hammer-sweep"

    def __init__(self, config: SweepConfig):
        self.config = config

    def fingerprint(self, cell: SweepCell) -> dict:
        return {
            "campaign": self.name,
            "sweep_version": SWEEP_VERSION,
            "attack": cell.attack,
            "mitigation": cell.mitigation,
            "scheme": cell.scheme,
            "seed": cell.seed,
            "config": asdict(self.config),
        }

    def group_key(self, cell: SweepCell):
        return (cell.attack, cell.mitigation, cell.seed)

    def run_item(self, cell: SweepCell) -> SweepOutcome:
        result, rh_config = _memoized_attack(cell, self.config)
        controller = registry.create(cell.scheme, key=SWEEP_KEY)
        array = VictimArray(
            controller,
            bits_per_row=rh_config.bits_per_row,
            base_address=cell.seed << 24,
        )
        for row in result.final_flip_bits:
            array.populate_row(row)
        array.apply_flips(result.final_flip_bits)
        consumed = array.read_all(cell.scheme)
        return SweepOutcome(
            attack=cell.attack,
            mitigation=cell.mitigation,
            scheme=cell.scheme,
            seed=cell.seed,
            total_flips=result.total_flips,
            intended_flips=result.intended_flips,
            mitigation_refreshes=result.mitigation_refreshes,
            lines_read=consumed.lines_read,
            corrected=consumed.corrected,
            detected_ue=consumed.detected_ue,
            silent_corruptions=consumed.silent_corruptions,
        )

    def serialize_result(self, cell, outcome: SweepOutcome):
        return outcome.to_json()

    def deserialize_result(self, cell, payload) -> SweepOutcome:
        return SweepOutcome.from_json(payload)

    def result_failures(self, outcome: SweepOutcome) -> int:
        return outcome.silent_corruptions


#: Per-process memo of the organization-independent attack simulation,
#: keyed by the attack-side science. Lives at module level so pool
#: workers populate it once per group and reuse it for every scheme.
_ATTACK_MEMO: dict = {}


def _memoized_attack(cell: SweepCell, config: SweepConfig):
    key = (cell.attack, cell.mitigation, cell.seed, tuple(sorted(asdict(config).items())))
    if key not in _ATTACK_MEMO:
        _ATTACK_MEMO[key] = _attack_result(cell, config)
    return _ATTACK_MEMO[key]


def run_sweep(
    cells: Sequence[SweepCell],
    config: Optional[SweepConfig] = None,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
) -> Dict[Tuple[str, str, str, int], SweepOutcome]:
    """Run every sweep point; results keyed by :attr:`SweepCell.key`.

    Bit-identical for any worker count; with a ``cache_dir`` a killed
    sweep resumes from its verified points, stored as
    ``hammer-sweep-<digest>.json`` and listed in the store's index.
    ``store`` accepts a ready store object (e.g. a
    :class:`repro.campaign.RemoteResultStore`, so concurrent sweeps
    share points) and takes precedence over ``cache_dir``. The progress
    callback receives a :class:`repro.campaign.CampaignProgress` per
    point, like every other campaign family's.
    """
    config = config or SweepConfig()
    workers = resolve_workers(workers)
    results = run_campaign(
        _SweepCampaign(config),
        cells,
        workers=workers,
        store_dir=cache_dir,
        store=store,
        progress=progress,
    )
    return {cell.key: results[cell.index] for cell in cells}


def report(
    outcomes: Dict[Tuple[str, str, str, int], SweepOutcome]
) -> str:
    """Tabulate a sweep: breakthroughs and what each scheme consumed."""
    from repro.experiments.reporting import format_table, print_banner

    print_banner("Row-Hammer attack sweep: breakthrough consumption by scheme")
    rows = []
    for key in sorted(outcomes):
        o = outcomes[key]
        verdict = (
            "SECURITY RISK"
            if o.security_risk
            else ("detected" if o.detected_ue else "held")
        )
        rows.append(
            (
                o.attack,
                o.mitigation,
                o.scheme,
                o.seed,
                o.intended_flips,
                o.corrected,
                o.detected_ue,
                o.silent_corruptions,
                verdict,
            )
        )
    table = format_table(
        [
            "Attack",
            "Mitigation",
            "Scheme",
            "Seed",
            "Flips",
            "Corrected",
            "DUE",
            "Silent",
            "Verdict",
        ],
        rows,
    )
    print(table)
    return table
