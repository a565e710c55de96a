"""Declarative attack playbooks over the Row-Hammer substrate.

The litex-rowhammer-tester analogue for this codebase: instead of
hand-writing an :class:`AttackPattern` factory per attack, a *playbook*
is a plain JSON/dict document — victim and aggressor row specs, per-phase
read counts and weights, REF gating for tracker-flush bursts, a
data-inversion toggle, sweep axes over any field — that compiles through
the shared schedule compiler of :mod:`repro.rowhammer.attacks` and runs
as a campaign (attack variants x mitigations x the full scheme registry)
through :mod:`repro.campaign`.

Playbook format (``PlaybookSpec.from_dict``)::

    {
      "name": "double-sided-decoy",        # required, unique
      "summary": "one line for `playbook list`",
      "base_row": null,                    # victim anchor; null = campaign default
      "n_rows": null,                      # bank size; null = campaign default
      "edge_policy": "clamp",              # clamp | drop | error (attacks.EDGE_POLICIES)
      "min_fill": 1,                       # floor of the fill phase's slots
      "data_inversion": false,             # consume 0x5A-filled rows instead of 0xA5
      "victims": [0],                      # ints = offsets from base_row; {"row": N} pins
      "phases": [                          # one entry per SchedulePhase
        {"rows": [-1, 1], "restart": false},          # reads omitted -> fill phase
        {"rows": [{"offset": 10, "weight": 2},        # weighted + absolute rows
                  {"row": 100}],
         "reads": 6}                                  # REF-gated burst length
      ],
      "sweep": {"phases.1.reads": [2, 6, 10]}         # axes -> expanded variants
    }

Row entries are either a bare int (an offset from the resolved base row)
or a dict with exactly one of ``offset``/``row`` plus an optional
``weight``. Sweep axes address any field of the canonical dict by dotted
path (list indices are numeric segments); :func:`expand_spec` takes the
cartesian product over all axes and names each variant
``name[path=value,...]``.

Compilation (:func:`compile_playbook`) resolves rows against the base
row, applies the edge policy once — out-of-range rows clamped into the
bank, rows landing on an intended victim dropped, out-of-range victims
dropped (see ``attacks.clip_rows``) — and hands the phases to
``attacks.compile_schedule``, so a playbook's activation stream is a
pure function of its dict: same dict, same ``(budget, ref_period)``,
bit-identical stream.

The scenario library (:data:`SCENARIOS`) registers >= 8 named playbooks,
including two TRRespass-fuzzed presets frozen from genuine
:class:`PatternFuzzer` champions via ``PatternGenome.to_playbook``.
Batch execution (:func:`plan_playbook` / :func:`run_playbook`) walks
scenario variants x mitigations x every registered scheme through
``_PlaybookCampaign`` — fingerprint-keyed resume, group scheduling by
``(scenario, mitigation, seed)`` so one attack simulation serves all
schemes of a group, ``--store-url`` for the distributed service — and
:func:`report_playbook` renders the per-scenario DUE/SDC/breakthrough
matrix. CLI::

    python -m repro playbook list
    python -m repro playbook show many-sided
    python -m repro playbook lint
    python -m repro playbook run --scenario all --workers 2 --cache-dir .pb
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign import (
    Campaign,
    ProgressCallback,
    resolve_workers,
    run_campaign,
)
from repro.core import registry
from repro.rowhammer.attacks import (
    EDGE_POLICIES,
    AttackPattern,
    SchedulePhase,
    clip_rows,
    clip_victims,
    compile_schedule,
    expand_weights,
)
from repro.rowhammer.fuzzer import PatternGenome
from repro.rowhammer.integration import VictimArray
from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner
from repro.rowhammer.sweep import (
    DEFAULT_MITIGATIONS,
    SWEEP_KEY,
    SweepConfig,
    make_mitigation,
)

#: Bumped when playbook compilation or consumption semantics change;
#: invalidates every cached playbook point.
PLAYBOOK_VERSION = 1

#: Fill pattern of consumed victim rows; ``data_inversion`` flips it so
#: anti-cell rows (charged '0' cells) are exercised too.
FILL_BYTE = b"\xa5"
INVERTED_FILL_BYTE = b"\x5a"


# ---------------------------------------------------------------------------
# Spec dataclasses + dict round-trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    """One row reference: an offset from the base row XOR an absolute row."""

    offset: Optional[int] = None
    row: Optional[int] = None
    weight: int = 1

    def __post_init__(self) -> None:
        if (self.offset is None) == (self.row is None):
            raise ValueError(
                "a row spec needs exactly one of 'offset' (relative to the "
                f"base row) or 'row' (absolute); got {self!r}"
            )
        if self.weight < 0:
            raise ValueError(f"row weight must be >= 0, got {self.weight}")

    def resolve(self, base_row: int) -> int:
        return self.row if self.row is not None else base_row + self.offset

    def to_dict(self) -> dict:
        payload: Dict[str, int] = {}
        if self.offset is not None:
            payload["offset"] = self.offset
        else:
            payload["row"] = self.row
        payload["weight"] = self.weight
        return payload


@dataclass(frozen=True)
class PhaseSpec:
    """One schedule phase: rows plus an optional REF-gated read count."""

    rows: Tuple[RowSpec, ...]
    reads: Optional[int] = None
    restart: bool = False

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a phase needs at least one row")

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "reads": self.reads,
            "restart": self.restart,
        }


@dataclass(frozen=True)
class PlaybookSpec:
    """A validated playbook document."""

    name: str
    phases: Tuple[PhaseSpec, ...]
    victims: Tuple[RowSpec, ...]
    base_row: Optional[int] = None
    n_rows: Optional[int] = None
    edge_policy: str = "clamp"
    min_fill: int = 1
    data_inversion: bool = False
    #: Sorted ``(dotted path, values)`` sweep axes.
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a playbook needs a non-empty string name")
        if not self.phases:
            raise ValueError(f"playbook {self.name!r} has no phases")
        if not self.victims:
            raise ValueError(f"playbook {self.name!r} names no victims")
        if self.edge_policy not in EDGE_POLICIES:
            raise ValueError(
                f"playbook {self.name!r}: unknown edge policy "
                f"{self.edge_policy!r}; known: {', '.join(EDGE_POLICIES)}"
            )
        if self.min_fill < 1:
            raise ValueError(
                f"playbook {self.name!r}: min_fill must be >= 1, "
                f"got {self.min_fill}"
            )

    @property
    def fill_byte(self) -> bytes:
        return INVERTED_FILL_BYTE if self.data_inversion else FILL_BYTE

    # -- dict round-trip -----------------------------------------------------

    _FIELDS = (
        "name",
        "summary",
        "base_row",
        "n_rows",
        "edge_policy",
        "min_fill",
        "data_inversion",
        "victims",
        "phases",
        "sweep",
    )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlaybookSpec":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown playbook field(s) {', '.join(unknown)}; "
                f"known: {', '.join(cls._FIELDS)}"
            )
        name = payload.get("name", "")
        phases = tuple(
            _phase_from_dict(name, index, entry)
            for index, entry in enumerate(payload.get("phases", ()))
        )
        victims = tuple(
            _row_from_entry(entry) for entry in payload.get("victims", ())
        )
        sweep_payload = payload.get("sweep", {})
        if not isinstance(sweep_payload, Mapping):
            raise ValueError(
                f"playbook {name!r}: 'sweep' must map dotted paths to "
                "value lists"
            )
        sweep = []
        for path in sorted(sweep_payload):
            values = sweep_payload[path]
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"playbook {name!r}: sweep axis {path!r} needs a "
                    "non-empty value list"
                )
            sweep.append((path, tuple(values)))
        return cls(
            name=name,
            phases=phases,
            victims=victims,
            base_row=payload.get("base_row"),
            n_rows=payload.get("n_rows"),
            edge_policy=payload.get("edge_policy", "clamp"),
            min_fill=payload.get("min_fill", 1),
            data_inversion=bool(payload.get("data_inversion", False)),
            sweep=tuple(sweep),
            summary=payload.get("summary", ""),
        )

    def to_dict(self) -> dict:
        """The canonical dict form: every field present, rows as dicts.

        Canonical means sweep paths always resolve and two specs compare
        equal iff their dicts do — the form fingerprints embed.
        """
        return {
            "name": self.name,
            "summary": self.summary,
            "base_row": self.base_row,
            "n_rows": self.n_rows,
            "edge_policy": self.edge_policy,
            "min_fill": self.min_fill,
            "data_inversion": self.data_inversion,
            "victims": [victim.to_dict() for victim in self.victims],
            "phases": [phase.to_dict() for phase in self.phases],
            "sweep": {path: list(values) for path, values in self.sweep},
        }


def _row_from_entry(entry) -> RowSpec:
    if isinstance(entry, bool):
        raise ValueError(f"row entry {entry!r} is not an int or mapping")
    if isinstance(entry, int):
        return RowSpec(offset=entry)
    if isinstance(entry, Mapping):
        unknown = sorted(set(entry) - {"offset", "row", "weight"})
        if unknown:
            raise ValueError(
                f"unknown row field(s) {', '.join(unknown)}; "
                "known: offset, row, weight"
            )
        return RowSpec(
            offset=entry.get("offset"),
            row=entry.get("row"),
            weight=entry.get("weight", 1),
        )
    raise ValueError(f"row entry {entry!r} is not an int or mapping")


def _phase_from_dict(name: str, index: int, entry) -> PhaseSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(
            f"playbook {name!r}: phase {index} must be a mapping, "
            f"got {entry!r}"
        )
    unknown = sorted(set(entry) - {"rows", "reads", "restart"})
    if unknown:
        raise ValueError(
            f"playbook {name!r}: unknown phase field(s) "
            f"{', '.join(unknown)}; known: rows, reads, restart"
        )
    return PhaseSpec(
        rows=tuple(_row_from_entry(row) for row in entry.get("rows", ())),
        reads=entry.get("reads"),
        restart=bool(entry.get("restart", False)),
    )


# ---------------------------------------------------------------------------
# Compilation + sweep-axis expansion
# ---------------------------------------------------------------------------


def compile_playbook(
    spec: PlaybookSpec,
    base_row: Optional[int] = None,
    n_rows: Optional[int] = None,
) -> AttackPattern:
    """Compile a playbook into an :class:`AttackPattern`.

    ``base_row``/``n_rows`` are campaign defaults: the spec's own fields
    win when set. ``n_rows=None`` (both places) leaves the bank unbounded
    above — only the ``row >= 0`` edge applies.
    """
    base = spec.base_row if spec.base_row is not None else base_row
    if base is None:
        raise ValueError(
            f"playbook {spec.name!r} pins no base_row; pass one "
            "(the campaign's victim_row)"
        )
    bank = spec.n_rows if spec.n_rows is not None else n_rows
    victims = clip_victims(
        [victim.resolve(base) for victim in spec.victims],
        bank,
        spec.edge_policy,
    )
    phases: List[SchedulePhase] = []
    aggressors: List[int] = []
    for index, phase in enumerate(spec.phases):
        pairs = clip_rows(
            [(row.resolve(base), row.weight) for row in phase.rows],
            victims,
            bank,
            spec.edge_policy,
        )
        try:
            rows = expand_weights(pairs)
        except ValueError as exc:
            raise ValueError(
                f"playbook {spec.name!r}: phase {index} is empty after the "
                f"{spec.edge_policy!r} edge policy ({exc})"
            ) from None
        for row in rows:
            if row not in aggressors:
                aggressors.append(row)
        phases.append(
            SchedulePhase(rows=rows, reads=phase.reads, restart=phase.restart)
        )
    return AttackPattern(
        name=spec.name,
        aggressors=tuple(aggressors),
        intended_victims=victims,
        schedule=compile_schedule(phases, min_fill=spec.min_fill),
    )


def _set_path(payload: dict, path: str, value) -> None:
    """Set a dotted path inside the canonical dict (lists by index)."""
    segments = path.split(".")
    cursor = payload
    walked = []
    for segment in segments[:-1]:
        walked.append(segment)
        if isinstance(cursor, list):
            try:
                cursor = cursor[int(segment)]
            except (ValueError, IndexError):
                raise ValueError(
                    f"sweep path {path!r}: no list index {segment!r} "
                    f"at {'.'.join(walked)}"
                ) from None
        elif isinstance(cursor, dict):
            if segment not in cursor:
                raise ValueError(
                    f"sweep path {path!r}: no field {segment!r} "
                    f"at {'.'.join(walked)}"
                )
            cursor = cursor[segment]
        else:
            raise ValueError(
                f"sweep path {path!r}: {'.'.join(walked[:-1])} is not "
                "a container"
            )
    leaf = segments[-1]
    if isinstance(cursor, list):
        try:
            cursor[int(leaf)] = value
        except (ValueError, IndexError):
            raise ValueError(
                f"sweep path {path!r}: no list index {leaf!r}"
            ) from None
    elif isinstance(cursor, dict):
        cursor[leaf] = value
    else:
        raise ValueError(f"sweep path {path!r} does not address a field")


def expand_spec(spec: PlaybookSpec) -> List[PlaybookSpec]:
    """Expand sweep axes into concrete variants (axes in sorted order).

    A sweep-free playbook expands to itself; axes expand to the cartesian
    product, each variant named ``name[path=value,...]`` and re-validated
    through :meth:`PlaybookSpec.from_dict`.
    """
    if not spec.sweep:
        return [spec]
    paths = [path for path, _ in spec.sweep]
    variants: List[PlaybookSpec] = []
    for combo in itertools.product(*(values for _, values in spec.sweep)):
        payload = spec.to_dict()
        payload["sweep"] = {}
        for path, value in zip(paths, combo):
            _set_path(payload, path, value)
        payload["name"] = "{}[{}]".format(
            spec.name,
            ",".join(f"{path}={value}" for path, value in zip(paths, combo)),
        )
        variants.append(PlaybookSpec.from_dict(payload))
    return variants


# ---------------------------------------------------------------------------
# Scenario library
# ---------------------------------------------------------------------------

#: TRRespass-fuzzed presets: champions of genuine :class:`PatternFuzzer`
#: runs in the campaign regime (rh_threshold=1200, budget=120k,
#: victim=64), frozen so the library stays deterministic. fuzzed-trr is
#: the seed-10 winner against TRRMitigation(table_size=4); fuzzed-para
#: the seed-7 winner against PARA(0.002).
_FUZZED_TRR = PatternGenome(
    aggressors=((1, 4), (-1, 2)),
    flush_rows=(30, 14, 25, 57, 33, 12, 36, 18, 48),
    flush_burst=4,
)
_FUZZED_PARA = PatternGenome(aggressors=((1, 3),), flush_rows=(), flush_burst=0)

#: The named scenario library, in registration order.
SCENARIOS: Dict[str, PlaybookSpec] = {}


def register_scenario(payload: Mapping) -> PlaybookSpec:
    """Validate and register a playbook under its name (names are unique)."""
    spec = PlaybookSpec.from_dict(payload)
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def scenario(name: str) -> PlaybookSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None


_LIBRARY: Tuple[dict, ...] = (
    {
        "name": "one-location",
        "summary": "hammer a single aggressor; both neighbours are victims",
        "victims": [-2, 0],
        "phases": [{"rows": [-1]}],
    },
    {
        "name": "single-sided",
        "summary": "two non-adjacent aggressors hammered alternately",
        "victims": [-2, 0, 19, 21],
        "phases": [{"rows": [-1, 20]}],
    },
    {
        "name": "double-sided",
        "summary": "the classic strongest pattern: both victim neighbours",
        "victims": [0],
        "phases": [{"rows": [-1, 1]}],
    },
    {
        "name": "double-sided-decoy",
        "summary": "double-sided diluted with low-weight decoy rows",
        "victims": [0],
        "phases": [
            {
                "rows": [
                    {"offset": -1, "weight": 4},
                    {"offset": 1, "weight": 4},
                    {"offset": 15, "weight": 1},
                    {"offset": 22, "weight": 1},
                ]
            }
        ],
    },
    {
        "name": "many-sided",
        "summary": "TRRespass: aggressor pair + REF-gated dummy flush burst",
        "victims": [0],
        "min_fill": 2,
        "phases": [
            {"rows": [-1, 1], "restart": True},
            {
                "rows": [10 + 4 * i for i in range(12)],
                "reads": 6,
            },
        ],
    },
    {
        "name": "half-double",
        "summary": "distance-2 aggressors; the mitigation supplies the hammer",
        "victims": [0],
        "phases": [{"rows": [-2, 2]}],
    },
    {
        "name": "edge-double",
        "summary": "double-sided at row 0: the clamp policy degrades it",
        "base_row": 0,
        "victims": [0],
        "phases": [{"rows": [-1, 1]}],
    },
    _FUZZED_TRR.to_playbook(
        "fuzzed-trr",
        summary="frozen fuzzer champion vs TRR (seed 10, 25 trials)",
    ),
    _FUZZED_PARA.to_playbook(
        "fuzzed-para",
        summary="frozen fuzzer champion vs PARA (seed 7, 30 trials)",
    ),
    {
        "name": "trrespass-burst-sweep",
        "summary": "many-sided swept over the tracker-flush burst length",
        "victims": [0],
        "min_fill": 2,
        "phases": [
            {"rows": [-1, 1], "restart": True},
            {
                "rows": [10 + 4 * i for i in range(12)],
                "reads": 6,
            },
        ],
        "sweep": {"phases.1.reads": [2, 6, 10]},
    },
)

for _payload in _LIBRARY:
    register_scenario(_payload)
del _payload


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------


@dataclass
class PlaybookConfig(SweepConfig):
    """Shared knobs of one playbook campaign (extends the sweep regime)."""

    #: Bank size the edge policy clamps against (model default).
    n_rows: int = 128


@dataclass(frozen=True)
class PlaybookCell:
    """One playbook point: scenario variant x mitigation x scheme x seed."""

    index: int
    scenario: str
    variant: str
    mitigation: str
    scheme: str
    seed: int

    @property
    def key(self) -> Tuple[str, str, str, int]:
        return (self.variant, self.mitigation, self.scheme, self.seed)


@dataclass
class PlaybookOutcome:
    """What one playbook point observed, attack side and consumption side."""

    scenario: str
    variant: str
    mitigation: str
    scheme: str
    seed: int
    total_flips: int = 0
    intended_flips: int = 0
    mitigation_refreshes: int = 0
    blocked_activations: int = 0
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
    def from_json(cls, payload: dict) -> "PlaybookOutcome":
        return cls(**payload)


def _resolve_variants(
    scenario_name: str, extra_specs: Optional[Mapping[str, dict]] = None
) -> Dict[str, PlaybookSpec]:
    """A scenario's expanded variants, name -> spec (expansion order)."""
    if extra_specs and scenario_name in extra_specs:
        spec = PlaybookSpec.from_dict(extra_specs[scenario_name])
    else:
        spec = scenario(scenario_name)
    return {variant.name: variant for variant in expand_spec(spec)}


class _PlaybookCampaign(Campaign):
    """Playbook execution as a :class:`repro.campaign.Campaign`.

    The grouping mirrors the hammer sweep: the attack simulation is
    organization-independent, so grouping by ``(scenario, mitigation,
    seed)`` lets the per-process memo serve every scheme of one variant
    from a single simulation. ``extra_specs`` carries file-loaded
    playbooks by value so worker processes (which only receive the
    pickled campaign) can resolve them.
    """

    name = "playbook"

    def __init__(
        self,
        config: PlaybookConfig,
        extra_specs: Optional[Mapping[str, dict]] = None,
    ):
        self.config = config
        self.extra_specs = dict(extra_specs or {})

    def _spec(self, cell: PlaybookCell) -> PlaybookSpec:
        variants = _resolve_variants(cell.scenario, self.extra_specs)
        try:
            return variants[cell.variant]
        except KeyError:
            raise ValueError(
                f"scenario {cell.scenario!r} has no variant "
                f"{cell.variant!r}; known: {', '.join(variants)}"
            ) from None

    def fingerprint(self, cell: PlaybookCell) -> dict:
        return {
            "campaign": self.name,
            "playbook_version": PLAYBOOK_VERSION,
            "scenario": cell.scenario,
            "spec": self._spec(cell).to_dict(),
            "mitigation": cell.mitigation,
            "scheme": cell.scheme,
            "seed": cell.seed,
            "config": asdict(self.config),
        }

    def group_key(self, cell: PlaybookCell):
        return (cell.scenario, cell.mitigation, cell.seed)

    def run_item(self, cell: PlaybookCell) -> PlaybookOutcome:
        spec = self._spec(cell)
        result, rh_config = _memoized_attack(spec, cell, self.config)
        controller = registry.create(cell.scheme, key=SWEEP_KEY)
        array = VictimArray(
            controller,
            bits_per_row=rh_config.bits_per_row,
            base_address=cell.seed << 24,
            fill_byte=spec.fill_byte,
        )
        for row in result.final_flip_bits:
            array.populate_row(row)
        array.apply_flips(result.final_flip_bits)
        consumed = array.read_all(cell.scheme)
        return PlaybookOutcome(
            scenario=cell.scenario,
            variant=cell.variant,
            mitigation=cell.mitigation,
            scheme=cell.scheme,
            seed=cell.seed,
            total_flips=result.total_flips,
            intended_flips=result.intended_flips,
            mitigation_refreshes=result.mitigation_refreshes,
            blocked_activations=result.blocked_activations,
            lines_read=consumed.lines_read,
            corrected=consumed.corrected,
            detected_ue=consumed.detected_ue,
            silent_corruptions=consumed.silent_corruptions,
        )

    def serialize_result(self, cell, outcome: PlaybookOutcome):
        return outcome.to_json()

    def deserialize_result(self, cell, payload) -> PlaybookOutcome:
        return PlaybookOutcome.from_json(payload)

    def result_failures(self, outcome: PlaybookOutcome) -> int:
        return outcome.silent_corruptions


def _attack_result(spec: PlaybookSpec, cell: PlaybookCell, config: PlaybookConfig):
    """Simulate the attack half of a point (organization-independent)."""
    rh_config = RowHammerConfig(
        n_rows=config.n_rows,
        rh_threshold=config.rh_threshold,
        seed=cell.seed,
        weak_cells_per_row=config.weak_cells_per_row,
        flips_per_crossing=config.flips_per_crossing,
    )
    runner = AttackRunner(
        DisturbanceModel(rh_config),
        make_mitigation(cell.mitigation, config, cell.seed),
    )
    pattern = compile_playbook(
        spec, base_row=config.victim_row, n_rows=config.n_rows
    )
    return (
        runner.run(pattern, windows=config.windows, budget=config.budget),
        rh_config,
    )


#: Per-process memo of the organization-independent attack simulation.
#: The key embeds the variant's full canonical dict (not just its name)
#: so redefined file-loaded playbooks never collide across campaigns in
#: one process.
_PLAYBOOK_MEMO: dict = {}


def _memoized_attack(spec: PlaybookSpec, cell: PlaybookCell, config: PlaybookConfig):
    key = (
        json.dumps(spec.to_dict(), sort_keys=True),
        cell.mitigation,
        cell.seed,
        tuple(sorted(asdict(config).items())),
    )
    if key not in _PLAYBOOK_MEMO:
        _PLAYBOOK_MEMO[key] = _attack_result(spec, cell, config)
    return _PLAYBOOK_MEMO[key]


def plan_playbook(
    scenarios: Optional[Sequence[str]] = None,
    mitigations: Sequence[str] = DEFAULT_MITIGATIONS,
    schemes: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (3,),
    config: Optional[PlaybookConfig] = None,
    extra_playbooks: Sequence[Mapping] = (),
) -> List[PlaybookCell]:
    """The full playbook grid; validates and compiles everything eagerly.

    ``scenarios=None`` takes the whole library plus every entry of
    ``extra_playbooks`` (ad-hoc dicts, e.g. loaded from ``--file``);
    ``schemes=None`` takes the full registry — the paper's grid spans
    all 8 organizations.
    """
    config = config or PlaybookConfig()
    extras = {payload["name"]: dict(payload) for payload in extra_playbooks}
    for name in extras:
        if name in SCENARIOS:
            raise ValueError(
                f"extra playbook {name!r} shadows a library scenario"
            )
    names = (
        list(scenarios)
        if scenarios is not None
        else list(SCENARIOS) + sorted(extras)
    )
    scheme_names = list(schemes) if schemes is not None else registry.names()
    for name in scheme_names:
        registry.scheme(name)  # unknown names raise with the full list
    for mitigation in mitigations:
        make_mitigation(mitigation, config, seeds[0] if seeds else 0)
    cells: List[PlaybookCell] = []
    for seed in seeds:
        for name in names:
            variants = _resolve_variants(name, extras)
            for variant_name, variant in variants.items():
                compile_playbook(
                    variant, base_row=config.victim_row, n_rows=config.n_rows
                )
                for mitigation in mitigations:
                    for scheme_name in scheme_names:
                        cells.append(
                            PlaybookCell(
                                index=len(cells),
                                scenario=name,
                                variant=variant_name,
                                mitigation=mitigation,
                                scheme=scheme_name,
                                seed=seed,
                            )
                        )
    return cells


def run_playbook(
    cells: Sequence[PlaybookCell],
    config: Optional[PlaybookConfig] = None,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    store=None,
    progress: Optional[ProgressCallback] = None,
    extra_playbooks: Sequence[Mapping] = (),
) -> Dict[Tuple[str, str, str, int], PlaybookOutcome]:
    """Run every playbook point; results keyed by :attr:`PlaybookCell.key`.

    Inherits the full campaign contract: bit-identical for any worker
    count, fingerprint-verified resume from ``cache_dir``, and ``store``
    (e.g. a :class:`repro.campaign.RemoteResultStore`) for the
    distributed service.
    """
    config = config or PlaybookConfig()
    workers = resolve_workers(workers)
    extras = {payload["name"]: dict(payload) for payload in extra_playbooks}
    results = run_campaign(
        _PlaybookCampaign(config, extras),
        cells,
        workers=workers,
        store_dir=cache_dir,
        store=store,
        progress=progress,
    )
    return {cell.key: results[cell.index] for cell in cells}


# ---------------------------------------------------------------------------
# Reporting + lint
# ---------------------------------------------------------------------------


def _verdict(outcome: PlaybookOutcome) -> str:
    if outcome.silent_corruptions > 0:
        return "RISK"
    if outcome.detected_ue > 0:
        return "DUE"
    if outcome.corrected > 0:
        return "corr"
    return "held" if outcome.broke_through else "-"


def report_playbook(
    outcomes: Mapping[Tuple[str, str, str, int], PlaybookOutcome]
) -> str:
    """The per-scenario DUE/SDC/breakthrough matrix across all schemes.

    One row per (variant, mitigation, seed); one column per scheme with
    the consumption verdict — ``-`` (no breakthrough), ``held``
    (breakthrough fully absorbed), ``corr`` (corrected), ``DUE``
    (detected uncorrectable), ``RISK`` (silent corruption). A
    breakthrough summary follows: which mitigations each scenario broke,
    and which schemes let any breakthrough through silently.
    """
    from repro.experiments.reporting import format_table, print_banner

    schemes = sorted({key[2] for key in outcomes})
    labels = {name: f"S{i + 1}" for i, name in enumerate(schemes)}
    by_row: Dict[Tuple[str, str, int], Dict[str, PlaybookOutcome]] = {}
    for (variant, mitigation, scheme_name, seed), outcome in outcomes.items():
        by_row.setdefault((variant, mitigation, seed), {})[scheme_name] = outcome
    lines: List[str] = []
    print_banner("Attack playbook: consumption verdict by scheme")
    for name in schemes:
        lines.append(f"{labels[name]} = {name}")
    rows = []
    for variant, mitigation, seed in sorted(by_row):
        per_scheme = by_row[(variant, mitigation, seed)]
        sample = next(iter(per_scheme.values()))
        rows.append(
            [variant, mitigation, seed, sample.intended_flips,
             sample.mitigation_refreshes]
            + [
                _verdict(per_scheme[name]) if name in per_scheme else ""
                for name in schemes
            ]
        )
    lines.append(
        format_table(
            ["Scenario", "Mitigation", "Seed", "Flips", "Refr"]
            + [labels[name] for name in schemes],
            rows,
        )
    )
    broke: Dict[str, List[str]] = {}
    risky: Dict[str, List[str]] = {}
    for (variant, mitigation, _seed), per_scheme in sorted(by_row.items()):
        sample = next(iter(per_scheme.values()))
        if sample.broke_through and mitigation not in broke.setdefault(variant, []):
            broke[variant].append(mitigation)
        for name in schemes:
            outcome = per_scheme.get(name)
            if (
                outcome is not None
                and outcome.security_risk
                and name not in risky.setdefault(variant, [])
            ):
                risky[variant].append(name)
    lines.append("")
    lines.append("Breakthroughs:")
    for variant in sorted(by_row and {key[0] for key in by_row}):
        mitigations = broke.get(variant, [])
        schemes_at_risk = risky.get(variant, [])
        lines.append(
            "  {}: broke [{}]; silent corruption in [{}]".format(
                variant,
                ", ".join(mitigations) if mitigations else "none",
                ", ".join(schemes_at_risk) if schemes_at_risk else "none",
            )
        )
    text = "\n".join(lines)
    print(text)
    return text


def lint_scenarios(config: Optional[PlaybookConfig] = None) -> List[str]:
    """Compile every library scenario (all variants); raises on errors.

    Returns one summary line per scenario — the CI lint step's output.
    """
    config = config or PlaybookConfig()
    lines = []
    for name in SCENARIOS:
        variants = _resolve_variants(name)
        n_aggressors = []
        for variant in variants.values():
            pattern = compile_playbook(
                variant, base_row=config.victim_row, n_rows=config.n_rows
            )
            n_aggressors.append(len(pattern.aggressors))
        lines.append(
            f"{name}: {len(variants)} variant(s), "
            f"aggressor rows {sorted(set(n_aggressors))} — OK"
        )
    return lines
