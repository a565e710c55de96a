"""Differential and physical-law tests of the Row-Hammer hot path.

Three parts:

- the production :meth:`AttackRunner.run` loop and the schedule compiler
  against their per-activation reference loops (``tests/rowhammer_oracle.py``),
  over random disturbance configs, every attack factory (bank edges
  included), the playbook library, fuzzer genomes and every mitigation;
- the one-batch MAC correction search of SafeGuard-SECDED and
  SafeGuard-Chipkill against a per-candidate loop, under both
  ``REPRO_KERNELS`` modes;
- physical laws the disturbance model must obey on the production runner.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.chipkill import SafeGuardChipkill
from repro.core.config import SafeGuardConfig
from repro.core.pipeline import AccessContext
from repro.core.secded import SafeGuardSECDED
from repro.core.types import ReadResult, ReadStatus
from repro.ecc.parity import column_parity, recover_chip, recover_pin, spread_beats
from repro.rowhammer import playbook
from repro.rowhammer.attacks import (
    SchedulePhase,
    compile_schedule,
    double_sided,
    half_double,
    many_sided,
    single_sided,
)
from repro.rowhammer.blockhammer import BlockHammerMitigation, CountingBloomFilter
from repro.rowhammer.fuzzer import PatternGenome
from repro.rowhammer.mitigations import (
    PARA,
    GrapheneMitigation,
    Mitigation,
    NoMitigation,
    TRRMitigation,
)
from repro.rowhammer.model import REFS_PER_WINDOW, DisturbanceModel, RowHammerConfig
from repro.rowhammer.runner import AttackRunner
from repro.switches import KERNELS
from tests.rowhammer_oracle import oracle_poisson, oracle_run, oracle_schedule

FACTORIES = {
    "single-sided": single_sided,
    "double-sided": double_sided,
    "many-sided": many_sided,
    "half-double": half_double,
}

DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- strategies ------------------------------------------------------------------


@st.composite
def rh_configs(draw):
    bits_per_row = draw(st.sampled_from([64, 512, 1024, 8192]))
    return RowHammerConfig(
        n_rows=draw(st.integers(4, 160)),
        bits_per_row=bits_per_row,
        rh_threshold=draw(st.integers(1, 400)),
        coupling_d1=draw(st.sampled_from([1.0, 0.5, 1.5, 0.3])),
        coupling_d2=draw(st.sampled_from([0.003, 0.25, 0.0, 1.0])),
        blast_radius=draw(st.integers(1, 3)),
        weak_cells_per_row=draw(st.integers(0, min(64, bits_per_row))),
        flips_per_crossing=draw(st.sampled_from([2.0, 6.0, 0.5, 0.0])),
        seed=draw(st.integers(0, 2**16)),
    )


class ThrottledTracker(BlockHammerMitigation):
    """BlockHammer throttling plus REF-time refreshes of the last row.

    No library mitigation both throttles and refreshes at REF, so this
    one covers the runner's blocked-slot REF path.
    """

    name = "throttled-tracker"

    def __init__(self, design_threshold: int, seed: int):
        super().__init__(design_threshold=design_threshold, n_counters=32, seed=seed)
        self.last = None

    def on_activate(self, row):
        self.last = row
        return []

    def on_refresh_command(self):
        return [] if self.last is None else [self.last - 1, self.last + 1]


@st.composite
def mitigation_specs(draw):
    kind = draw(
        st.sampled_from(
            ["none", "para", "trr", "graphene", "blockhammer", "throttled-tracker"]
        )
    )
    if kind == "para":
        return (kind, draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0])),
                draw(st.integers(0, 99)))
    if kind == "trr":
        return (kind, draw(st.integers(1, 6)))
    if kind == "graphene":
        return (kind, draw(st.integers(4, 2000)), draw(st.integers(100, 20_000)))
    if kind in ("blockhammer", "throttled-tracker"):
        return (kind, draw(st.integers(4, 600)), draw(st.integers(0, 99)))
    return (kind,)


def build_mitigation(spec) -> Mitigation:
    kind = spec[0]
    if kind == "para":
        return PARA(probability=spec[1], seed=spec[2])
    if kind == "trr":
        return TRRMitigation(table_size=spec[1])
    if kind == "graphene":
        return GrapheneMitigation(design_threshold=spec[1], window_activations=spec[2])
    if kind == "blockhammer":
        return BlockHammerMitigation(design_threshold=spec[1], n_counters=64, seed=spec[2])
    if kind == "throttled-tracker":
        return ThrottledTracker(design_threshold=spec[1], seed=spec[2])
    return NoMitigation()


@st.composite
def attacks(draw, n_rows):
    """A zero-argument attack builder (patterns are rebuilt per run)."""
    source = draw(st.sampled_from(["factory", "playbook", "genome"]))
    bank = draw(st.sampled_from([None, n_rows]))
    if source == "factory":
        name = draw(st.sampled_from(sorted(FACTORIES)))
        target = draw(
            st.sampled_from([0, 1, n_rows - 2, n_rows - 1, n_rows // 2])
            | st.integers(0, n_rows - 1)
        )
        try:
            FACTORIES[name](target, n_rows=bank)
        except ValueError:
            # The attack does not fit this bank (every aggressor clipped).
            assume(False)
        return lambda: FACTORIES[name](target, n_rows=bank)
    if source == "playbook":
        variants = [
            variant
            for name in sorted(playbook.SCENARIOS)
            for variant in playbook.expand_spec(playbook.scenario(name))
        ]
        spec = draw(st.sampled_from(variants))
        base = draw(st.integers(3, max(3, n_rows - 4)))
        try:
            playbook.compile_playbook(spec, base_row=base, n_rows=bank)
        except ValueError:
            # The scenario does not fit this bank (a phase clipped empty).
            assume(False)
        return lambda: playbook.compile_playbook(spec, base_row=base, n_rows=bank)
    aggressors = tuple(
        draw(
            st.lists(
                st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4)),
                min_size=1,
                max_size=4,
            )
        )
    )
    flush = tuple(draw(st.lists(st.integers(2, 40), max_size=6)))
    genome = PatternGenome(aggressors, flush, draw(st.integers(0, 6)) if flush else 0)
    victim = draw(st.integers(0, n_rows - 1))
    return lambda: genome.to_attack(victim)


# -- state capture ---------------------------------------------------------------


def _state(obj) -> dict:
    """Comparable snapshot of an object's attributes (RNGs by state)."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, CountingBloomFilter):
            value = _state(value)
        elif isinstance(value, OrderedDict):
            value = list(value.items())
        elif callable(value):
            continue
        out[name] = value
    return out


def _run_instrumented(run, rh_config, mitigation_spec, make_attack, windows, budget,
                      refs_per_window):
    """Run once; returns (result, per-window model snapshots, end states)."""
    model = DisturbanceModel(rh_config)
    mitigation = build_mitigation(mitigation_spec)
    snapshots = []
    window_end = mitigation.on_window_end

    def spy_window_end():
        # Called before the closing auto-refresh: the window's full state.
        snapshots.append(
            (
                list(model._disturbance.items()),
                [(row, sorted(bits)) for row, bits in model.flipped.items()],
                model.activations,
                model.mitigation_refreshes,
                model._rng.getstate(),
                _state(mitigation),
            )
        )
        window_end()

    mitigation.on_window_end = spy_window_end
    runner = AttackRunner(model, mitigation, refs_per_window=refs_per_window)
    result = run(runner, make_attack(), windows=windows, budget=budget)
    model_state = _state(model)
    # A cache of the config's couplings, which the oracle never fills.
    del model_state["_neighbor_table"]
    return result, snapshots, model_state, _state(mitigation)


def _assert_same_run(new, old):
    (result, snaps, model_state, mit_state) = new
    (o_result, o_snaps, o_model_state, o_mit_state) = old
    assert result == o_result
    # Dict equality ignores order; the flip accounting must also match in
    # insertion order (downstream consumers iterate these dicts).
    assert list(result.flips_by_row.items()) == list(o_result.flips_by_row.items())
    assert list(result.final_flip_bits.items()) == list(
        o_result.final_flip_bits.items()
    )
    assert snaps == o_snaps
    assert model_state == o_model_state
    assert mit_state == o_mit_state


# -- the runner against its oracle -----------------------------------------------


class TestRunnerMatchesOracle:
    @DIFFERENTIAL
    @given(data=st.data())
    def test_random_configs_attacks_and_mitigations(self, data):
        rh_config = data.draw(rh_configs())
        spec = data.draw(mitigation_specs())
        make_attack = data.draw(attacks(rh_config.n_rows))
        windows = data.draw(st.integers(1, 3))
        # ref_period = budget // refs_per_window: 1 at the real REF count
        # for small budgets, > 1 with a short REF schedule.
        refs_per_window = data.draw(st.sampled_from([REFS_PER_WINDOW, 64, 7]))
        budget = data.draw(st.integers(0, 2500))
        args = (rh_config, spec, make_attack, windows, budget, refs_per_window)
        new = _run_instrumented(AttackRunner.run, *args)
        old = _run_instrumented(oracle_run, *args)
        _assert_same_run(new, old)

    @pytest.mark.parametrize("mitigation", ["none", "para", "trr", "graphene",
                                            "blockhammer"])
    def test_sweep_regime_at_ref_period_two(self, mitigation):
        # 2 * REFS_PER_WINDOW ACTs: the real REF schedule with ref_period 2.
        spec = {
            "none": ("none",),
            "para": ("para", 0.002, 7),
            "trr": ("trr", 4),
            "graphene": ("graphene", 1200, 2 * REFS_PER_WINDOW),
            "blockhammer": ("blockhammer", 1200, 3),
        }[mitigation]
        rh_config = RowHammerConfig(
            rh_threshold=1200, weak_cells_per_row=64, flips_per_crossing=6.0, seed=3
        )
        for factory in FACTORIES.values():
            args = (rh_config, spec, lambda: factory(64), 1, 2 * REFS_PER_WINDOW,
                    REFS_PER_WINDOW)
            _assert_same_run(
                _run_instrumented(AttackRunner.run, *args),
                _run_instrumented(oracle_run, *args),
            )

    def test_instance_level_hooks_are_called(self):
        # A hook overridden on the instance is not the inherited no-op.
        def make():
            mitigation = NoMitigation()
            mitigation.on_activate = lambda row: [row + 1]
            mitigation.on_refresh_command = lambda: [5]
            return mitigation

        rh_config = RowHammerConfig(n_rows=32, rh_threshold=20, seed=1)
        results = []
        for run in (AttackRunner.run, oracle_run):
            runner = AttackRunner(DisturbanceModel(rh_config), make())
            results.append(run(runner, double_sided(16), budget=400))
        assert results[0] == results[1]
        assert results[0].mitigation_refreshes == 800


class TestPoissonMatchesOracle:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32), lams=st.lists(
        st.sampled_from([0, -1.0, 1e-9, 0.5, 2.0, 6.0, 19.0, 48.0, 64]), max_size=40))
    def test_same_draws_and_rng_state(self, seed, lams):
        model = DisturbanceModel(RowHammerConfig(seed=seed))
        reference = random.Random()
        reference.setstate(model._rng.getstate())
        assert [model._poisson(lam) for lam in lams] == [
            oracle_poisson(reference, lam) for lam in lams
        ]
        assert model._rng.getstate() == reference.getstate()


class TestScheduleMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        phases=st.lists(
            st.builds(
                SchedulePhase,
                rows=st.lists(st.integers(-3, 200), min_size=1, max_size=5).map(tuple),
                reads=st.none() | st.integers(1, 9),
                restart=st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda ps: sum(p.reads is None for p in ps) <= 1),
        budget=st.integers(-2, 400),
        ref_period=st.integers(1, 30),
        min_fill=st.integers(1, 5),
    )
    def test_streams_are_identical(self, phases, budget, ref_period, min_fill):
        stream = compile_schedule(phases, min_fill=min_fill)(budget, ref_period)
        assert list(stream) == list(
            oracle_schedule(phases, budget, ref_period, min_fill)
        )


# -- the batched correction search against a per-candidate loop -------------------


class LoopSECDED(SafeGuardSECDED):
    """SafeGuard-SECDED whose step 3 checks one pin candidate at a time."""

    def _read_with_column_parity(self, ctx, address, raw, fields):
        parity, mac = fields["parity"], fields["mac"]
        if self.columns.eager_ready:
            pin = self.columns.last
            self._iterate(ctx, pin)
            repaired = recover_pin(raw, pin, parity)
            if self.mac.matches(ctx, repaired, address, mac):
                if repaired == raw:
                    self.columns.note_clean()
                    return self._result(ctx, raw, ReadStatus.CLEAN)
                self.columns.note_hit(pin)
                return self._result(ctx, repaired, ReadStatus.CORRECTED_COLUMN, pin)
            self.columns.note_clean()
        if self.mac.matches(ctx, raw, address, mac):
            self.columns.note_clean()
            return self._result(ctx, raw, ReadStatus.CLEAN)
        decode = self._ecc1.correct(
            self.payload_layout.pack(data=raw, parity=parity, mac=mac), fields["ecc1"]
        )
        payload = self.payload_layout.unpack(decode.data)
        if self.mac.matches(ctx, payload["data"], address, payload["mac"]):
            self.columns.note_clean()
            return self._result(
                ctx, payload["data"], ReadStatus.CORRECTED_BIT, decode.corrected_bit
            )
        for pin in self.columns.candidates():
            self._iterate(ctx, pin)
            repaired = recover_pin(raw, pin, parity)
            if self.mac.matches(ctx, repaired, address, mac):
                self.columns.note_hit(pin)
                return self._result(ctx, repaired, ReadStatus.CORRECTED_COLUMN, pin)
        return self._due(ctx, raw)


class LoopChipkill(SafeGuardChipkill):
    """SafeGuard-Chipkill whose search checks one chip candidate at a time."""

    def _search(self, ctx, address, raw, mac, parity, exclude=None):
        for chip in self.chips.candidates(exclude):
            self._iterate(ctx, chip)
            repaired_line, repaired_mac = recover_chip(raw, mac, parity, chip)
            if not self.mac.matches(ctx, repaired_line, address, repaired_mac):
                continue
            if self.chips.note_repair(chip):
                return self._due(ctx, raw)
            self._maybe_spare(address, raw, repaired_line)
            return self._result(ctx, repaired_line, ReadStatus.CORRECTED_CHIP, chip)
        return self._due(ctx, raw)


@st.composite
def fault_plans(draw, chipkill: bool):
    """Per-line faults: (kind, parameters) for each of a few lines."""
    kinds = ["none", "multi", "meta"] + (["chip", "mac-chip"] if chipkill else ["pin"])
    plan = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "pin":
            plan.append((kind, draw(st.integers(0, 63)), draw(st.integers(1, 255))))
        elif kind == "chip":
            plan.append((kind, draw(st.integers(0, 17)), draw(st.integers(1, 2**32 - 1))))
        elif kind == "mac-chip":
            plan.append(("chip", 16, draw(st.integers(1, 2**32 - 1))))
        elif kind == "multi":
            plan.append((kind, tuple(draw(st.lists(st.integers(0, 511), min_size=2,
                                                   max_size=8)))))
        elif kind == "meta":
            plan.append((kind, draw(st.integers(1, 2**64 - 1))))
        else:
            plan.append((kind,))
    return plan


def _inject(controller, address, fault):
    kind = fault[0]
    if kind == "pin":
        controller.inject_pin_failure(address, fault[1], fault[2])
    elif kind == "chip":
        controller.inject_chip_failure(address, fault[1], fault[2])
    elif kind == "multi":
        mask = 0
        for bit in fault[1]:
            mask ^= 1 << bit
        controller.inject_data_bits(address, mask)
    elif kind == "meta":
        controller.inject_meta_bits(address, fault[1])


def _history(controller):
    if isinstance(controller, SafeGuardSECDED):
        return (controller.columns.last, controller.columns.streak)
    return (
        controller.chips.known,
        controller.chips.ping_pong,
        list(controller.spares._lines.items()),
    )


def _drive(cls, config, plan, reads, seed):
    """Write, fault and read lines; returns everything observable."""
    controller = cls(config)
    events = []
    controller.events.subscribe(events.append)
    rng = random.Random(seed)
    addresses = [64 * (i + 1) for i in range(len(plan))]
    for address in addresses:
        controller.write(address, rng.getrandbits(512).to_bytes(64, "little"))
    for address, fault in zip(addresses, plan):
        _inject(controller, address, fault)
    observed = []
    for batch, picks in reads:
        chosen = [addresses[i % len(addresses)] for i in picks]
        if batch:
            results = controller.access_many(chosen)
        else:
            results = [controller.read(address) for address in chosen]
        observed.append((results, _history(controller)))
    return (
        observed,
        controller.stats,
        controller.events.counters,
        [(e.kind, e.address, e.status, e.detail) for e in events],
    )


@st.composite
def read_plans(draw):
    return draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 7), min_size=1,
                                              max_size=6)),
            min_size=1,
            max_size=6,
        )
    )


SEARCH_CASES = [
    pytest.param(SafeGuardSECDED, LoopSECDED, False, id="secded"),
    pytest.param(SafeGuardChipkill, LoopChipkill, True, id="chipkill"),
]


class TestBatchedSearchMatchesLoop:
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    @pytest.mark.parametrize("batched,loop,chipkill", SEARCH_CASES)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_results_costs_events_and_history(
        self, mode, batched, loop, chipkill, data
    ):
        plan = data.draw(fault_plans(chipkill))
        reads = data.draw(read_plans())
        config = SafeGuardConfig(
            key=b"search-test-key!",
            mac_bits=data.draw(st.sampled_from([None, 2, 5, 12])),
            column_eager_after=data.draw(st.integers(1, 4)),
            eager_correction=data.draw(st.booleans()),
            ping_pong_limit=data.draw(st.integers(1, 8)),
            spare_lines=data.draw(st.integers(0, 4)),
        )
        seed = data.draw(st.integers(0, 2**16))
        with KERNELS.forced(mode):
            new = _drive(batched, config, plan, reads, seed)
            old = _drive(loop, config, plan, reads, seed)
        assert new == old

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_syndrome_candidates_equal_reconstructions(self, mode):
        rng = random.Random(5)
        with KERNELS.forced(mode):
            for _ in range(20):
                line, parity = rng.getrandbits(512), rng.getrandbits(8)
                delta = spread_beats(parity ^ column_parity(line), 1)
                for pin in range(64):
                    assert line ^ (delta << pin) == recover_pin(line, pin, parity)
                mac, parity32 = rng.getrandbits(32), rng.getrandbits(32)
                _, recovered = recover_chip(line, mac, parity32, 16)
                syndrome = recovered ^ mac
                spread = spread_beats(syndrome, 4)
                for chip in range(16):
                    assert recover_chip(line, mac, parity32, chip) == (
                        line ^ (spread << (4 * chip)),
                        mac,
                    )

    def test_search_bills_only_up_to_the_first_match(self):
        # Pin 9 fails; the remembered-first order starts at pin 0, so the
        # search walks pins 0..9 and bills exactly ten candidates.
        controller = SafeGuardSECDED(SafeGuardConfig(key=b"search-test-key!"))
        controller.write(0, bytes(range(64)))
        controller.inject_pin_failure(0, 9, 0xA5)
        result = controller.read(0)
        assert isinstance(result, ReadResult)
        assert result.status is ReadStatus.CORRECTED_COLUMN
        assert result.corrected_location == 9
        # Raw check + ECC-1 re-check + ten candidates.
        assert result.costs.mac_checks == 12
        assert result.costs.correction_iterations == 10
        # The walk stops at the first verifying candidate, in given order.
        mac = controller.mac.compute(bytes(64), 0)
        ctx = AccessContext(0)
        assert controller._first_verified(ctx, 0, [7, 3, 5], [1, 0, 0], [mac] * 3) == 1
        assert ctx.mac_checks == ctx.correction_iterations == 2
        ctx = AccessContext(0)
        assert controller._first_verified(ctx, 0, [7, 3, 5], [0, 1, 1], [mac] * 3) == 0
        assert ctx.mac_checks == ctx.correction_iterations == 1
        ctx = AccessContext(0)
        assert controller._first_verified(ctx, 0, [7, 3, 5], [1, 1, 1], [mac] * 3) is None
        assert ctx.mac_checks == ctx.correction_iterations == 3

    def test_remembered_pin_repairs_with_one_candidate(self):
        # Once pin 9 has repaired a line it is tried first: the next line
        # it explains costs one candidate.
        controller = SafeGuardSECDED(SafeGuardConfig(key=b"search-test-key!"))
        for address in (0, 64):
            controller.write(address, bytes(range(64)))
            controller.inject_pin_failure(address, 9, 0xA5)
        controller.read(0)
        result = controller.read(64)
        assert result.status is ReadStatus.CORRECTED_COLUMN
        assert result.corrected_location == 9
        assert result.costs.mac_checks == 3
        assert result.costs.correction_iterations == 1


# -- physical laws of the disturbance model ---------------------------------------


class LawSpy(Mitigation):
    """Checks restores from inside the runner's hooks.

    :meth:`on_activate` runs right after its row's activation and checks
    that row; it then orders a refresh of a random row. With
    ``ref_period == 1``, :meth:`on_refresh_command` runs right after that
    refresh and checks the refreshed row.
    """

    name = "law-spy"

    def __init__(self, model, seed):
        self.model = model
        self.rng = random.Random(seed)
        self.refreshed = None
        self.checked = 0

    def on_activate(self, row):
        self._check(row)
        self.refreshed = self.rng.randrange(self.model.config.n_rows)
        return [self.refreshed]

    def on_refresh_command(self):
        if self.refreshed is not None:
            self._check(self.refreshed)
        return []

    def _check(self, row):
        if 0 <= row < self.model.config.n_rows:
            assert self.model.disturbance(row) == 0
            assert row not in self.model.flipped
            self.checked += 1


class TestPhysicalLaws:
    @DIFFERENTIAL
    @given(data=st.data())
    def test_flips_only_in_weak_cells_and_never_more_than_them(self, data):
        rh_config = data.draw(rh_configs())
        spec = data.draw(mitigation_specs())
        make_attack = data.draw(attacks(rh_config.n_rows))
        model = DisturbanceModel(rh_config)
        runner = AttackRunner(model, build_mitigation(spec))
        result = runner.run(make_attack(), budget=data.draw(st.integers(0, 2500)))
        for row, bits in result.final_flip_bits.items():
            weak = model._weak_cells_of(row)
            assert bits <= set(weak)
            assert len(bits) <= len(weak) == rh_config.weak_cells_per_row

    @DIFFERENTIAL
    @given(rh_config=rh_configs(), seed=st.integers(0, 99),
           budget=st.integers(1, 2000), target=st.integers(0, 200))
    def test_activation_and_refresh_restore_the_row(self, rh_config, seed, budget,
                                                    target):
        model = DisturbanceModel(rh_config)
        spy = LawSpy(model, seed)
        victim = target % rh_config.n_rows
        AttackRunner(model, spy).run(double_sided(victim), budget=budget)
        assert spy.checked > 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'fix the flip draw': _maybe_flip redraws a Poisson "
        "flip target on every activation past threshold, so flips ratchet "
        "with dwell time; the fix makes this pass (and drops this marker)",
    )
    def test_flips_do_not_grow_with_dwell_time_after_one_crossing(self):
        threshold = 1000
        for seed in range(6):
            config = RowHammerConfig(
                rh_threshold=threshold, flips_per_crossing=2.0, seed=seed
            )
            at_crossing = AttackRunner(DisturbanceModel(config)).run(
                single_sided(64), budget=threshold
            )
            # Every victim level stays in [threshold, 2 * threshold): still
            # exactly one crossing, only a longer dwell above it.
            dwelled = AttackRunner(DisturbanceModel(config)).run(
                single_sided(64), budget=2 * threshold - 1
            )
            assert dwelled.final_flip_bits == at_crossing.final_flip_bits
