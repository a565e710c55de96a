"""Equivalence suite for the fast perf engine's batched kernels.

The batched content/timing passes are exact rewrites of scalar passes
that survive as their oracle: the content replay's oracle is
``fastpath._scalar_replay`` (also the production back-invalidation
fallback), the timing tick's is the per-event heap walk in
``tests/perf_oracle.py``; neither touches the content memo. The identity
is pinned here from three directions:

- **Kernel properties** (hypothesis) — the per-set batched LRU kernels
  (:func:`fastpath._l1_kernel`, :func:`fastpath._llc_kernel`) replayed
  against straightforward dict/list LRU references over random access
  streams, including primed LLC state and all three probe kinds.
- **Whole-pass equivalence** — the batched (run-collapsed) and the
  scalar (uncollapsed) content passes agree field-for-field (outcomes,
  event tables, counters) across workloads and seeds; the batched and
  scalar timing ticks produce identical :class:`SystemResult`s and
  diagnostics, with the production and the object-model oracle
  controller.
- **Scalar fallback** (pinned) — shrinking the cache geometry until LLC
  evictions back-invalidate live L1 lines makes ``_batched_replay``
  return ``None`` and the pass take the exact scalar replay; results
  still match the scalar oracle bit-for-bit and the fallback counter
  records the event.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.workloads import profile
from repro.perf import fastpath
from repro.perf.model import PerfConfig
from repro.perf.organizations import BASELINE_ECC, safeguard
from tests import dram_oracle
from tests.perf_oracle import scalar_content_pass, timing_pass

#: Small but mechanism-covering scale for whole-pass comparisons.
SCALE = dict(n_cores=2, instructions_per_core=8_000, warmup_instructions=2_000)

WORKLOADS = ["gcc", "mcf", "bwaves", "lbm"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    fastpath._CONTENT_MEMO.clear()
    yield
    fastpath._CONTENT_MEMO.clear()


def _content(workload, seed=0, scalar=False, **overrides):
    """The production (memoized, batched) content pass, or its scalar oracle."""
    params = {**SCALE, **overrides}
    args = (
        profile(workload),
        params["n_cores"],
        seed,
        params["instructions_per_core"],
        params["warmup_instructions"],
    )
    if scalar:
        return scalar_content_pass(*args)
    return fastpath._content_pass(*args)


def _assert_content_equal(a, b):
    assert a.n_cores == b.n_cores
    assert a.boundary_pos == b.boundary_pos
    assert a.llc_hits_window == b.llc_hits_window
    assert a.llc_misses_window == b.llc_misses_window
    assert a.n_ops == b.n_ops
    assert a.inclusion_writebacks == b.inclusion_writebacks
    assert a.final_time == b.final_time
    assert a.warm_op == b.warm_op
    for c in range(a.n_cores):
        assert a.check_time[c] == b.check_time[c]
        ea, eb = a.events[c], b.events[c]
        assert list(ea.op) == list(eb.op)
        assert list(ea.pos) == list(eb.pos)
        assert list(ea.base_time) == list(eb.base_time)
        assert list(ea.crossing) == list(eb.crossing)
        assert list(ea.kind) == list(eb.kind)
        assert list(ea.warm) == list(eb.warm)
        assert list(ea.act_off) == list(eb.act_off)
        assert list(ea.actions) == list(eb.actions)
        assert (ea.n_ev, ea.n_warm) == (eb.n_ev, eb.n_warm)


# --- kernel properties (hypothesis) ----------------------------------------


def _ref_lru_l1(set_ids, lines, writes, ways):
    """Dict/list LRU reference for the L1 kernel's per-probe outputs."""
    state = {}
    hit = np.zeros(len(lines), dtype=bool)
    vline = np.full(len(lines), -1, dtype=np.int64)
    vdirty = np.zeros(len(lines), dtype=bool)
    for k, (s, ln, wr) in enumerate(zip(set_ids, lines, writes)):
        entries = state.setdefault(s, [])
        entry = next((e for e in entries if e[0] == ln), None)
        if entry is not None:
            hit[k] = True
            entries.remove(entry)
            entry[1] = entry[1] or wr
            entries.append(entry)
            continue
        if len(entries) >= ways:
            old = entries.pop(0)
            vline[k], vdirty[k] = old[0], old[1]
        entries.append([ln, bool(wr)])
    return hit, vline, vdirty


def _ref_llc(set_ids, lines, kinds, init_sets, ways):
    """List LRU reference for the LLC kernel (demand/touch/prefetch)."""
    state = [[[ln, bool(d)] for ln, d in llc_set.items()] for llc_set in init_sets]
    hit = np.zeros(len(lines), dtype=bool)
    vline = np.full(len(lines), -1, dtype=np.int64)
    vdirty = np.zeros(len(lines), dtype=bool)
    for k, (s, ln, kd) in enumerate(zip(set_ids, lines, kinds)):
        entries = state[s]
        entry = next((e for e in entries if e[0] == ln), None)
        if entry is not None:
            hit[k] = True
            if kd <= 1:  # demand/touch refresh; prefetch hit is a no-op
                entries.remove(entry)
                entry[1] = entry[1] or kd == 1
                entries.append(entry)
            continue
        if kd == 1:  # inclusion writeback: set untouched
            continue
        if len(entries) >= ways:
            old = entries.pop(0)
            vline[k], vdirty[k] = old[0], old[1]
        entries.append([ln, False])
    return hit, vline, vdirty


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.integers(0, 31), st.booleans()), max_size=150
        ),
        ways=st.integers(1, 4),
        n_sets=st.sampled_from([1, 2, 4]),
    )
    def test_l1_kernel_matches_reference(self, probes, ways, n_sets):
        lines = np.array([p[0] for p in probes], dtype=np.int64)
        writes = np.array([p[1] for p in probes], dtype=bool)
        set_ids = lines % n_sets
        hit, vline, vdirty = fastpath._l1_kernel(set_ids, lines, writes, ways)
        rhit, rvline, rvdirty = _ref_lru_l1(
            set_ids.tolist(), lines.tolist(), writes.tolist(), ways
        )
        np.testing.assert_array_equal(hit, rhit)
        np.testing.assert_array_equal(vline, rvline)
        np.testing.assert_array_equal(vdirty, rvdirty)

    @settings(max_examples=40, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 2)), max_size=150
        ),
        fills=st.lists(
            st.tuples(st.integers(0, 15), st.booleans()), max_size=40
        ),
        ways=st.integers(1, 3),
        n_sets=st.sampled_from([1, 2, 4]),
    )
    def test_llc_kernel_matches_reference(self, probes, fills, ways, n_sets):
        lines = np.array([p[0] for p in probes], dtype=np.int64)
        kinds = np.array([p[1] for p in probes], dtype=np.int8)
        set_ids = lines % n_sets
        fill_lines = np.array([f[0] for f in fills], dtype=np.int64)
        fill_dirty = np.array([f[1] for f in fills], dtype=bool)
        tags = fastpath._initial_llc_arrays(fill_lines, fill_dirty, n_sets, ways)
        init_sets = fastpath._initial_llc_sets(fill_lines, fill_dirty, n_sets, ways)
        hit, vline, vdirty = fastpath._llc_kernel(set_ids, lines, kinds, tags, ways)
        rhit, rvline, rvdirty = _ref_llc(
            set_ids.tolist(), lines.tolist(), kinds.tolist(), init_sets, ways
        )
        np.testing.assert_array_equal(hit, rhit)
        np.testing.assert_array_equal(vline, rvline)
        np.testing.assert_array_equal(vdirty, rvdirty)

    def test_initial_llc_arrays_matches_sets(self):
        rng = np.random.default_rng(7)
        fills = rng.integers(0, 64, size=200)
        dirty = rng.random(200) < 0.3
        ways, n_sets = 4, 8
        tags = fastpath._initial_llc_arrays(fills, dirty, n_sets, ways)
        sets = fastpath._initial_llc_sets(fills, dirty, n_sets, ways)
        for s in range(n_sets):
            resident = [
                (int(t) >> 1, bool(int(t) & 1)) for t in tags[s] if int(t) >= 0
            ]
            assert resident == [(ln, bool(d)) for ln, d in sets[s].items()]


# --- whole-pass equivalence ------------------------------------------------


class TestContentPassEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_equals_scalar(self, workload, seed):
        batched = _content(workload, seed=seed)
        scalar = _content(workload, seed=seed, scalar=True)
        _assert_content_equal(batched, scalar)

    @pytest.mark.parametrize("collapse", [True, False])
    def test_equivalence_under_both_collapse_settings(self, monkeypatch, collapse):
        # The production content pass replays collapsed same-line runs on
        # the batched path and the uncollapsed stream on its fallback;
        # both must match the scalar oracle on a workload with runs.
        merged = fastpath._merge_ops(
            profile("mcf"),
            SCALE["n_cores"],
            0,
            SCALE["instructions_per_core"],
            SCALE["warmup_instructions"],
        )
        runs = (np.diff(merged.line) == 0) & (np.diff(merged.l1_index) == 0)
        assert runs.any()
        if not collapse:
            monkeypatch.setattr(fastpath, "_batched_replay", lambda merged: None)
        before = dict(fastpath._BATCH_STATS)
        production = _content("mcf")
        path = "batched" if collapse else "fallbacks"
        assert fastpath._BATCH_STATS[path] == before[path] + 1
        _assert_content_equal(production, _content("mcf", scalar=True))

    @settings(max_examples=8, deadline=None)
    @given(
        workload=st.sampled_from(
            ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]
        ),
        seed=st.integers(0, 5),
        instructions=st.integers(1_000, 5_000),
        n_cores=st.integers(1, 2),
        warmup=st.sampled_from([0, 400]),
    )
    def test_batched_equals_scalar_random_cells(
        self, workload, seed, instructions, n_cores, warmup
    ):
        fastpath._CONTENT_MEMO.clear()
        overrides = dict(
            n_cores=n_cores,
            instructions_per_core=instructions,
            warmup_instructions=warmup,
        )
        batched = _content(workload, seed=seed, **overrides)
        scalar = _content(workload, seed=seed, scalar=True, **overrides)
        _assert_content_equal(batched, scalar)

    def test_batched_counter_increments(self):
        before = fastpath._BATCH_STATS["batched"]
        _content("gcc", seed=3)
        assert fastpath._BATCH_STATS["batched"] == before + 1

    def test_scalar_oracle_bypasses_memo_and_counters(self):
        before = dict(fastpath._BATCH_STATS)
        _content("gcc", seed=3, scalar=True)
        assert not fastpath._CONTENT_MEMO
        assert fastpath._BATCH_STATS == before
        batched = _content("gcc", seed=3)
        assert len(fastpath._CONTENT_MEMO) == 1
        _content("gcc", seed=3, scalar=True)
        assert list(fastpath._CONTENT_MEMO.values()) == [batched]


class TestTimingPassEquivalence:
    @pytest.mark.parametrize("workload", ["gcc", "lbm"])
    @pytest.mark.parametrize("organization", [BASELINE_ECC, safeguard()])
    def test_batched_tick_equals_scalar_walk(self, workload, organization):
        content = _content(workload)
        config = PerfConfig(**SCALE)
        prof = profile(workload)
        diag_b, diag_s = {}, {}
        batched = fastpath._timing_pass(
            content, prof, organization, config, diagnostics=diag_b
        )
        scalar = timing_pass(
            content, prof, organization, config, scalar=True, diagnostics=diag_s
        )
        assert batched == scalar
        assert diag_b == diag_s

    def test_equivalence_holds_with_reference_controller(self):
        content = _content("mcf")
        config = PerfConfig(**SCALE)
        prof = profile("mcf")
        results = [
            timing_pass(
                content, prof, safeguard(), config,
                controller=dram_oracle.TimingAdapter() if reference else None,
                scalar=scalar,
            )
            for scalar in (False, True)
            for reference in (False, True)
        ]
        assert all(result == results[0] for result in results)


# --- scalar fallback (pinned) ----------------------------------------------


class TestScalarFallback:
    @pytest.fixture()
    def tiny_llc(self, monkeypatch):
        """Shrink the hierarchy until the LLC back-invalidates L1 lines.

        2 LLC sets x 2 ways hold 4 lines; the two cores' L1s (2 sets x
        4 ways each) hold up to 16 — LLC evictions of still-live L1
        lines are then guaranteed on a random-heavy workload, which is
        exactly the cross-set interaction the batched decomposition
        cannot replay.
        """
        monkeypatch.setattr(fastpath, "_L1_SET_BITS", 1)
        monkeypatch.setattr(fastpath, "_LLC_SETS", 2)
        monkeypatch.setattr(fastpath, "_LLC_WAYS", 2)

    def test_back_invalidation_triggers_fallback(self, tiny_llc):
        before = dict(fastpath._BATCH_STATS)
        batched = _content("mcf", instructions_per_core=3_000,
                           warmup_instructions=500)
        assert fastpath._BATCH_STATS["fallbacks"] == before["fallbacks"] + 1
        assert fastpath._BATCH_STATS["batched"] == before["batched"]
        scalar = _content("mcf", scalar=True, instructions_per_core=3_000,
                          warmup_instructions=500)
        _assert_content_equal(batched, scalar)

    def test_default_geometry_never_falls_back(self):
        before = dict(fastpath._BATCH_STATS)
        for workload in WORKLOADS:
            _content(workload, seed=7)
        assert fastpath._BATCH_STATS["fallbacks"] == before["fallbacks"]
        assert fastpath._BATCH_STATS["batched"] == before["batched"] + len(WORKLOADS)


# --- CLI / campaign integration --------------------------------------------


class TestIntegration:
    def test_run_workload_is_mode_invariant(self):
        """The production path equals both scalar oracles end to end."""
        from repro.perf.model import run_workload

        config = PerfConfig(engine="fast", **SCALE)
        prof = profile("gcc")
        oracle_content = _content("gcc", scalar=True)
        for organization in (BASELINE_ECC, safeguard()):
            fastpath._CONTENT_MEMO.clear()
            production = run_workload(prof, organization, config)
            oracle = timing_pass(
                oracle_content, prof, organization, config, scalar=True
            )
            assert production == oracle

    def test_fingerprint_pins_kernel_revision(self):
        from repro.perf.campaign import cell_fingerprint, plan_grid

        cells = plan_grid([safeguard()], ["gcc"], [0])
        fast = cell_fingerprint(cells[0], PerfConfig(engine="fast", **SCALE))
        reference = cell_fingerprint(
            cells[0], PerfConfig(engine="reference", **SCALE)
        )
        assert fast["kernel_revision"] == fastpath.KERNEL_REVISION
        assert reference["kernel_revision"] == 0

    def test_profiling_report_shape(self):
        from repro.perf.profiling import PASSES, describe, profile_passes

        report = profile_passes(
            ["gcc"],
            PerfConfig(n_cores=2, instructions_per_core=2_000,
                       warmup_instructions=500),
            top_n=5,
        )
        assert set(report["passes"]) == set(PASSES)
        for section in report["passes"].values():
            assert section["seconds"] >= 0.0
            assert len(section["top"]) <= 5
            for row in section["top"]:
                assert {"function", "cumtime_s", "tottime_s", "ncalls"} <= set(row)
        assert describe(report)  # renders without error

    def test_profile_flag_rejected_off_grid(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="--profile"):
            run_experiment("table1", profile_to="/tmp/nope.json")

    def test_profile_flag_needs_fast_engine(self, monkeypatch, tmp_path):
        """The profile replays the fast engine, so only a fast run takes it."""
        from repro.experiments import runner
        from repro.switches import PERF

        out = str(tmp_path / "prof.json")
        with PERF.forced("reference"):
            with pytest.raises(ValueError, match="--engine fast"):
                runner.run_experiment("fig7", engine="reference", profile_to=out)
            with pytest.raises(ValueError, match="--engine fast"):
                runner.run_experiment("fig11", profile_to=out)
            calls = []
            monkeypatch.setitem(
                runner.EXPERIMENTS, "fig7", lambda **kwargs: calls.append(kwargs)
            )
            runner.run_experiment("fig7", engine="fast", profile_to=out)
        with PERF.forced("fast"):
            runner.run_experiment("fig7", profile_to=out)
        assert [call["profile_to"] for call in calls] == [out, out]

    def test_oversubscribed_workers_warn_and_clamp(self, monkeypatch):
        from repro.campaign import resolve_workers

        monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_workers(6) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(6, strict=True) == 6
