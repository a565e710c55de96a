"""Equivalence and determinism suite for the vectorized perf engine.

Five pillars, mirroring ``test_faultsim_fastpath.py``:

- **Mode plumbing** — how the perf layer consumes the ``perf`` switch
  of :mod:`repro.switches` (``PerfConfig.engine`` > ``REPRO_PERF`` >
  reference default) and the engine field in the campaign fingerprint
  (cached cells never cross engines); the switch table itself is pinned
  in ``test_switches.py``.
- **Exact determinism where promised** — the fast engine replays the
  golden corpus's ``result_fast`` records bit-for-bit; the same-line run
  collapse is an exact rewrite (the collapsed batched replay equals the
  uncollapsed scalar one); and the production
  :class:`~repro.dram.controller.MemoryController` is bit-identical to
  the object-model controller in ``tests/dram_oracle.py`` over the full
  timing pass and over adversarial request streams (hypothesis), and
  its inlined address map equals the oracle's ``AddressMapper``.
- **Statistical equivalence elsewhere** — fast and reference engines
  draw their traces from different RNG streams, so whole-workload
  results agree statistically (pinned per-cell and multi-seed bounds,
  plus a two-sample KS bound on pooled normalized performance), never
  bit-exactly.
- **Scalar-fallback decomposition** — rare paths (drain episodes,
  queue backpressure, inclusion writebacks) report through
  ``diagnostics`` and actually fire on write-heavy workloads; profiles
  outside :func:`repro.perf.fastpath.supports` fall back to the
  reference engine.
- **DRAM timing invariants** (hypothesis) — tRRD/tFAW pacing measured
  from the ACT instants the controller actually issued, 48/16
  watermark drain-episode counting, and full-queue backpressure never
  admitting a request past the queue bound.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.system import SystemResult
from repro.cpu.workloads import profile
from repro.dram.controller import MemoryController, map_address
from repro.dram.timing import DDR4_3200
from repro.perf import fastpath
from repro.perf.campaign import cell_fingerprint, plan_grid, run_cells
from repro.perf.model import (
    PerfConfig,
    geomean_slowdown_percent,
    run_comparison,
    run_workload,
)
from repro.perf.organizations import BASELINE_ECC, PerfOrganization, safeguard
from repro.switches import PERF
from repro.utils.rng import derive_seed
from tests import dram_oracle
from tests.perf_oracle import scalar_content_pass, timing_pass

_CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_perf.json")

#: Small but mechanism-covering scale, matching the golden corpus.
GOLDEN_SCALE = dict(n_cores=2, instructions_per_core=20_000, warmup_instructions=4_000)

#: Smaller scale for the multi-seed statistical sweep.
STAT_SCALE = dict(n_cores=2, instructions_per_core=12_000, warmup_instructions=3_000)


def _load_corpus():
    with open(_CORPUS_PATH) as handle:
        return json.load(handle)


def _config(engine, seed=0, scale=GOLDEN_SCALE):
    return PerfConfig(seed=seed, engine=engine, **scale)


# --- mode plumbing ---------------------------------------------------------


def _engine_of(config):
    """The engine a perf campaign cell runs (and is fingerprinted) under."""
    cell = plan_grid([safeguard(8)], ["gcc"], [0])[0]
    return cell_fingerprint(cell, config)["engine"]


class TestEnginePlumbing:
    def test_default_is_reference(self):
        assert PERF.default == "reference"
        with PERF.forced("reference"):
            assert _engine_of(_config(None)) == "reference"

    def test_config_beats_process_mode(self):
        with PERF.forced("reference"):
            assert _engine_of(_config("fast")) == "fast"
        with PERF.forced("fast"):
            assert _engine_of(_config("reference")) == "reference"
            assert _engine_of(_config(None)) == "fast"

    def test_forced_mode_restores(self):
        before = _engine_of(_config(None))
        with PERF.forced("fast"):
            assert _engine_of(_config(None)) == "fast"
        assert _engine_of(_config(None)) == before

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="REPRO_PERF"):
            _engine_of(_config("turbo"))
        with pytest.raises(ValueError, match="REPRO_PERF"):
            run_workload(profile("gcc"), BASELINE_ECC, _config("turbo"))

    def test_env_selects_fast(self):
        env = {**os.environ, "REPRO_PERF": "fast", "PYTHONPATH": "src"}
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.perf.campaign import cell_fingerprint, plan_grid; "
                "from repro.perf.model import PerfConfig; "
                "from repro.perf.organizations import safeguard; "
                "cell = plan_grid([safeguard(8)], ['gcc'], [0])[0]; "
                "print(cell_fingerprint(cell, PerfConfig())['engine'])",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "fast"

    def test_invalid_env_rejected_at_import(self):
        env = {**os.environ, "REPRO_PERF": "warp", "PYTHONPATH": "src"}
        out = subprocess.run(
            [sys.executable, "-c", "import repro.perf.fastpath"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "REPRO_PERF" in out.stderr

    def test_fingerprint_records_engine(self):
        cell = plan_grid([safeguard(8)], ["gcc"], [0])[0]
        fp_fast = cell_fingerprint(cell, _config("fast"))
        fp_ref = cell_fingerprint(cell, _config("reference"))
        assert fp_fast["engine"] == "fast"
        assert fp_ref["engine"] == "reference"
        assert fp_fast != fp_ref
        with PERF.forced("fast"):
            assert cell_fingerprint(cell, _config(None))["engine"] == "fast"


class TestFastStreamRegression:
    """Pin the counter-based trace stream so refactors cannot reseed it."""

    def test_stream_salt_pinned(self):
        assert fastpath.FAST_STREAM_SALT == 0x9EAF
        assert derive_seed(0, 0x9EAF) == 15122943387272858467
        assert derive_seed(42, 0x9EAF) == 7813094805847670900


# --- exact determinism where promised --------------------------------------


class TestGoldenFastReplay:
    def test_golden_corpus_replays_exactly_under_fast(self):
        """Every ``result_fast`` record reproduces bit-for-bit.

        The fast engine is deterministic even though it is only
        statistically equivalent to the reference engine; an intentional
        change to its draws or replay must regenerate the corpus
        (``scripts/make_golden_perf.py``) and bump ``MODEL_VERSION``.
        """
        corpus = _load_corpus()
        config = corpus["config"]
        for cell in corpus["cells"]:
            organization = PerfOrganization(**cell["organization"])
            result = run_workload(
                profile(cell["workload"]),
                organization,
                PerfConfig(
                    n_cores=config["n_cores"],
                    instructions_per_core=config["instructions_per_core"],
                    warmup_instructions=config["warmup_instructions"],
                    seed=cell["seed"],
                    engine="fast",
                ),
            )
            golden = SystemResult.from_json(cell["result_fast"])
            assert result == golden, (
                f"fast golden mismatch for {cell['workload']}/"
                f"{organization.name}/seed={cell['seed']}"
            )

    def test_fast_rerun_is_deterministic(self):
        config = _config("fast")
        first = run_workload(profile("lbm"), safeguard(8), config)
        second = run_workload(profile("lbm"), safeguard(8), config)
        assert first == second


class TestControllerBitIdentity:
    """The production controller is the object-model oracle, exactly.

    The timing pass is run twice over the same content — once on the
    production :class:`MemoryController`, once on the oracle controller
    of ``tests/dram_oracle.py`` behind its adapter — and must produce
    identical SystemResults.
    """

    @pytest.mark.parametrize("workload", ["mcf", "lbm"])
    @pytest.mark.parametrize(
        "organization", [BASELINE_ECC, safeguard(8)], ids=lambda o: o.name
    )
    def test_timing_pass_matches_reference_controller(self, workload, organization):
        prof = profile(workload)
        config = _config("fast")
        content = fastpath._content_pass(
            prof,
            config.n_cores,
            config.seed,
            config.instructions_per_core,
            config.warmup_instructions,
        )
        fast = fastpath._timing_pass(content, prof, organization, config)
        reference = timing_pass(
            content, prof, organization, config,
            controller=dram_oracle.TimingAdapter(),
        )
        assert fast == reference


class TestCollapseEquivalence:
    """The same-line run collapse is an exact rewrite of the replay.

    Production runs the collapsed batched replay; the exact scalar
    replay walks every op uncollapsed.
    """

    @pytest.mark.parametrize("workload", ["lbm", "mcf"])
    def test_collapsed_matches_uncollapsed(self, workload):
        config = _config("fast")
        prof = profile(workload)
        fastpath._CONTENT_MEMO.clear()
        collapsed = run_workload(prof, safeguard(8), config)
        fastpath._CONTENT_MEMO.clear()
        exact = timing_pass(
            scalar_content_pass(
                prof,
                config.n_cores,
                config.seed,
                config.instructions_per_core,
                config.warmup_instructions,
            ),
            prof,
            safeguard(8),
            config,
        )
        assert collapsed == exact


# --- statistical equivalence across engines --------------------------------


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (no scipy dependency)."""
    a, b = sorted(a), sorted(b)
    points = sorted(set(a) | set(b))
    gap = 0.0
    ia = ib = 0
    for x in points:
        while ia < len(a) and a[ia] <= x:
            ia += 1
        while ib < len(b) and b[ib] <= x:
            ib += 1
        gap = max(gap, abs(ia / len(a) - ib / len(b)))
    return gap


@pytest.mark.slow
class TestEngineEquivalence:
    """Fast and reference engines agree statistically, never bit-exactly.

    The engines draw their synthetic traces from different RNG streams
    (counter-based splitmix64 vs. sequential Mersenne-Twister), so the
    comparison is the PR 4 pattern: pinned per-cell bounds, a multi-seed
    mean bound, and a KS bound on the pooled normalized-performance
    samples. The bounds carry 2x margin over the spread measured across
    seeds 0-2 at this scale.
    """

    ORG = "safeguard(mac=8)"
    WORKLOADS = ["mcf", "bwaves", "lbm", "gcc"]
    SEEDS = (0, 1, 2)

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for engine in ("reference", "fast"):
            out[engine] = [
                run_comparison(
                    [safeguard(8)],
                    workloads=self.WORKLOADS,
                    config=_config(engine, seed=seed, scale=STAT_SCALE),
                )
                for seed in self.SEEDS
            ]
        return out

    def test_per_cell_normalized_performance_close(self, results):
        for ref_run, fast_run in zip(results["reference"], results["fast"]):
            for ref, fast in zip(ref_run, fast_run):
                delta = abs(
                    ref.normalized_performance(self.ORG)
                    - fast.normalized_performance(self.ORG)
                )
                assert delta < 0.045, (ref.workload, delta)

    def test_multiseed_mean_slowdown_close(self, results):
        means = {}
        for engine, runs in results.items():
            values = [geomean_slowdown_percent(run, self.ORG) for run in runs]
            means[engine] = sum(values) / len(values)
        assert abs(means["reference"] - means["fast"]) < 0.5  # pp

    def test_ks_on_pooled_normalized_performance(self, results):
        pooled = {
            engine: [
                run[i].normalized_performance(self.ORG)
                for run in runs
                for i in range(len(self.WORKLOADS))
            ]
            for engine, runs in results.items()
        }
        assert _ks_statistic(pooled["reference"], pooled["fast"]) < 0.5

    def test_auxiliary_statistics_close(self, results):
        """Miss rates and DRAM traffic agree — same system, other dice."""
        for ref_run, fast_run in zip(results["reference"], results["fast"]):
            for ref, fast in zip(ref_run, fast_run):
                r, f = ref.baseline, fast.baseline
                assert abs(r.llc_miss_rate - f.llc_miss_rate) < 0.05
                assert abs(r.row_hit_rate - f.row_hit_rate) < 0.15
                if r.dram_reads > 1000:
                    ratio = f.dram_reads / r.dram_reads
                    assert 0.8 < ratio < 1.25, (ref.workload, ratio)


# --- scalar-fallback decomposition -----------------------------------------


class TestScalarFallbackDecomposition:
    def test_write_heavy_workload_exercises_rare_paths(self):
        diagnostics = {}
        fastpath.run_workload_fast(
            profile("lbm"), safeguard(8), _config("fast"), diagnostics=diagnostics
        )
        assert diagnostics["write_drains"] > 0  # drain episodes fired
        assert diagnostics["refreshes"] > 0
        assert 0 < diagnostics["events"] <= diagnostics["ops"]
        assert diagnostics["backpressure_stalls"] >= 0
        assert diagnostics["inclusion_writebacks"] >= 0

    def test_population_decomposes_by_write_intensity(self):
        """The rare paths scale with the workload, not with the engine."""
        per_workload = {}
        for workload in ("lbm", "gcc"):
            diagnostics = {}
            fastpath.run_workload_fast(
                profile(workload),
                safeguard(8),
                _config("fast"),
                diagnostics=diagnostics,
            )
            per_workload[workload] = diagnostics
        assert (
            per_workload["lbm"]["write_drains"]
            > per_workload["gcc"]["write_drains"]
        )
        # The sparse timing pass sees only the DRAM-visible minority.
        for diagnostics in per_workload.values():
            assert diagnostics["events"] < diagnostics["ops"]

    def test_unsupported_profile_falls_back_to_reference(self):
        """A near-zero-CPI profile is outside the sparse decomposition."""
        prof = dataclasses.replace(profile("mcf"), base_cpi=0.05)
        assert not fastpath.supports(prof)
        fast_config = _config("fast", scale=STAT_SCALE)
        ref_config = _config("reference", scale=STAT_SCALE)
        assert run_workload(prof, safeguard(8), fast_config) == run_workload(
            prof, safeguard(8), ref_config
        )

    def test_all_l1_profile_reports_zero_result(self):
        prof = dataclasses.replace(profile("gcc"), mem_ratio=0.0)
        diagnostics = {}
        result = fastpath.run_workload_fast(
            prof, safeguard(8), _config("fast"), diagnostics=diagnostics
        )
        assert result.dram_reads == 0
        assert result.dram_writes == 0
        assert diagnostics["ops"] == 0


# --- cross-engine campaign-cache rejection ---------------------------------


class TestCrossEngineCache:
    def _campaign(self, config, cache):
        cells = plan_grid([safeguard(8)], ["gcc"], [0])
        stats = []
        results = run_cells(
            cells, config, workers=1, cache_dir=cache, progress=stats.append
        )
        return results, stats[-1].items_from_store

    def test_cached_cells_never_cross_engines(self, tmp_path):
        cache = str(tmp_path)
        ref_config = _config("reference", scale=STAT_SCALE)
        fast_config = _config("fast", scale=STAT_SCALE)

        ref_first, from_cache = self._campaign(ref_config, cache)
        assert from_cache == 0

        # Same grid, same cache, other engine: every cell recomputes.
        fast_first, from_cache = self._campaign(fast_config, cache)
        assert from_cache == 0

        # Same engine reloads everything, bit-identically.
        ref_again, from_cache = self._campaign(ref_config, cache)
        assert from_cache == len(ref_again)
        assert ref_again == ref_first
        fast_again, from_cache = self._campaign(fast_config, cache)
        assert from_cache == len(fast_again)
        assert fast_again == fast_first


# --- DRAM timing invariants (hypothesis) ------------------------------------

#: Address pool spanning 2 ranks x 3 banks x 6 rows x 4 columns, small
#: enough that random streams constantly revisit banks (hits, conflicts,
#: pacing) instead of wandering off into cold rows.
_ADDRS = [
    (((row << 5) | (rank << 4) | bank) << 13) | (col << 6)
    for row in range(6)
    for rank in range(2)
    for bank in range(3)
    for col in range(4)
]

#: Inter-request gaps: back-to-back bursts, short strides, a refresh-
#: interval jump (tREFI = 12480 memory cycles).
_GAPS = (0.0, 1.0, 7.0, 350.0, 15_000.0)

_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, len(_ADDRS) - 1),
        st.integers(0, len(_GAPS) - 1),
    ),
    min_size=1,
    max_size=150,
)

_WRITE_BURSTS = st.lists(
    st.tuples(st.integers(0, len(_ADDRS) - 1), st.integers(0, 2)),
    min_size=1,
    max_size=200,
)


class TestDRAMTimingProperties:
    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_fast_controller_bit_identical_to_reference(self, ops):
        """Every response and every counter matches the oracle controller."""
        fast = MemoryController()
        reference = dram_oracle.MemoryController()
        now = 0.0
        for is_write, address_index, gap_index in ops:
            now += _GAPS[gap_index]
            address = _ADDRS[address_index]
            if is_write:
                assert fast.write(address, now) == reference.write(address, now)
            else:
                assert (
                    fast.read(address, now)
                    == reference.read(address, now).data_ready_time
                )
        stats = reference.stats
        assert fast.reads == stats.reads
        assert fast.writes == stats.writes
        assert fast.row_hits == stats.row_hits
        assert fast.row_misses == stats.row_misses
        assert fast.row_conflicts == stats.row_conflicts
        assert fast.write_drains == stats.write_drains
        assert fast.refreshes == stats.refreshes
        assert fast.total_read_latency == stats.total_read_latency

    @given(address=st.integers(0, (1 << 48) - 1))
    @settings(max_examples=200, deadline=None)
    def test_address_map_matches_oracle_mapper(self, address):
        """The inlined map packs the oracle AddressMapper's coordinates."""
        coords = dram_oracle.AddressMapper().map(address)
        packed = map_address(address)
        assert packed & 1 == coords.rank
        assert (packed >> 1) & 31 == (coords.rank << 4) | coords.bank
        assert packed >> 6 == coords.row

    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_act_pacing_measured_from_actual_instants(self, ops):
        """tRRD/tFAW hold on the ACT instants the controller issued.

        ``_rank_acts`` keeps each rank's sliding window of ACT issue
        times; sampling it after every request reconstructs (a
        subsequence of) the true ACT sequence, on which the pacing
        bounds must hold — a gap can only be wider than observed, never
        narrower.
        """
        fast = MemoryController()
        seen = {}
        now = 0.0
        for is_write, address_index, gap_index in ops:
            now += _GAPS[gap_index]
            address = _ADDRS[address_index]
            if is_write:
                fast.write(address, now)
            else:
                fast.read(address, now)
            for rank, acts in fast._rank_acts.items():
                issued = seen.setdefault(rank, [])
                last = issued[-1] if issued else -math.inf
                issued.extend(t for t in acts if t > last)
        for issued in seen.values():
            for a, b in zip(issued, issued[1:]):
                assert b >= a + DDR4_3200.tRRD - 1e-9
            for a, b in zip(issued, issued[4:]):
                assert b >= a + DDR4_3200.tFAW - 1e-9

    @given(bursts=_WRITE_BURSTS)
    @settings(max_examples=60, deadline=None)
    def test_watermark_drain_episode_counting(self, bursts):
        """Drain episodes start only at the 48-entry high watermark."""
        fast = MemoryController()
        reference = dram_oracle.MemoryController()
        now = 0.0
        peak = 0
        for address_index, gap_index in bursts:
            now += _GAPS[gap_index]
            address = _ADDRS[address_index]
            occupancy = len(fast._write_queue) + len(fast._write_inflight)
            drains_before = fast.write_drains
            assert fast.write(address, now) == reference.write(address, now)
            if fast.write_drains > drains_before:
                # Completed entries may have been retired first, which
                # only lowers occupancy: the crossing needed >= 48.
                assert occupancy + 1 >= MemoryController.WRITE_DRAIN_HIGH
            peak = max(
                peak, len(fast._write_queue) + len(fast._write_inflight)
            )
        assert fast.write_drains == reference.stats.write_drains
        if peak < MemoryController.WRITE_DRAIN_HIGH:
            assert fast.write_drains == 0

    @given(bursts=_WRITE_BURSTS)
    @settings(max_examples=60, deadline=None)
    def test_full_queue_backpressure(self, bursts):
        """A full write queue stalls the issuer; occupancy never exceeds it."""
        fast = MemoryController()
        reference = dram_oracle.MemoryController()
        now = 0.0
        for address_index, gap_index in bursts:
            now += _GAPS[gap_index]
            address = _ADDRS[address_index]
            inflight = list(fast._write_inflight)
            occupancy = len(fast._write_queue) + len(inflight)
            accepted = fast.write(address, now)
            assert accepted == reference.write(address, now)
            assert accepted >= now
            if occupancy >= MemoryController.WRITE_QUEUE_ENTRIES and (
                not inflight or min(inflight) > now
            ):
                # Nothing had freed by `now`: admission had to wait for
                # the earliest entry to complete, strictly after `now`.
                assert accepted > now
            assert (
                len(fast._write_queue) + len(fast._write_inflight)
                <= MemoryController.WRITE_QUEUE_ENTRIES
            )
