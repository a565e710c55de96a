"""Determinism harness for the sharded Monte-Carlo reliability engine.

Three pillars:

- **Equivalence** — any sharding/worker count reproduces the sequential
  ``simulate()`` output bit-for-bit (fail times, curves, scope counts).
- **Checkpoint/resume** — a killed run resumes from per-shard checkpoint
  cells (``faultsim-<digest>.json``, listed in the store's index);
  corrupted or stale checkpoints fall back to recomputation.
- **Merge algebra** — ``ReliabilityResult.merge`` is associative and
  order-independent, its Wilson interval equals the pooled-n
  computation, and the ``derive_seed`` streams feeding the engine are
  pinned so refactors cannot silently reseed the science.
"""

import dataclasses
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import INDEX_NAME, CampaignProgress, read_index, summarize_index
from repro.faultsim.evaluators import (
    Outcome,
    SafeGuardSECDEDEvaluator,
    SECDEDEvaluator,
)
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import (
    FailureRecord,
    MonteCarloConfig,
    ReliabilityResult,
    build_result,
    draw_fault_counts,
    merge_results,
    simulate,
    simulate_range,
)
from repro.faultsim.parallel import (
    plan_shards,
    resolve_workers,
    simulate_parallel,
)
from repro.switches import WORKERS_ENV
from repro.utils import units
from repro.utils.rng import derive_seed

#: Small population with boosted FIT so every run has plenty of failures
#: while staying fast enough for 7-shard sweeps.
FAST = dict(n_modules=6_000, fit_multiplier=20.0)


def assert_identical(a: ReliabilityResult, b: ReliabilityResult) -> None:
    """Bit-for-bit equality of everything science-visible."""
    assert a.scheme == b.scheme
    assert a.n_modules == b.n_modules
    assert a.years == b.years
    assert a.grid_hours == b.grid_hours
    assert a.fail_times == b.fail_times
    assert a.fail_probability == b.fail_probability
    assert (a.n_failed, a.n_due, a.n_sdc) == (b.n_failed, b.n_due, b.n_sdc)
    assert a.failures_by_scope == b.failures_by_scope


class TestShardPlanning:
    def test_covers_population_exactly(self):
        for n_modules, n_shards in [(10, 3), (6000, 7), (5, 9), (1, 1)]:
            plan = plan_shards(n_modules, n_shards)
            assert plan[0].lo == 0 and plan[-1].hi == n_modules
            for left, right in zip(plan, plan[1:]):
                assert left.hi == right.lo
            assert sum(s.n_modules for s in plan) == n_modules

    def test_near_equal_sizes(self):
        sizes = {s.n_modules for s in plan_shards(100, 7)}
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_modules_clamps(self):
        assert len(plan_shards(3, 10)) == 3

    def test_deterministic(self):
        assert plan_shards(1234, 5) == plan_shards(1234, 5)


class TestResolveWorkers:
    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        # Keep the precedence assertions host-independent: the
        # oversubscription clamp (tested in test_campaign_core) would
        # otherwise rewrite 5/9 on small hosts.
        monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 64)

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "9")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "9")
        assert resolve_workers(None) == 9

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestShardedEquivalence:
    """Worker/shard count never changes the science output."""

    @pytest.mark.parametrize("seed", [3, 7, 42])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_inline_shards_match_sequential(self, seed, shards):
        config = MonteCarloConfig(seed=seed, **FAST)
        evaluator = SECDEDEvaluator(X8_SECDED_16GB)
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        sharded = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=1, shards=shards
        )
        assert sequential.n_failed > 0  # a vacuous match proves nothing
        assert_identical(sequential, sharded)

    def test_process_pool_matches_sequential(self):
        config = MonteCarloConfig(seed=11, **FAST)
        evaluator = SafeGuardSECDEDEvaluator(X8_SECDED_16GB, column_parity=False)
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        pooled = simulate_parallel(
            evaluator, X8_SECDED_16GB, config, workers=2, shards=4
        )
        assert sequential.n_failed > 0
        assert_identical(sequential, pooled)

    def test_default_execution_matches_sequential(self):
        """No execution arguments: ``REPRO_WORKERS`` or one in-process shard."""
        config = MonteCarloConfig(seed=5, **FAST)
        evaluator = SECDEDEvaluator(X8_SECDED_16GB)
        assert_identical(
            simulate(evaluator, X8_SECDED_16GB, config),
            simulate_parallel(evaluator, X8_SECDED_16GB, config),
        )

    def test_scrubbing_survives_sharding(self):
        config = MonteCarloConfig(seed=2, scrub_interval_hours=24.0, **FAST)
        evaluator = SECDEDEvaluator(X8_SECDED_16GB)
        assert_identical(
            simulate(evaluator, X8_SECDED_16GB, config),
            simulate_parallel(evaluator, X8_SECDED_16GB, config, workers=1, shards=5),
        )

    def test_progress_reports_every_shard(self):
        config = MonteCarloConfig(seed=3, **FAST)
        events = []
        simulate_parallel(
            SECDEDEvaluator(X8_SECDED_16GB),
            X8_SECDED_16GB,
            config,
            workers=1,
            shards=6,
            progress=events.append,
        )
        assert all(isinstance(e, CampaignProgress) for e in events)
        assert [e.items_done for e in events] == [1, 2, 3, 4, 5, 6]
        final = events[-1]
        # Shards are the items; modules are the units the rate is quoted in.
        assert final.units_done == final.units_total == config.n_modules
        assert final.fraction_done == 1.0
        assert final.eta_s == 0.0
        assert final.rate > 0
        assert "item 6/6" in final.describe()


def shard_cells(directory) -> dict:
    """Shard index -> checkpoint cell file name, from the store's index."""
    return {entry["key"][0]: entry["cell"] for entry in read_index(str(directory))}


class TestCheckpointResume:
    def _run(self, tmp_path, config=None, shards=5, **kwargs):
        config = config or MonteCarloConfig(seed=3, **FAST)
        return simulate_parallel(
            SECDEDEvaluator(X8_SECDED_16GB),
            X8_SECDED_16GB,
            config,
            workers=1,
            shards=shards,
            checkpoint_dir=str(tmp_path),
            **kwargs,
        )

    def test_resume_after_kill_matches_uninterrupted(self, tmp_path):
        uninterrupted = self._run(tmp_path)
        cells = shard_cells(tmp_path)
        assert sorted(cells) == list(range(5))
        assert sorted(os.listdir(tmp_path)) == sorted([*cells.values(), INDEX_NAME])
        assert summarize_index(str(tmp_path))["faultsim"]["completed"] == 5
        # Simulate a killed run: two shards never finished.
        (tmp_path / cells[1]).unlink()
        (tmp_path / cells[4]).unlink()
        events = []
        resumed = self._run(tmp_path, progress=events.append)
        assert_identical(uninterrupted, resumed)
        assert events[-1].items_from_store == 3

    def test_corrupted_checkpoint_recomputed(self, tmp_path):
        reference = self._run(tmp_path)
        cells = shard_cells(tmp_path)
        (tmp_path / cells[2]).write_text("{ not json")
        (tmp_path / cells[3]).write_text(json.dumps({"version": 1}))
        events = []
        resumed = self._run(tmp_path, progress=events.append)
        assert_identical(reference, resumed)
        assert events[-1].items_from_store == 3
        assert events[-1].rejected_corrupt == 2
        # The recomputed checkpoints are valid again.
        events = []
        self._run(tmp_path, progress=events.append)
        assert events[-1].items_from_store == 5

    def test_stale_fingerprint_ignored(self, tmp_path):
        self._run(tmp_path)
        other = MonteCarloConfig(seed=99, **FAST)
        events = []
        resumed = self._run(tmp_path, config=other, progress=events.append)
        assert events[-1].items_from_store == 0
        assert_identical(
            simulate(SECDEDEvaluator(X8_SECDED_16GB), X8_SECDED_16GB, other), resumed
        )

    def test_checkpoints_survive_process_pool(self, tmp_path):
        config = MonteCarloConfig(seed=3, **FAST)
        pooled = simulate_parallel(
            SECDEDEvaluator(X8_SECDED_16GB),
            X8_SECDED_16GB,
            config,
            workers=2,
            shards=4,
            checkpoint_dir=str(tmp_path),
        )
        assert len(shard_cells(tmp_path)) == 4
        resumed = self._run(tmp_path, config=dataclasses.replace(config), shards=4)
        assert_identical(pooled, resumed)


# --- merge algebra ---------------------------------------------------------

_CONFIG = MonteCarloConfig(n_modules=0, years=7.0, grid_months=6)
_TOTAL_HOURS = _CONFIG.years * units.HOURS_PER_YEAR
_SCOPES = ["bit", "column", "row", "bank"]


@st.composite
def shard_results(draw):
    """A plausible per-shard ReliabilityResult built via build_result."""
    n_modules = draw(st.integers(min_value=1, max_value=500))
    n_failed = draw(st.integers(min_value=0, max_value=min(40, n_modules)))
    records = [
        FailureRecord(
            time_hours=draw(
                st.floats(
                    min_value=0.0,
                    max_value=_TOTAL_HOURS,
                    allow_nan=False,
                    exclude_max=True,
                )
            ),
            outcome=draw(st.sampled_from([Outcome.DUE, Outcome.SDC])),
            scope=draw(st.sampled_from(_SCOPES)),
        )
        for _ in range(n_failed)
    ]
    return build_result("scheme", _CONFIG, records, n_modules=n_modules)


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(shard_results(), min_size=1, max_size=6), st.randoms())
    def test_merge_is_order_independent(self, parts, rnd):
        merged = merge_results(parts)
        shuffled = list(parts)
        rnd.shuffle(shuffled)
        assert_identical(merged, merge_results(shuffled))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(shard_results(), min_size=3, max_size=6))
    def test_merge_is_associative(self, parts):
        left = merge_results([merge_results(parts[:2]), merge_results(parts[2:])])
        right = merge_results(
            [merge_results(parts[:-2]), merge_results(parts[-2:])]
        )
        flat = merge_results(parts)
        assert_identical(left, flat)
        assert_identical(right, flat)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(shard_results(), min_size=1, max_size=6))
    def test_wilson_interval_matches_pooled_n(self, parts):
        merged = merge_results(parts)
        n = sum(p.n_modules for p in parts)
        p = sum(p.n_failed for p in parts) / n
        z = 1.96
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        margin = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        low, high = merged.confidence_interval()
        assert merged.final_fail_probability == pytest.approx(p)
        assert low == pytest.approx(max(0.0, centre - margin))
        assert high == pytest.approx(min(1.0, centre + margin))

    def test_merge_single_is_identity(self):
        part = build_result(
            "scheme",
            _CONFIG,
            [FailureRecord(5.0, Outcome.DUE, "bit")],
            n_modules=10,
        )
        assert_identical(part, merge_results([part]))

    def test_merge_rejects_mismatches(self):
        a = build_result("a", _CONFIG, [], n_modules=10)
        b = build_result("b", _CONFIG, [], n_modules=10)
        with pytest.raises(ValueError):
            merge_results([a, b])
        coarse = build_result(
            "a", dataclasses.replace(_CONFIG, grid_months=12), [], n_modules=10
        )
        with pytest.raises(ValueError):
            merge_results([a, coarse])
        with pytest.raises(ValueError):
            merge_results([])


class TestSeedStreamRegression:
    """Pin the exact RNG streams so refactors cannot silently reseed."""

    def test_poisson_stream_seed_pinned(self):
        assert derive_seed(0, 0xFA017) == 1376004013697324252
        assert derive_seed(42, 0xFA017) == 3611017958596101861

    def test_per_module_stream_seeds_pinned(self):
        expected = {
            0: 17096642611606336830,
            1: 10400885387770084676,
            2: 17969346713597512190,
            99: 13745563063668318052,
            123456: 9221535743180537335,
        }
        for module_index, value in expected.items():
            assert derive_seed(0, 0x51A7, module_index) == value
        assert derive_seed(42, 0x51A7, 7) == 2743425527798246631

    def test_fault_count_draw_pinned(self):
        """First per-module Poisson counts for the default config/geometry."""
        counts = draw_fault_counts(
            MonteCarloConfig(n_modules=64, seed=42), X8_SECDED_16GB
        )
        assert counts.sum() >= 0 and len(counts) == 64
        # Re-drawing is byte-stable.
        again = draw_fault_counts(
            MonteCarloConfig(n_modules=64, seed=42), X8_SECDED_16GB
        )
        assert (counts == again).all()

    def test_simulate_range_uses_global_indices(self):
        """Shifting lo shifts which per-module streams are consumed."""
        config = MonteCarloConfig(seed=3, **FAST)
        counts = draw_fault_counts(config, X8_SECDED_16GB)
        evaluator = SECDEDEvaluator(X8_SECDED_16GB)
        full = simulate_range(evaluator, X8_SECDED_16GB, config, counts)
        lo = config.n_modules // 3
        tail = simulate_range(
            evaluator, X8_SECDED_16GB, config, counts[lo:], lo, config.n_modules
        )
        head = simulate_range(evaluator, X8_SECDED_16GB, config, counts[:lo], 0, lo)
        assert sorted(r.time_hours for r in full) == sorted(
            r.time_hours for r in head + tail
        )

    def test_simulate_range_validates_slice(self):
        config = MonteCarloConfig(seed=3, **FAST)
        counts = draw_fault_counts(config, X8_SECDED_16GB)
        with pytest.raises(ValueError):
            simulate_range(
                SECDEDEvaluator(X8_SECDED_16GB),
                X8_SECDED_16GB,
                config,
                counts[:10],
                0,
                20,
            )
