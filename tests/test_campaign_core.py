"""Cross-domain tests of the generic campaign core (repro.campaign).

The domain suites (test_montecarlo_parallel, test_perf_campaign,
test_hammer_sweep, test_playbook) pin each adapter's behavior; this
suite pins the shared machinery itself — worker resolution precedence,
the fingerprint-verified store and its rejection taxonomy, the
append-only index, atomic writes under racing writers, crash retry, and
the progress protocol — once, for every campaign family at a time, plus
the one contract all four adapters share (:class:`TestAdapterContract`).
"""

import json
import os
import re
import threading
import warnings

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignProgress,
    INDEX_NAME,
    ResultStore,
    STORE_VERSION,
    atomic_write_json,
    fingerprint_digest,
    read_index,
    resolve_workers,
    run_campaign,
    summarize_index,
)
from repro.switches import WORKERS_ENV


# -- worker resolution precedence ------------------------------------------------


class TestResolveWorkers:
    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        # Precedence tests pick counts like 6/8; pin the host's CPU
        # count high so the oversubscription clamp never engages here
        # (it has its own tests below).
        monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 64)

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_generic_env_is_the_last_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers() == 8
        assert resolve_workers(None) == 8

    def test_blank_env_values_are_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers() == 1

    def test_invalid_counts_raise(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_malformed_env_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match=f"{WORKERS_ENV}='{raw}'"):
            resolve_workers()
        # An explicit count never consults the variable.
        assert resolve_workers(2) == 2


class TestResolveWorkersClamp:
    """Oversubscription guard: counts above os.cpu_count() are clamped."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 2)

    def test_clamps_with_one_warning(self):
        with pytest.warns(RuntimeWarning, match="clamping to 2") as record:
            assert resolve_workers(8) == 2
        assert len(record) == 1

    def test_at_or_below_cpu_count_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(2) == 2
            assert resolve_workers(1) == 1

    def test_strict_keeps_the_request(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(8, strict=True) == 8

    def test_clamp_applies_to_env_resolution_too(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "16")
        with pytest.warns(RuntimeWarning, match="16 campaign workers"):
            assert resolve_workers() == 2

    def test_unknown_cpu_count_clamps_to_one(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.progress.os.cpu_count", lambda: None
        )
        with pytest.warns(RuntimeWarning, match="1-CPU host"):
            assert resolve_workers(4) == 1


# -- atomic writes ---------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_json_and_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cell.json"
        atomic_write_json(str(path), {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_bytes_equal_json_dumps(self, tmp_path):
        path = tmp_path / "cell.json"
        payload = {
            "version": 1,
            "fingerprint": {"campaign": "x", "seed": 3, "shape": [1, 2.5, None]},
            "result": {"p": 0.1 + 0.2, "big": 2**70, "text": "\u00e9\u2603",
                       "nested": [{"a": True}, [], {}], "nan": float("nan")},
        }
        atomic_write_json(str(path), payload)
        assert path.read_bytes() == json.dumps(payload).encode()

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "cell.json"
        atomic_write_json(str(path), [1, 2, 3])
        assert os.listdir(tmp_path) == ["cell.json"]

    def test_failed_write_leaves_previous_content(self, tmp_path):
        path = tmp_path / "cell.json"
        atomic_write_json(str(path), {"good": True})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert json.loads(path.read_text()) == {"good": True}
        assert os.listdir(tmp_path) == ["cell.json"]

    def test_racing_writers_never_tear(self, tmp_path):
        """Concurrent writers to one path: the file is always intact."""
        path = str(tmp_path / "cell.json")
        payloads = [{"writer": w, "data": list(range(200))} for w in range(4)]

        def hammer(payload):
            for _ in range(25):
                atomic_write_json(path, payload)

        threads = [threading.Thread(target=hammer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = json.loads(open(path).read())
        assert final in payloads
        assert os.listdir(tmp_path) == ["cell.json"]


# -- the result store ------------------------------------------------------------


FP = {"science": "x", "seed": 3, "engine": "reference"}


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store("cell.json", FP, {"value": 7}, campaign="t", key=[1])
        result, reason = store.load("cell.json", FP)
        assert result == {"value": 7}
        assert reason is None

    def test_absent(self, tmp_path):
        assert ResultStore(str(tmp_path)).load("missing.json", FP) == (
            None,
            "absent",
        )

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all{{{",
            '"a bare string"',
            "[1, 2, 3]",
            '{"version": 1}',  # structurally wrong: no fingerprint/result
        ],
    )
    def test_corrupt(self, tmp_path, content):
        (tmp_path / "cell.json").write_text(content)
        assert ResultStore(str(tmp_path)).load("cell.json", FP) == (
            None,
            "corrupt",
        )

    def test_stale_version(self, tmp_path):
        (tmp_path / "cell.json").write_text(
            json.dumps({"version": 999, "fingerprint": FP, "result": 1})
        )
        assert ResultStore(str(tmp_path)).load("cell.json", FP) == (None, "stale")

    def test_stale_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store("cell.json", FP, 1)
        other = dict(FP, seed=4)
        assert store.load("cell.json", other) == (None, "stale")

    def test_cross_engine_results_never_substitute(self, tmp_path):
        """A cell computed under one engine is stale under the other.

        This is the REPRO_FAULTSIM / REPRO_PERF resume contract: the
        engines are statistically equivalent, not bit-identical, so the
        fingerprint's ``engine`` field must gate every load.
        """
        store = ResultStore(str(tmp_path))
        store.store("cell.json", FP, 1)
        fast = dict(FP, engine="fast")
        assert store.load("cell.json", fast) == (None, "stale")
        # Same engine still loads.
        assert store.load("cell.json", dict(FP)) == (1, None)

    def test_store_version_constant(self):
        assert STORE_VERSION == 1

    def test_fingerprint_digest_is_order_insensitive(self):
        a = fingerprint_digest({"x": 1, "y": 2})
        b = fingerprint_digest({"y": 2, "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != fingerprint_digest({"x": 1, "y": 3})


# -- the append-only index -------------------------------------------------------


class TestIndex:
    def test_entries_and_summary(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store("a.json", FP, 1, campaign="alpha", key=["a"])
        store.store("b.json", dict(FP, seed=4), 2, campaign="alpha", key=["b"])
        store.store("c.json", dict(FP, seed=5), 3, campaign="beta", key=["c"])
        assert len(read_index(str(tmp_path))) == 3
        summary = summarize_index(str(tmp_path))
        assert summary["alpha"] == {
            "completed": 2,
            "cells": 2,
            "entries": 2,
            "failures": 0,
        }
        assert summary["beta"] == {
            "completed": 1,
            "cells": 1,
            "entries": 1,
            "failures": 0,
        }

    def test_rewrites_count_once(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for _ in range(3):
            store.store("a.json", FP, 1, campaign="alpha", key=["a"])
        summary = summarize_index(str(tmp_path))
        assert summary["alpha"] == {
            "completed": 1,
            "cells": 1,
            "entries": 3,
            "failures": 0,
        }

    def test_malformed_lines_are_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store("a.json", FP, 1, campaign="alpha", key=["a"])
        with open(tmp_path / INDEX_NAME, "a") as handle:
            handle.write("garbage not json\n")
            handle.write('{"no_campaign_field": true}\n')
        assert len(read_index(str(tmp_path))) == 1

    def test_failure_totals(self, tmp_path):
        """The index carries per-cell failure counts; summaries sum them."""
        store = ResultStore(str(tmp_path))
        store.store("a.json", FP, 1, campaign="alpha", key=["a"], failures=3)
        store.store(
            "b.json", dict(FP, seed=4), 2, campaign="alpha", key=["b"], failures=2
        )
        assert summarize_index(str(tmp_path))["alpha"]["failures"] == 5
        # A rewrite replaces the cell's count (last entry wins) instead
        # of double-counting it.
        store.store("a.json", FP, 1, campaign="alpha", key=["a"], failures=1)
        assert summarize_index(str(tmp_path))["alpha"]["failures"] == 3

    def test_failure_totals_tolerate_legacy_entries(self, tmp_path):
        """Entries written before the failures field contribute zero."""
        store = ResultStore(str(tmp_path))
        store.store("a.json", FP, 1, campaign="alpha", key=["a"], failures=2)
        with open(tmp_path / INDEX_NAME, "a") as handle:
            handle.write(
                json.dumps({"campaign": "alpha", "key": ["b"], "cell": "b.json"})
                + "\n"
            )
        summary = summarize_index(str(tmp_path))
        assert summary["alpha"]["failures"] == 2
        assert summary["alpha"]["cells"] == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"campaign": "perf", "key": [1], "cell": "c1", "failures": NaN}',
            '{"campaign": "perf", "key": [1], "cell": "c1", "failures": Infinity}',
            '{"campaign": "perf", "key": [1], "cell": ["c1"], "failures": 0}',
            '{"campaign": ["perf"], "key": [1], "cell": "c1", "failures": 0}',
        ],
        ids=["failures-nan", "failures-inf", "cell-list", "campaign-list"],
    )
    def test_wrong_typed_entries_are_skipped(self, tmp_path, line):
        """Valid JSON with a wrong-typed field is skipped like a torn line."""
        store = ResultStore(str(tmp_path))
        store.store("a.json", FP, 1, campaign="alpha", key=["a"], failures=2)
        with open(tmp_path / INDEX_NAME, "a") as handle:
            handle.write(line + "\n")
        assert len(read_index(str(tmp_path))) == 1
        assert summarize_index(str(tmp_path)) == {
            "alpha": {"completed": 1, "cells": 1, "entries": 1, "failures": 2}
        }

    def test_missing_index(self, tmp_path):
        assert read_index(str(tmp_path)) == []
        assert summarize_index(str(tmp_path)) == {}


# -- a minimal concrete campaign (module level: workers pickle it) ---------------


class SquareItem:
    def __init__(self, index, value, group=None):
        self.index = index
        self.value = value
        self.group = group if group is not None else index
        self.key = value


class SquareCampaign(Campaign):
    name = "square"

    def fingerprint(self, item):
        return {"campaign": "square", "value": item.value}

    def group_key(self, item):
        return item.group

    def run_item(self, item):
        return {"square": item.value * item.value, "pid": os.getpid()}

    def result_failures(self, result):
        return 1 if result["square"] > 50 else 0


class CrashOnceCampaign(SquareCampaign):
    """Kills its worker the first time each item runs, then succeeds."""

    name = "crash-once"

    def __init__(self, flag_dir):
        self.flag_dir = flag_dir

    def run_item(self, item):
        flag = os.path.join(self.flag_dir, f"ran-{item.index}")
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)  # hard worker death: the pool breaks
        return super().run_item(item)


class AlwaysCrashCampaign(SquareCampaign):
    name = "always-crash"

    def run_item(self, item):
        os._exit(1)


def _items(n, groups=None):
    return [
        SquareItem(i, i + 1, None if groups is None else groups[i])
        for i in range(n)
    ]


class TestRunCampaign:
    def test_results_keyed_by_index(self):
        results = run_campaign(SquareCampaign(), _items(4))
        assert {i: r["square"] for i, r in results.items()} == {
            0: 1,
            1: 4,
            2: 9,
            3: 16,
        }

    def test_worker_count_never_changes_results(self, tmp_path):
        seq = run_campaign(SquareCampaign(), _items(6))
        par = run_campaign(SquareCampaign(), _items(6), workers=3)
        assert {i: r["square"] for i, r in seq.items()} == {
            i: r["square"] for i, r in par.items()
        }

    def test_groups_share_a_worker(self):
        """Items with equal group keys run in the same process."""
        items = _items(6, groups=[0, 0, 0, 1, 1, 1])
        results = run_campaign(SquareCampaign(), items, workers=2)
        pids_a = {results[i]["pid"] for i in (0, 1, 2)}
        pids_b = {results[i]["pid"] for i in (3, 4, 5)}
        assert len(pids_a) == 1
        assert len(pids_b) == 1

    def test_store_resume_and_progress_protocol(self, tmp_path):
        snaps = []
        first = run_campaign(
            SquareCampaign(),
            _items(4),
            store_dir=str(tmp_path),
            progress=snaps.append,
        )
        assert snaps[-1].items_done == 4
        assert snaps[-1].items_from_store == 0
        assert snaps[-1].failures == 0
        snaps.clear()
        second = run_campaign(
            SquareCampaign(),
            _items(4),
            store_dir=str(tmp_path),
            progress=snaps.append,
        )
        assert {i: r["square"] for i, r in first.items()} == {
            i: r["square"] for i, r in second.items()
        }
        assert snaps[-1].items_from_store == 4
        assert isinstance(snaps[-1], CampaignProgress)
        assert "cached 4" in snaps[-1].describe()

    def test_rejection_reasons_reach_progress(self, tmp_path):
        campaign = SquareCampaign()
        items = _items(4)
        run_campaign(campaign, items, store_dir=str(tmp_path))
        cells = sorted(p for p in os.listdir(tmp_path) if p.startswith("square-"))
        assert len(cells) == 4
        # One corrupt (truncated write), one stale (foreign science).
        (tmp_path / cells[0]).write_text('{"version": 1, "fing')
        (tmp_path / cells[1]).write_text(
            json.dumps(
                {"version": STORE_VERSION, "fingerprint": {"other": 1}, "result": 9}
            )
        )
        snaps = []
        results = run_campaign(
            campaign, items, store_dir=str(tmp_path), progress=snaps.append
        )
        assert {i: r["square"] for i, r in results.items()} == {
            0: 1,
            1: 4,
            2: 9,
            3: 16,
        }
        assert snaps[-1].rejected_corrupt == 1
        assert snaps[-1].rejected_stale == 1
        assert snaps[-1].items_from_store == 2
        assert "rejected 1 corrupt/1 stale" in snaps[-1].describe()

    def test_failures_are_accumulated(self):
        snaps = []
        run_campaign(SquareCampaign(), _items(9), progress=snaps.append)
        # squares over 50: 64, 81
        assert snaps[-1].failures == 2

    def test_worker_crash_retries_and_completes(self, tmp_path):
        campaign = CrashOnceCampaign(str(tmp_path))
        results = run_campaign(campaign, _items(3), workers=2)
        assert {i: r["square"] for i, r in results.items()} == {0: 1, 1: 4, 2: 9}

    def test_repeated_crashes_raise_campaign_error(self):
        with pytest.raises(CampaignError, match="always-crash"):
            run_campaign(
                AlwaysCrashCampaign(),
                _items(2),
                workers=2,
                max_attempts=2,
            )

    def test_index_records_failure_totals(self, tmp_path):
        """result_failures flows through the engine onto index entries."""
        run_campaign(SquareCampaign(), _items(9), store_dir=str(tmp_path))
        # squares over 50: 64, 81
        assert summarize_index(str(tmp_path))["square"]["failures"] == 2

    def test_index_records_completed_items(self, tmp_path):
        run_campaign(SquareCampaign(), _items(3), store_dir=str(tmp_path))
        summary = summarize_index(str(tmp_path))
        assert summary["square"] == {
            "completed": 3,
            "cells": 3,
            "entries": 3,
            "failures": 0,
        }
        # A resume loads from the store and appends nothing new.
        run_campaign(SquareCampaign(), _items(3), store_dir=str(tmp_path))
        assert summarize_index(str(tmp_path))["square"]["entries"] == 3


# -- ProgressBase under concurrent mutation --------------------------------------


class TestProgressThreadSafety:
    """The server mutates live ProgressBase objects from several threads
    (asyncio loop + job executor threads); advance/update/snapshot must
    stay exact and consistent under that concurrency."""

    def test_concurrent_advance_loses_nothing(self):
        progress = CampaignProgress(items_total=800, units_total=800)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(100):
                progress.advance(items_done=1, units_done=1, failures=1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert progress.items_done == 800
        assert progress.units_done == 800
        assert progress.failures == 800

    def test_snapshot_is_consistent_and_serializable_under_mutation(self):
        import pickle

        progress = CampaignProgress(items_total=10_000, units_total=10_000)
        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                # Both counters move inside one locked advance, so any
                # consistent snapshot sees them equal.
                progress.advance(items_done=1, units_done=1)

        thread = threading.Thread(target=mutate)
        thread.start()
        try:
            for _ in range(200):
                snap = progress.snapshot()
                assert snap.items_done == snap.units_done
                assert "_lock" not in snap.__dict__
                snap.describe()
                revived = pickle.loads(pickle.dumps(snap))
                assert revived.items_done == snap.items_done
        finally:
            stop.set()
            thread.join()
        # The live (locked) object itself pickles too: __getstate__
        # drops the lock.
        revived = pickle.loads(pickle.dumps(progress))
        assert "_lock" not in revived.__dict__
        revived.advance(items_done=1)  # lazily re-creates its lock

    def test_update_sets_fields_atomically(self):
        progress = CampaignProgress()
        progress.update(items_done=3, items_total=9, elapsed_s=1.5)
        assert (progress.items_done, progress.items_total) == (3, 9)
        assert progress.elapsed_s == 1.5


# -- the contract every campaign family shares ------------------------------------


def _faultsim_adapter(store_dir, progress):
    from repro.faultsim.evaluators import SECDEDEvaluator
    from repro.faultsim.geometry import X8_SECDED_16GB
    from repro.faultsim.montecarlo import MonteCarloConfig
    from repro.faultsim.parallel import simulate_parallel

    config = MonteCarloConfig(n_modules=2_000, seed=1, engine="fast")
    simulate_parallel(
        SECDEDEvaluator(X8_SECDED_16GB),
        X8_SECDED_16GB,
        config,
        workers=1,
        shards=3,
        checkpoint_dir=store_dir,
        progress=progress,
    )
    return 3


def _perf_adapter(store_dir, progress):
    from repro.perf.campaign import plan_grid, run_cells
    from repro.perf.model import PerfConfig
    from repro.perf.organizations import safeguard

    config = PerfConfig(
        n_cores=1, instructions_per_core=2_000, warmup_instructions=500, engine="fast"
    )
    cells = plan_grid([safeguard(8)], ["mcf"], [config.seed])
    run_cells(cells, config, workers=1, cache_dir=store_dir, progress=progress)
    return len(cells)


def _sweep_adapter(store_dir, progress):
    from repro.rowhammer.sweep import SweepConfig, plan_sweep, run_sweep

    cells = plan_sweep(
        attacks=["double-sided"],
        mitigations=["none"],
        schemes=["secded", "safeguard-secded"],
    )
    run_sweep(
        cells, SweepConfig(budget=2_000), cache_dir=store_dir, progress=progress
    )
    return len(cells)


def _playbook_adapter(store_dir, progress):
    from repro.rowhammer.playbook import PlaybookConfig, plan_playbook, run_playbook

    config = PlaybookConfig(budget=2_000)
    cells = plan_playbook(
        scenarios=["double-sided"],
        mitigations=["none"],
        schemes=["secded", "safeguard-secded"],
        config=config,
    )
    run_playbook(cells, config, cache_dir=store_dir, progress=progress)
    return len(cells)


#: Each family's tiny run: ``(store_dir, progress) -> items planned``.
ADAPTERS = {
    "faultsim": _faultsim_adapter,
    "perf": _perf_adapter,
    "hammer-sweep": _sweep_adapter,
    "playbook": _playbook_adapter,
}


class TestAdapterContract:
    """Every campaign family reports, names and indexes its cells alike."""

    @pytest.mark.parametrize("family", sorted(ADAPTERS))
    def test_progress_names_and_index(self, tmp_path, family):
        snaps = []
        n_items = ADAPTERS[family](str(tmp_path), snaps.append)
        assert snaps and all(isinstance(s, CampaignProgress) for s in snaps)
        assert snaps[-1].items_done == snaps[-1].items_total == n_items
        cells = sorted(name for name in os.listdir(tmp_path) if name != INDEX_NAME)
        pattern = re.compile(rf"{re.escape(family)}-[0-9a-f]{{16}}\.json")
        assert len(cells) == n_items
        assert all(pattern.fullmatch(name) for name in cells), cells
        assert sorted(entry["cell"] for entry in read_index(str(tmp_path))) == cells
        summary = summarize_index(str(tmp_path))
        assert list(summary) == [family]
        assert summary[family]["completed"] == summary[family]["cells"] == n_items
