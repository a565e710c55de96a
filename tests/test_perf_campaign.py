"""Determinism harness for the parallel performance-campaign engine.

Three pillars, mirroring ``test_montecarlo_parallel.py``:

- **Equivalence** — any worker count reproduces the sequential
  ``run_comparison()`` output bit-for-bit (cycle counts, IPCs, DRAM
  stats); re-running is deterministic.
- **Cell cache** — a second campaign reloads every verified cell;
  corrupted, truncated or fingerprint-mismatching files fall back to
  recomputation (never poisoning the science).
- **Golden corpus** — ``tests/data/golden_perf.json`` pins the bit-exact
  ``SystemResult`` of a fixed cell grid, so model refactors either
  reproduce the recorded cycle counts or consciously regenerate the
  corpus (``scripts/make_golden_perf.py``) and bump ``MODEL_VERSION``.

Plus unit coverage of the reporting metrics the figures are built from
(``weighted_speedup``, geomean slowdowns) and the JSON round-trip.
"""

import json
import math
import os

import pytest

from repro.campaign import CampaignProgress, cell_name
from repro.cpu.system import SystemResult
from repro.cpu.workloads import profile
from repro.perf.campaign import (
    CampaignCell,
    cell_fingerprint,
    plan_grid,
    resolve_workers,
    run_cells,
    run_comparison_multiseed_parallel,
    run_comparison_parallel,
)
from repro.perf.model import (
    PerfConfig,
    WorkloadResult,
    geomean_normalized,
    geomean_slowdown_percent,
    run_comparison,
    run_comparison_multiseed,
    run_workload,
)
from repro.perf.organizations import (
    BASELINE_ECC,
    PerfOrganization,
    safeguard,
    sgx_style,
)
from repro.switches import WORKERS_ENV

#: Small but mechanism-covering scale (prefetch trains, LLC churn,
#: posted-write drains all fire) so the grid sweeps stay fast.
FAST = PerfConfig(n_cores=2, instructions_per_core=12_000, warmup_instructions=3_000)
ORGS = [safeguard(8), sgx_style(8)]
WORKLOADS = ["mcf", "gcc"]


def assert_results_identical(a, b):
    """Bit-for-bit equality of two run_comparison outputs."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.workload == right.workload
        assert left.baseline == right.baseline
        assert left.results == right.results


@pytest.fixture(scope="module")
def sequential():
    return run_comparison(ORGS, workloads=WORKLOADS, config=FAST)


# -- equivalence -----------------------------------------------------------------


def test_sequential_rerun_is_deterministic(sequential):
    again = run_comparison(ORGS, workloads=WORKLOADS, config=FAST)
    assert_results_identical(sequential, again)


def test_inprocess_engine_matches_sequential(sequential):
    engine = run_comparison_parallel(
        ORGS, workloads=WORKLOADS, config=FAST, workers=1
    )
    assert_results_identical(sequential, engine)


def test_two_workers_match_sequential(sequential):
    engine = run_comparison_parallel(
        ORGS, workloads=WORKLOADS, config=FAST, workers=2
    )
    assert_results_identical(sequential, engine)


def test_multiseed_engine_matches_sequential():
    seeds = [0, 1]
    seq = run_comparison_multiseed(
        ORGS, seeds, workloads=["mcf"], config=FAST
    )
    par = run_comparison_multiseed_parallel(
        ORGS, seeds, workloads=["mcf"], config=FAST, workers=2
    )
    assert seq.keys() == par.keys()
    for name in seq:
        assert seq[name].per_seed_slowdown_percent == par[name].per_seed_slowdown_percent


# -- cell cache ------------------------------------------------------------------


def test_cache_reloads_every_cell(sequential, tmp_path):
    cache = str(tmp_path)
    first = run_comparison_parallel(
        ORGS, workloads=WORKLOADS, config=FAST, workers=1, cache_dir=cache
    )
    stats = []
    second = run_comparison_parallel(
        ORGS,
        workloads=WORKLOADS,
        config=FAST,
        workers=1,
        cache_dir=cache,
        progress=stats.append,
    )
    assert_results_identical(sequential, first)
    assert_results_identical(first, second)
    # 2 workloads x (baseline + 2 orgs) = 6 cells, all reloaded.
    assert stats[-1].items_total == 6
    assert stats[-1].items_from_store == 6


def test_corrupted_cache_recomputes(sequential, tmp_path):
    cache = str(tmp_path)
    run_comparison_parallel(
        ORGS, workloads=WORKLOADS, config=FAST, workers=1, cache_dir=cache
    )
    paths = sorted(
        os.path.join(cache, name)
        for name in os.listdir(cache)
        if name.endswith(".json")
    )
    with open(paths[0], "w") as handle:
        handle.write("{ truncated")  # killed mid-write
    with open(paths[1], "w") as handle:
        json.dump({"version": 999}, handle)  # wrong schema
    stats = []
    again = run_comparison_parallel(
        ORGS,
        workloads=WORKLOADS,
        config=FAST,
        workers=1,
        cache_dir=cache,
        progress=stats.append,
    )
    assert_results_identical(sequential, again)
    assert stats[-1].items_from_store == 4  # two poisoned cells recomputed


def test_tampered_fingerprint_is_rejected(sequential, tmp_path):
    """The stored fingerprint is verified in full, not just the filename."""
    cache = str(tmp_path)
    cells = plan_grid(ORGS, WORKLOADS, [FAST.seed])
    run_cells(cells, FAST, workers=1, cache_dir=cache)
    fingerprint = cell_fingerprint(cells[0], FAST)
    path = os.path.join(cache, cell_name("perf", fingerprint))
    with open(path) as handle:
        payload = json.load(handle)
    payload["fingerprint"]["seed"] = 777  # same filename, different science
    payload["result"]["core_cycles"] = [1.0] * FAST.n_cores
    with open(path, "w") as handle:
        json.dump(payload, handle)
    stats = []
    again = run_comparison_parallel(
        ORGS,
        workloads=WORKLOADS,
        config=FAST,
        workers=1,
        cache_dir=cache,
        progress=stats.append,
    )
    assert_results_identical(sequential, again)
    assert stats[-1].items_from_store == 5


def test_changed_scale_misses_cache(tmp_path):
    cache = str(tmp_path)
    run_comparison_parallel(
        ORGS, workloads=["mcf"], config=FAST, workers=1, cache_dir=cache
    )
    bigger = PerfConfig(
        n_cores=FAST.n_cores,
        instructions_per_core=FAST.instructions_per_core + 1_000,
        warmup_instructions=FAST.warmup_instructions,
    )
    stats = []
    run_comparison_parallel(
        ORGS,
        workloads=["mcf"],
        config=bigger,
        workers=1,
        cache_dir=cache,
        progress=stats.append,
    )
    assert stats[-1].items_from_store == 0


# -- fingerprints and grid planning ----------------------------------------------


def test_fingerprint_distinguishes_science_knobs():
    cell = CampaignCell(0, "mcf", safeguard(8), 0)
    base = cell_fingerprint(cell, FAST)
    assert cell_fingerprint(cell, FAST) == base  # stable
    variants = [
        cell_fingerprint(CampaignCell(0, "gcc", safeguard(8), 0), FAST),
        cell_fingerprint(CampaignCell(0, "mcf", safeguard(24), 0), FAST),
        cell_fingerprint(CampaignCell(0, "mcf", sgx_style(8), 0), FAST),
        cell_fingerprint(CampaignCell(0, "mcf", safeguard(8), 3), FAST),
        cell_fingerprint(cell, PerfConfig(n_cores=4)),
    ]
    for variant in variants:
        assert variant != base


def test_fingerprint_pins_code_constants():
    fingerprint = cell_fingerprint(CampaignCell(0, "mcf", BASELINE_ECC, 0), FAST)
    controller = fingerprint["controller"]
    assert controller["write_queue"] == 64
    assert controller["drain_high"] == 48
    assert controller["drain_low"] == 16
    assert fingerprint["timing"]["tRRD"] == 4
    assert fingerprint["timing"]["tFAW"] == 40


def test_plan_grid_dedups_baseline():
    cells = plan_grid([BASELINE_ECC, *ORGS], ["mcf"], [0])
    keys = [cell.key for cell in cells]
    assert len(keys) == len(set(keys)) == 3  # baseline listed once
    assert cells[0].organization == BASELINE_ECC


def test_plan_grid_indexes_are_dense():
    cells = plan_grid(ORGS, WORKLOADS, [0, 1])
    assert [cell.index for cell in cells] == list(range(len(cells)))


# -- workers / progress ----------------------------------------------------------


def test_resolve_workers_precedence(monkeypatch):
    # Pin the CPU count high so the oversubscription clamp (pinned in
    # test_campaign_core) never rewrites the precedence picks here.
    monkeypatch.setattr("repro.campaign.progress.os.cpu_count", lambda: 64)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2  # explicit beats env
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_progress_stats_shape():
    # A perf cell is one item and one unit.
    done = CampaignProgress(
        items_done=3,
        items_total=6,
        items_from_store=1,
        units_done=3,
        units_total=6,
        elapsed_s=2.0,
    )
    assert done.rate == pytest.approx(1.5)
    assert done.eta_s == pytest.approx(2.0)
    assert done.fraction_done == pytest.approx(0.5)
    assert "3/6" in done.describe()
    empty = CampaignProgress()
    assert empty.fraction_done == 1.0
    assert empty.eta_s == 0.0


def test_progress_is_monotonic(tmp_path):
    stats = []
    run_comparison_parallel(
        ORGS,
        workloads=["mcf"],
        config=FAST,
        workers=1,
        cache_dir=str(tmp_path),
        progress=stats.append,
    )
    counts = [s.items_done for s in stats]
    assert counts == sorted(counts)
    assert counts[-1] == stats[-1].items_total == 3


# -- reporting metrics -----------------------------------------------------------


def _result(cycles, n_cores=2):
    return SystemResult(
        workload="w",
        organization="o",
        n_cores=n_cores,
        instructions_per_core=1_000,
        core_cycles=list(cycles),
        core_ipc=[1_000 / c for c in cycles],
        dram_reads=0,
        dram_writes=0,
        llc_miss_rate=0.0,
        row_hit_rate=0.0,
        avg_read_latency_mem_cycles=0.0,
    )


def test_weighted_speedup_identity_and_known_value():
    base = _result([100.0, 200.0])
    assert base.weighted_speedup(base) == pytest.approx(1.0)
    slower = _result([200.0, 200.0])
    # Core 0 at half speed, core 1 unchanged: mean of (0.5, 1.0).
    assert slower.weighted_speedup(base) == pytest.approx(0.75)
    assert base.weighted_speedup(slower) == pytest.approx(1.5)


def test_weighted_speedup_rejects_core_mismatch():
    with pytest.raises(ValueError):
        _result([100.0, 100.0]).weighted_speedup(_result([100.0], n_cores=1))


def test_speedup_over_uses_slowest_core():
    base = _result([100.0, 400.0])
    mine = _result([100.0, 200.0])
    assert mine.speedup_over(base) == pytest.approx(2.0)
    assert base.total_cycles == 400.0


def test_geomean_normalized_known_values():
    def entry(base_cycles, org_cycles):
        baseline = _result([base_cycles, base_cycles])
        mine = _result([org_cycles, org_cycles])
        return WorkloadResult(workload="w", baseline=baseline, results={"org": mine})

    results = [entry(100.0, 200.0), entry(100.0, 50.0)]
    # Normalized perf 0.5 and 2.0: geomean exactly 1.0.
    assert geomean_normalized(results, "org") == pytest.approx(1.0)
    assert geomean_slowdown_percent(results, "org") == pytest.approx(0.0)
    skewed = [entry(100.0, 125.0)]
    assert geomean_normalized(skewed, "org") == pytest.approx(0.8)
    assert geomean_slowdown_percent(skewed, "org") == pytest.approx(20.0)
    # log-domain mean == root of the product, on irregular values too.
    trio = [entry(100.0, 110.0), entry(100.0, 130.0), entry(100.0, 170.0)]
    expected = math.exp(
        sum(math.log(r.normalized_performance("org")) for r in trio) / 3
    )
    assert geomean_normalized(trio, "org") == pytest.approx(expected, rel=1e-12)


def test_system_result_json_roundtrip():
    result = run_workload(profile("gcc"), safeguard(8), FAST)
    clone = SystemResult.from_json(json.loads(json.dumps(result.to_json())))
    assert clone == result  # exact, including float cycle counts


# -- golden corpus ---------------------------------------------------------------

_CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_perf.json")


def _load_corpus():
    with open(_CORPUS_PATH) as handle:
        return json.load(handle)


@pytest.mark.slow
def test_golden_corpus_replays_exactly():
    """Every recorded cell reproduces bit-for-bit on the current model.

    A behaviour change that breaks this must regenerate the corpus with
    ``scripts/make_golden_perf.py`` and bump ``MODEL_VERSION`` so cached
    campaign cells from the old model are invalidated too. The engine is
    pinned to ``reference`` (the records were made with it), so the test
    means the same thing under any ``REPRO_PERF`` mode; the fast
    engine's records replay in ``test_perf_fastpath.py``.
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
                engine="reference",
            ),
        )
        golden = SystemResult.from_json(cell["result"])
        assert result == golden, (
            f"golden mismatch for {cell['workload']}/"
            f"{organization.name}/seed={cell['seed']}"
        )


def test_golden_corpus_version_matches_model():
    from repro.perf.campaign import MODEL_VERSION

    assert _load_corpus()["model_version"] == MODEL_VERSION


def test_golden_corpus_covers_the_mechanisms():
    """The corpus is only a pin if the grid actually exercises the model."""
    corpus = _load_corpus()
    workloads = {cell["workload"] for cell in corpus["cells"]}
    org_shapes = {
        (
            cell["organization"]["extra_read_per_read"],
            cell["organization"]["extra_write_per_writeback"],
            cell["organization"]["read_tail_cpu_cycles"] > 0,
        )
        for cell in corpus["cells"]
    }
    assert {"bwaves", "lbm", "roms"} <= workloads  # write-heavy: drain path
    assert "mcf" in workloads  # pointer chase: serializing loads
    assert "omnetpp" in workloads  # latency-sensitive mixed workload
    assert len(org_shapes) == 4  # all four organization shapes
    seeds = {cell["seed"] for cell in corpus["cells"]}
    assert len(seeds) >= 2
    assert len(corpus["cells"]) == 48
    # Every cell carries both engines' records, so the corpus pins the
    # fast engine exactly as strongly as the reference one.
    assert all("result_fast" in cell for cell in corpus["cells"])
