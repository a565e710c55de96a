"""Tests of the benchmark itself, at tiny workload sizes."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


def _spec():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def _bench(capsys, workload, trace=0, seed=1):
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"]
    ) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_traced_layers_see_their_own_workload(capsys):
    metrics = _bench(capsys, "hammer-sweep", trace=1)["metrics"]
    assert metrics["rowhammer.runs"]["value"] == 16
    assert metrics["core.lines_read"]["value"] > 0
    assert metrics["mac.calls"]["value"] > 0
    assert metrics["perf.cells"]["value"] == 0
    assert metrics["campaign.items_loaded"]["value"] == 64
    assert metrics["trace.covered_frac"]["value"] > 0.5


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    workload = workloads.HammerSweep(1, "tiny")
    return workload, workload.run(str(tmp_path_factory.mktemp("store")))


def test_clean_sweep_passes_the_gate(sweep_results):
    workload, cold = sweep_results
    assert workload.check(cold, workloads.canonical_text(copy.deepcopy(cold))) == {}


def test_planted_safeguard_silent_read_fails(sweep_results):
    workload, cold = sweep_results
    bad = copy.deepcopy(cold)
    key = next(k for k, v in bad.items() if v["scheme"] == "safeguard-secded")
    bad[key]["silent_corruptions"] = 1
    failed = workload.check(bad)
    assert list(failed) == [key]
    assert workload.failed_cells(failed) == 1


def test_planted_warm_difference_fails(sweep_results):
    workload, cold = sweep_results
    warm = copy.deepcopy(cold)
    key = next(iter(warm))
    warm[key]["lines_read"] += 1
    assert workloads.differing(workloads.canonical_text(cold), warm) == [key]
    assert workloads.differing(workloads.canonical_text(cold), cold) == []


def test_missing_cell_fails(sweep_results):
    workload, cold = sweep_results
    short = dict(cold)
    key = short.popitem()[0]
    assert workload.check(short)[key] == "missing from the cold run"


def test_attacks_that_stop_working_fail(sweep_results):
    workload, cold = sweep_results
    tame = copy.deepcopy(cold)
    for outcome in tame.values():
        outcome["silent_corruptions"] = 0
    failed = workload.check(tame)
    assert failed and all(not workloads._is_safeguard(k.split("|")[2]) for k in failed)


def test_reliability_sdc_in_safeguard_fails(tmp_path):
    workload = workloads.Reliability(1, "tiny")
    cold = workload.run(str(tmp_path))
    assert workload.check(cold) == {}
    cold["safeguard-chipkill|10xFIT"]["n_sdc"] = 1
    failed = workload.check(cold)
    assert list(failed) == ["safeguard-chipkill|10xFIT"]
    assert workload.failed_cells(failed) == workloads.RELIABILITY_SHARDS


def test_perf_mac_faster_than_baseline_fails(tmp_path):
    workload = workloads.PerfGrid(1, "tiny")
    cold = workload.run(str(tmp_path))
    assert workload.check(cold) == {}
    faster = copy.deepcopy(cold)
    sgx = workloads.organization_for("sgx-mac", 8).name
    for key, payload in faster.items():
        if key.split("|")[1] == sgx:
            payload["core_cycles"] = [c * 0.5 for c in payload["core_cycles"]]
    failed = workload.check(faster)
    assert failed and {k.split("|")[1] for k in failed} == {sgx}


@pytest.mark.parametrize("defect", ["silent-safeguard", "warm-differs"])
def test_planted_defect_raises_failed_frac(capsys, monkeypatch, defect):
    original = workloads.HammerSweep.run

    def planted(self, store_dir, progress=None):
        warm = bool(os.listdir(store_dir))
        results = original(self, store_dir, progress)
        key = next(k for k, v in results.items() if v["scheme"] == "safeguard-chipkill")
        if defect == "silent-safeguard":
            results[key] = dict(results[key], silent_corruptions=2)
        elif warm:
            results[key] = dict(results[key], corrected=results[key]["corrected"] + 1)
        return results

    monkeypatch.setattr(workloads.HammerSweep, "run", planted)
    result = _bench(capsys, "hammer-sweep")
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["cells_ok_frac"]["value"] < 1.0


def test_tracer_self_time_excludes_children_and_counters():
    tracer = spans.Tracer()

    class Layer:
        def leaf(self):
            return 1

    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        tracer.count(Layer, "leaf", "mac")
        Layer().leaf()
        tracer.unhook()
    children = {outer["id"]: [tracer.spans[1]]}
    inner = tracer.spans[1]
    expected = (
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
        - outer["attrs"]["mac.s"]
    )
    assert outer["attrs"]["mac.calls"] == 1
    assert spans._self_time(outer, children) == pytest.approx(expected)
    assert Layer.leaf.__name__ == "leaf" and not hasattr(Layer.leaf, "__wrapped__")


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "perf-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
