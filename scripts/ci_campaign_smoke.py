"""Unified campaign smoke: every adapter, 2 workers, one shared store.

CI's one-stop check that the generic campaign core works end to end for
all four campaign families, replacing the per-engine smoke steps it
grew out of:

1. **Monte-Carlo shards** (both faultsim engines): the 2-worker sharded
   run is bit-identical to the sequential loop, and
   ``python -m repro campaign-status`` on its checkpoint directory lists
   the ``faultsim`` family with one completed item per shard.
2. **Performance cells** (both perf engines): the 2-worker grid is
   bit-identical to ``run_comparison``, and a second run reloads every
   cell from the shared store.
3. **Row-Hammer sweep**: 2-worker run matches sequential, resumes from
   the shared store.
4. **Attack playbooks**: the library lints (every scenario compiles),
   and a 2-worker playbook campaign matches sequential, resumes from
   the shared store, and survives a mid-campaign kill: the killed
   2-worker child leaves no worker process behind, and the resume is
   bit-identical.
5. **Kill-and-resume**: a child process running the sweep is killed
   mid-campaign; the parent resumes from the partial store, recomputes
   only what is missing, and ends with identical results.
6. **Kill-and-resume over the network**: the same death, but through a
   live campaign server — the child's claims die with its socket, and
   the parent's 2-worker resume through a fresh
   :class:`RemoteResultStore` recomputes only the missing points.

All cached campaigns write into ONE shared store directory (cells are
named ``<family>-<digest>.json``, so families cohabit), and the final
step checks ``python -m repro campaign-status`` summarizes it.

Run locally: ``PYTHONPATH=src python scripts/ci_campaign_smoke.py``
"""

import os
import subprocess
import sys
import tempfile
import time

from repro.campaign import summarize_index
from repro.faultsim.evaluators import SafeGuardSECDEDEvaluator, SECDEDEvaluator
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, simulate
from repro.faultsim.parallel import simulate_parallel
from repro.perf.campaign import run_comparison_parallel
from repro.perf.model import PerfConfig, run_comparison
from repro.perf.organizations import safeguard
from repro.rowhammer.playbook import (
    PlaybookConfig,
    lint_scenarios,
    plan_playbook,
    run_playbook,
)
from repro.rowhammer.sweep import SweepConfig, plan_sweep, run_sweep

#: Monte-Carlo shards per faultsim run.
SHARDS = 4


def campaign_status(store: str) -> dict:
    """``python -m repro campaign-status STORE`` parsed: family -> counts."""
    status = subprocess.run(
        [sys.executable, "-m", "repro", "campaign-status", store],
        capture_output=True,
        text=True,
        env=dict(
            os.environ,
            PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
        ),
    )
    assert status.returncode == 0, status.stderr
    families = {}
    for line in status.stdout.splitlines():
        # "<family> completed N  cells N  index entries N  failures N"
        family, _, counts = line.partition(" completed ")
        families[family.strip()] = int(counts.split()[0])
    return families


def check_faultsim(store: str) -> None:
    for engine, evaluator in (
        ("reference", SECDEDEvaluator(X8_SECDED_16GB)),
        ("fast", SafeGuardSECDEDEvaluator(X8_SECDED_16GB)),
    ):
        config = MonteCarloConfig(
            n_modules=10_000, seed=42, fit_multiplier=10.0, engine=engine
        )
        sequential = simulate(evaluator, X8_SECDED_16GB, config)
        checkpoints = os.path.join(store, f"faultsim-{engine}")
        parallel = simulate_parallel(
            evaluator,
            X8_SECDED_16GB,
            config,
            workers=2,
            shards=SHARDS,
            checkpoint_dir=checkpoints,
        )
        assert sequential.n_failed > 0
        assert parallel.fail_times == sequential.fail_times
        assert parallel.fail_probability == sequential.fail_probability
        assert parallel.failures_by_scope == sequential.failures_by_scope
        completed = campaign_status(checkpoints)
        assert completed == {"faultsim": SHARDS}, completed
        print(
            f"faultsim[{engine}] OK: {parallel.n_failed} failures, "
            f"2-worker result identical to sequential, campaign-status "
            f"lists all {SHARDS} shards"
        )


def check_perf(store: str) -> None:
    for engine, workloads in (("reference", ["mcf", "gcc"]), ("fast", ["mcf", "lbm"])):
        config = PerfConfig(
            n_cores=2,
            instructions_per_core=12_000,
            warmup_instructions=3_000,
            engine=engine,
        )
        orgs = [safeguard(8)]
        sequential = run_comparison(orgs, workloads=workloads, config=config)
        parallel = run_comparison_parallel(
            orgs, workloads=workloads, config=config, workers=2, cache_dir=store
        )
        stats = []
        cached = run_comparison_parallel(
            orgs,
            workloads=workloads,
            config=config,
            workers=2,
            cache_dir=store,
            progress=stats.append,
        )
        for a, b, c in zip(sequential, parallel, cached):
            assert a.baseline == b.baseline == c.baseline
            assert a.results == b.results == c.results
        assert stats[-1].items_from_store == stats[-1].items_total == 4
        print(
            f"perf[{engine}] OK: 2-worker grid identical to sequential, "
            f"all 4 cells reloaded from the shared store"
        )


SWEEP_CONFIG = SweepConfig(budget=6_000)


def sweep_cells():
    return plan_sweep(
        attacks=["double-sided", "half-double"],
        mitigations=["none", "graphene"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
    )


def check_sweep(store: str) -> None:
    cells = sweep_cells()
    sequential = run_sweep(cells, SWEEP_CONFIG)
    parallel = run_sweep(cells, SWEEP_CONFIG, workers=2, cache_dir=store)
    stats = []
    cached = run_sweep(cells, SWEEP_CONFIG, cache_dir=store, progress=stats.append)
    as_json = lambda results: {k: v.to_json() for k, v in results.items()}  # noqa: E731
    assert as_json(sequential) == as_json(parallel) == as_json(cached)
    assert stats[-1].items_from_store == len(cells)
    print(
        f"hammer-sweep OK: 2-worker sweep identical to sequential, "
        f"all {len(cells)} points reloaded from the shared store"
    )


PLAYBOOK_CONFIG = PlaybookConfig(budget=6_000)


def playbook_cells():
    return plan_playbook(
        scenarios=["double-sided", "fuzzed-trr"],
        mitigations=["none", "trr"],
        schemes=["secded", "safeguard-secded"],
        seeds=[3],
        config=PLAYBOOK_CONFIG,
    )


#: Child payload for the playbook kill-and-resume: runs the playbook
#: grid on 2 workers into the store at argv[1], and after the third
#: point writes its worker pids to argv[2] and hard-exits.
_PLAYBOOK_CHILD = """
import multiprocessing, os, sys
from repro.rowhammer.playbook import PlaybookConfig, plan_playbook, run_playbook

config = PlaybookConfig(budget=6_000)
cells = plan_playbook(
    scenarios=["double-sided", "fuzzed-trr"],
    mitigations=["none", "trr"],
    schemes=["secded", "safeguard-secded"],
    seeds=[3],
    config=config,
)

def die_after_three(snap):
    if snap.items_done >= 3:
        with open(sys.argv[2], "w") as fh:
            fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
        os._exit(1)

run_playbook(cells, config, workers=2, cache_dir=sys.argv[1],
             progress=die_after_three)
raise SystemExit("child was supposed to die mid-campaign")
"""


def _pid_alive(pid: int) -> bool:
    """True while ``pid`` runs (Linux /proc); an unreaped zombie counts
    as exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_workers_exit(pids, timeout_s: float = 20.0) -> None:
    """Fail unless every pid in ``pids`` is gone within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if _pid_alive(pid)]
    assert not alive, f"workers {alive} outlived their killed campaign"


def check_playbook(store: str) -> None:
    for line in lint_scenarios():
        print(f"  lint {line}")
    cells = playbook_cells()
    sequential = run_playbook(cells, PLAYBOOK_CONFIG)
    parallel = run_playbook(cells, PLAYBOOK_CONFIG, workers=2, cache_dir=store)
    stats = []
    cached = run_playbook(
        cells, PLAYBOOK_CONFIG, cache_dir=store, progress=stats.append
    )
    as_json = lambda results: {k: v.to_json() for k, v in results.items()}  # noqa: E731
    assert as_json(sequential) == as_json(parallel) == as_json(cached)
    assert stats[-1].items_from_store == len(cells)
    print(
        f"playbook OK: library lints, 2-worker grid identical to "
        f"sequential, all {len(cells)} points reloaded from the shared store"
    )
    # Kill-and-resume of a 2-worker run through a separate store.
    kill_store = os.path.join(store, "killed-playbook")
    pid_file = os.path.join(store, "killed-playbook-workers.txt")
    env = dict(
        os.environ,
        PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    child = subprocess.run(
        [sys.executable, "-c", _PLAYBOOK_CHILD, kill_store, pid_file],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert child.returncode == 1, f"child exited {child.returncode}, expected the kill"
    with open(pid_file) as fh:
        worker_pids = [int(pid) for pid in fh.read().split()]
    assert len(worker_pids) == 2, f"expected 2 workers, saw {worker_pids}"
    assert_workers_exit(worker_pids)
    partial = summarize_index(kill_store).get("playbook", {"completed": 0})
    assert 0 < partial["completed"] < len(cells)
    stats = []
    resumed = run_playbook(
        cells, PLAYBOOK_CONFIG, workers=2, cache_dir=kill_store,
        progress=stats.append,
    )
    assert stats[-1].items_from_store == partial["completed"]
    assert as_json(resumed) == as_json(sequential)
    print(
        f"playbook kill-and-resume OK: 2-worker child died after "
        f"{partial['completed']} points and left no worker behind; "
        f"2-worker resume recomputed only the remaining "
        f"{len(cells) - partial['completed']}"
    )


#: Child payload for the kill-and-resume check: runs the sweep into the
#: store given by argv[1] and hard-exits after the third completed point
#: — mid-campaign, like a CI timeout or an operator's Ctrl-C.
_CHILD = """
import os, sys
from repro.rowhammer.sweep import SweepConfig, plan_sweep, run_sweep

cells = plan_sweep(
    attacks=["double-sided", "half-double"],
    mitigations=["none", "graphene"],
    schemes=["secded", "safeguard-secded"],
    seeds=[3],
)

def die_after_three(snap):
    if snap.items_done >= 3:
        os._exit(1)

run_sweep(cells, SweepConfig(budget=6_000), cache_dir=sys.argv[1],
          progress=die_after_three)
raise SystemExit("child was supposed to die mid-campaign")
"""


def check_kill_and_resume(store: str, reference) -> None:
    kill_store = os.path.join(store, "killed-sweep")
    env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, kill_store],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert child.returncode == 1, f"child exited {child.returncode}, expected the kill"
    partial = summarize_index(kill_store).get("hammer-sweep", {"completed": 0})
    assert 0 < partial["completed"] < len(sweep_cells())
    stats = []
    resumed = run_sweep(
        sweep_cells(), SWEEP_CONFIG, cache_dir=kill_store, progress=stats.append
    )
    assert stats[-1].items_from_store == partial["completed"]
    assert {k: v.to_json() for k, v in resumed.items()} == {
        k: v.to_json() for k, v in reference.items()
    }
    print(
        f"kill-and-resume OK: child died after {partial['completed']} points, "
        f"resume recomputed only the remaining "
        f"{len(sweep_cells()) - partial['completed']}"
    )


#: Child payload for the networked kill-and-resume check: same sweep,
#: but every cell goes through a RemoteResultStore at argv[1]; hard-exit
#: after the third point, abandoning its claims mid-lease.
_REMOTE_CHILD = """
import os, sys
from repro.campaign import RemoteResultStore
from repro.rowhammer.sweep import SweepConfig, plan_sweep, run_sweep

cells = plan_sweep(
    attacks=["double-sided", "half-double"],
    mitigations=["none", "graphene"],
    schemes=["secded", "safeguard-secded"],
    seeds=[3],
)

def die_after_three(snap):
    if snap.items_done >= 3:
        os._exit(1)

with RemoteResultStore(sys.argv[1]) as store:
    run_sweep(cells, SweepConfig(budget=6_000), store=store,
              progress=die_after_three)
raise SystemExit("child was supposed to die mid-campaign")
"""


def check_kill_and_resume_remote(store: str, reference) -> None:
    from repro.campaign import BackgroundServer, RemoteResultStore

    remote_store = os.path.join(store, "served-sweep")
    env = dict(
        os.environ,
        PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    with BackgroundServer(remote_store) as server:
        child = subprocess.run(
            [sys.executable, "-c", _REMOTE_CHILD, server.url],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert child.returncode == 1, (
            f"child exited {child.returncode}, expected the kill"
        )
        partial = summarize_index(remote_store).get(
            "hammer-sweep", {"completed": 0}
        )
        assert 0 < partial["completed"] < len(sweep_cells())
        stats = []
        with RemoteResultStore(server.url) as resume_store:
            resumed = run_sweep(
                sweep_cells(),
                SWEEP_CONFIG,
                workers=2,
                store=resume_store,
                progress=stats.append,
            )
    assert stats[-1].items_from_store == partial["completed"]
    assert {k: v.to_json() for k, v in resumed.items()} == {
        k: v.to_json() for k, v in reference.items()
    }
    print(
        f"networked kill-and-resume OK: child died holding claims after "
        f"{partial['completed']} points; 2-worker resume through the "
        f"server recomputed only the remaining "
        f"{len(sweep_cells()) - partial['completed']}"
    )


def check_status(store: str) -> None:
    summary = summarize_index(store)
    # 4 cells per engine; "mcf" keys repeat across engines (distinct
    # fingerprints -> distinct cell files, same science key).
    assert summary["perf"]["cells"] == 8
    assert summary["perf"]["completed"] == 6
    assert summary["hammer-sweep"]["completed"] == len(sweep_cells())
    assert summary["playbook"]["completed"] == len(playbook_cells())
    completed = campaign_status(store)
    assert completed == {
        family: summary[family]["completed"]
        for family in ("perf", "hammer-sweep", "playbook")
    }, completed
    print(f"campaign-status OK: {completed}")


def main() -> int:
    with tempfile.TemporaryDirectory() as store:
        check_faultsim(store)
        check_perf(store)
        check_sweep(store)
        check_playbook(store)
        reference = run_sweep(sweep_cells(), SWEEP_CONFIG)
        check_kill_and_resume(store, reference)
        check_kill_and_resume_remote(store, reference)
        check_status(store)
    print("unified campaign smoke: all adapters OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
