"""Tests for the work-stealing campaign scheduler.

Pins the scheduler half of the distributed-campaign contract:

- **bit-identity** — ``run_campaign(workers > 1)`` returns exactly what
  the in-process ``workers == 1`` run returns, for any worker count and
  any steal (enqueue) order;
- **group atomicity** — a group's items all run in one worker process;
- **supervision** — a worker that dies is replaced and its group
  requeued; a worker that *hangs* is detected via the message-heartbeat
  timeout, killed, and its group requeued; a group that keeps killing
  workers exhausts its attempt budget into :class:`CampaignError`;
  deterministic item exceptions propagate unchanged;
- **no orphans** — when the campaign's process dies mid-run, its
  workers exit instead of outliving it.

Supervision tests that need a short heartbeat or the supervision
counters call :func:`run_stealing` directly. Reuses the module-level
campaigns of ``tests/test_campaign_core.py`` (they must live at module
scope to pickle into workers).
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignError, run_campaign
from repro.campaign.scheduler import _IDLE_REQUEUE_S, run_stealing
from tests.test_campaign_core import (
    AlwaysCrashCampaign,
    CrashOnceCampaign,
    SquareCampaign,
    _items,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class HangOnceCampaign(SquareCampaign):
    """Hangs (not crashes) the first time each item runs, then succeeds."""

    name = "hang-once"

    def __init__(self, flag_dir, hang_s=60.0):
        self.flag_dir = flag_dir
        self.hang_s = hang_s

    def run_item(self, item):
        flag = os.path.join(self.flag_dir, f"hung-{item.index}")
        if not os.path.exists(flag):
            open(flag, "w").close()
            time.sleep(self.hang_s)
        return super().run_item(item)


class AlwaysHangCampaign(SquareCampaign):
    name = "always-hang"

    def run_item(self, item):
        time.sleep(60.0)


class ExplodingCampaign(SquareCampaign):
    name = "exploding"

    def run_item(self, item):
        raise ValueError(f"item {item.index} is unrunnable")


class PidRecordingCampaign(SquareCampaign):
    """Leaves a file named after each worker's pid in ``pid_dir``."""

    name = "pid-recording"

    def __init__(self, pid_dir):
        self.pid_dir = pid_dir

    def run_item(self, item):
        open(os.path.join(self.pid_dir, str(os.getpid())), "w").close()
        time.sleep(0.2)
        return super().run_item(item)


def _squares(results):
    return {i: r["square"] for i, r in results.items()}


def _steal(campaign, items, workers=2, **kwargs):
    """Run ``items`` through :func:`run_stealing` directly (no store)."""
    results = {}
    run_stealing(
        campaign,
        items,
        workers,
        lambda item, result: results.__setitem__(item.index, result),
        **kwargs,
    )
    return results


class TestBitIdentity:
    def test_matches_sequential_for_any_worker_count(self):
        reference = _squares(run_campaign(SquareCampaign(), _items(8)))
        for workers in (1, 2, 3):
            stolen = run_campaign(SquareCampaign(), _items(8), workers=workers)
            assert _squares(stolen) == reference

    def test_steal_order_never_changes_results(self):
        """Shuffling the grid permutes queue/steal order, not results."""
        reference = _squares(run_campaign(SquareCampaign(), _items(10)))
        for seed in (0, 1, 2):
            items = _items(10)
            random.Random(seed).shuffle(items)
            stolen = run_campaign(SquareCampaign(), items, workers=3)
            assert _squares(stolen) == reference

    def test_groups_stay_on_one_worker(self):
        """Stealing moves whole groups; items in a group share a pid."""
        items = _items(6, groups=[0, 0, 0, 1, 1, 1])
        results = run_campaign(SquareCampaign(), items, workers=2)
        assert len({results[i]["pid"] for i in (0, 1, 2)}) == 1
        assert len({results[i]["pid"] for i in (3, 4, 5)}) == 1

    def test_store_cells_identical_to_pool_scheduler(self, tmp_path):
        """A 2-worker run persists the same cells as the in-process run."""
        seq_dir = tmp_path / "sequential"
        steal_dir = tmp_path / "steal"
        run_campaign(SquareCampaign(), _items(6), store_dir=str(seq_dir))
        run_campaign(
            SquareCampaign(), _items(6), workers=2, store_dir=str(steal_dir)
        )
        seq_cells = sorted(
            p for p in os.listdir(seq_dir) if p.startswith("square-")
        )
        steal_cells = sorted(
            p for p in os.listdir(steal_dir) if p.startswith("square-")
        )
        assert seq_cells == steal_cells
        for name in seq_cells:
            # Cells embed fingerprint + result; pids differ inside the
            # result payload, so compare the science-bearing parts.
            a = json.loads((seq_dir / name).read_text())
            b = json.loads((steal_dir / name).read_text())
            assert a["fingerprint"] == b["fingerprint"]
            assert a["result"]["square"] == b["result"]["square"]

    def test_store_resume(self, tmp_path):
        first = run_campaign(
            SquareCampaign(), _items(5), workers=2, store_dir=str(tmp_path)
        )
        snaps = []
        second = run_campaign(
            SquareCampaign(),
            _items(5),
            workers=2,
            store_dir=str(tmp_path),
            progress=snaps.append,
        )
        assert _squares(first) == _squares(second)
        assert snaps[-1].items_from_store == 5


class TestSupervision:
    def test_dead_worker_group_is_requeued(self, tmp_path):
        """Each dying worker's claim reaches the parent, so every crash is
        charged to its group and requeued at once instead of waiting out
        the idle-fleet sweep."""
        stats = {}
        start = time.monotonic()
        results = _steal(
            CrashOnceCampaign(str(tmp_path)), _items(3), poll_s=0.02, stats=stats
        )
        assert _squares(results) == {0: 1, 1: 4, 2: 9}
        assert stats["worker_deaths"] == stats["requeues"] == 3
        assert stats["replacements"] == 3
        assert time.monotonic() - start < _IDLE_REQUEUE_S

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_group_requeued(self, tmp_path):
        stats = {}
        results = _steal(
            HangOnceCampaign(str(tmp_path)),
            _items(2, groups=[0, 1]),
            heartbeat_timeout_s=0.8,
            poll_s=0.02,
            stats=stats,
        )
        assert _squares(results) == {0: 1, 1: 4}
        assert stats["worker_deaths"] >= 1
        assert stats["requeues"] >= 1

    @pytest.mark.slow
    def test_always_hanging_group_exhausts_attempts(self):
        with pytest.raises(CampaignError, match="always-hang"):
            _steal(
                AlwaysHangCampaign(),
                _items(1),
                max_attempts=2,
                heartbeat_timeout_s=0.5,
                poll_s=0.02,
            )

    def test_always_crashing_group_exhausts_attempts(self):
        with pytest.raises(CampaignError, match="always-crash"):
            _steal(AlwaysCrashCampaign(), _items(1), max_attempts=2, poll_s=0.02)

    def test_deterministic_exceptions_propagate(self):
        """An item *raising* is not a crash: no retry, original type."""
        with pytest.raises(ValueError, match="unrunnable"):
            run_campaign(ExplodingCampaign(), _items(2), workers=2)


#: Runs a 2-worker campaign whose workers record their pids in the
#: directory at argv[1], and hard-exits once two items have finished.
_DYING_PARENT = """
import os, sys
from repro.campaign import run_campaign
from tests.test_campaign_core import _items
from tests.test_campaign_scheduler import PidRecordingCampaign

def die_after_two(snapshot):
    if snapshot.items_done >= 2:
        os._exit(1)

run_campaign(PidRecordingCampaign(sys.argv[1]), _items(40), workers=2,
             progress=die_after_two)
raise SystemExit("the campaign was supposed to die mid-run")
"""


def _pid_alive(pid):
    """True while ``pid`` runs; an unreaped zombie counts as exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestOrphans:
    def test_workers_exit_when_parent_dies(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]
            ),
        )
        child = subprocess.run(
            [sys.executable, "-c", _DYING_PARENT, str(tmp_path)],
            cwd=REPO_ROOT,
            env=env,
            timeout=120,
        )
        assert child.returncode == 1
        pids = [int(name) for name in os.listdir(tmp_path)]
        assert pids
        alive = pids
        deadline = time.monotonic() + 5.0
        try:
            while alive and time.monotonic() < deadline:
                time.sleep(0.1)
                alive = [pid for pid in alive if _pid_alive(pid)]
            assert not alive, f"workers {alive} outlived their dead parent"
        finally:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
