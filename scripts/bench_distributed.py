"""Measure static grouping vs. work-stealing on skewed campaign grids.

Multi-worker campaigns run through the work-stealing scheduler
(:mod:`repro.campaign.scheduler`): persistent workers pull whole groups
from a shared queue as they go idle. The *static* baseline measured
here is the classic alternative — pre-partition the groups into one
contiguous chunk per worker. On a skewed grid, static chunking
serializes on whichever worker drew the slow groups; stealing overlaps
them with the many small ones.

Two scenarios, two rows each (``static`` / ``steal``):

- ``synthetic`` — a sleep-based campaign whose group durations are
  deliberately skewed (one long group, many short ones). Sleeps
  parallelize on any host, including 1-CPU CI runners, so this row is
  *always* asserted: results bit-identical across both rows, and with
  ``--min-speedup X`` the run fails unless stealing beats static
  chunking by at least ``X`` times.
- ``fig7`` — the real Figure 7 performance grid (fast engine), ordered
  worst-case: the heavy workloads (lbm, roms) lead, so static chunking
  stacks them on one worker. CPU-bound workers cannot parallelize on a
  single core, so this row's speedup is asserted only when
  ``os.cpu_count() >= 2``; the report records the host's CPU count and
  whether the assertion ran, so a 1-core number is never mistaken for a
  refuted claim.

The full run writes ``BENCH_distributed.json`` at the repository root;
``--quick`` shrinks both scenarios and skips the file (the CI mode).

Usage::

    PYTHONPATH=src python scripts/bench_distributed.py [--quick]
        [--min-speedup X]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign import Campaign, run_campaign  # noqa: E402
from repro.perf.campaign import _PerfCampaign, plan_grid  # noqa: E402
from repro.perf.model import PerfConfig  # noqa: E402
from repro.perf.organizations import organization_for  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_distributed.json")

#: Synthetic skew: one long group plus many short ones. With two
#: workers, static contiguous chunking puts the long group and three
#: short ones on the same worker (makespan ~= long + 3*short) while
#: stealing converges on max(long, 7*short).
DURATIONS = [1.5, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]
QUICK_DURATIONS = [0.75, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]

#: Figure 7 grid ordered worst-case for static chunking: the two heavy
#: workloads lead, so the first chunk stacks both.
FIG7_WORKLOADS = ["lbm", "roms", "perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves"]
QUICK_FIG7_WORKLOADS = ["lbm", "roms", "gcc", "mcf"]
FIG7_CONFIG = PerfConfig(
    n_cores=2, instructions_per_core=20_000, warmup_instructions=5_000, engine="fast"
)

WORKERS = 2

#: Best-of-N per row (shared-host noise; sleeps are exact but
#: process spawn time is not).
REPEATS = 2


@dataclass(frozen=True)
class SleepItem:
    index: int
    duration: float

    @property
    def key(self):
        return self.index


class SleepCampaign(Campaign):
    """One group per item; run time is the item's declared duration."""

    name = "sleep-skew"

    def fingerprint(self, item: SleepItem) -> dict:
        return {"campaign": self.name, "index": item.index, "duration": item.duration}

    def run_item(self, item: SleepItem) -> dict:
        time.sleep(item.duration)
        return {"index": item.index, "duration": item.duration}


def _commit_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_chunk(campaign, items):
    """Static-baseline worker task (module-level so it pickles)."""
    return [(item.index, campaign.run_item(item)) for item in items]


def run_static(campaign, items, workers):
    """Static contiguous chunking: one pre-assigned chunk per worker.

    Groups stay atomic (a chunk is a run of whole groups), but their
    placement is fixed before anything runs — the baseline the stealing
    scheduler exists to beat on skewed grids.
    """
    groups = {}
    for item in items:
        groups.setdefault(campaign.group_key(item), []).append(item)
    ordered = list(groups.values())
    per_chunk = -(-len(ordered) // workers)  # ceil division
    chunks = [
        [item for group in ordered[i : i + per_chunk] for item in group]
        for i in range(0, len(ordered), per_chunk)
    ]
    results = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, campaign, chunk) for chunk in chunks]
        for future in futures:
            for index, result in future.result():
                results[index] = result
    return results


def bench_scenario(name, campaign, items, repeats, payload_of):
    """Time static chunking vs. stealing on one grid; verify identical results."""
    rows = {}

    def row(label, seconds):
        rows[label] = {"seconds": round(seconds, 3)}
        print(f"  {name}/{label:7s} {seconds:7.2f}s")

    static_seconds, static_results = _best_of(
        repeats, lambda: run_static(campaign, items, WORKERS)
    )
    row("static", static_seconds)

    steal_seconds, steal_results = _best_of(
        repeats, lambda: run_campaign(campaign, items, workers=WORKERS)
    )
    row("steal", steal_seconds)

    reference = {i: payload_of(r) for i, r in static_results.items()}
    got = {i: payload_of(r) for i, r in steal_results.items()}
    if got != reference:
        raise AssertionError(f"{name}: stealing results differ from static")

    speedup = static_seconds / steal_seconds
    rows["speedup_steal_vs_static"] = round(speedup, 2)
    rows["identical_across_schedulers"] = True
    print(f"  {name}: stealing is {speedup:.2f}x static chunking")
    return rows, speedup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale; do not write BENCH_distributed.json",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless stealing beats static chunking by this factor "
        "(synthetic always; fig7 only on multi-core hosts)",
    )
    args = parser.parse_args()

    durations = QUICK_DURATIONS if args.quick else DURATIONS
    workloads = QUICK_FIG7_WORKLOADS if args.quick else FIG7_WORKLOADS
    cpu_count = os.cpu_count() or 1
    multicore = cpu_count >= 2

    print(
        f"Work-stealing benchmark (workers={WORKERS}, "
        f"host cpu_count={cpu_count}, repeats={REPEATS}):"
    )

    sleep_items = [SleepItem(i, d) for i, d in enumerate(durations)]
    synthetic, synthetic_speedup = bench_scenario(
        "synthetic",
        SleepCampaign(),
        sleep_items,
        REPEATS,
        payload_of=lambda r: r,
    )
    synthetic["asserted"] = args.min_speedup is not None
    if args.min_speedup is not None and synthetic_speedup < args.min_speedup:
        raise AssertionError(
            f"synthetic: stealing is {synthetic_speedup:.2f}x static "
            f"chunking, below the --min-speedup floor of {args.min_speedup:.2f}x"
        )

    cells = plan_grid(
        [organization_for("safeguard-secded", 8)], workloads, [FIG7_CONFIG.seed]
    )
    fig7, fig7_speedup = bench_scenario(
        "fig7",
        _PerfCampaign(FIG7_CONFIG),
        cells,
        1,  # CPU-bound grid: one cold run per row is the honest number
        payload_of=lambda r: r,
    )
    fig7["asserted"] = bool(args.min_speedup is not None and multicore)
    if args.min_speedup is not None:
        if multicore and fig7_speedup < args.min_speedup:
            raise AssertionError(
                f"fig7: stealing is {fig7_speedup:.2f}x static chunking, "
                f"below the --min-speedup floor of {args.min_speedup:.2f}x"
            )
        if not multicore:
            print(
                f"  fig7: host has {cpu_count} CPU(s); CPU-bound workers "
                "cannot overlap, so the speedup floor is not asserted here"
            )

    report = {
        "host": {"cpu_count": cpu_count, "commit": _commit_hash()},
        "config": {
            "workers": WORKERS,
            "repeats": REPEATS,
            "synthetic_durations_s": list(durations),
            "fig7_workloads": list(workloads),
            "fig7_instructions_per_core": FIG7_CONFIG.instructions_per_core,
            "fig7_engine": "fast",
            "min_speedup": args.min_speedup,
        },
        "results": {"synthetic": synthetic, "fig7": fig7},
    }
    if args.quick:
        print("--quick: skipping BENCH_distributed.json")
        return 0
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
