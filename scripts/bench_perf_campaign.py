"""Measure the performance-campaign engines: reference vs. fast vs. workers.

Runs the Figure 7 grid (eight workloads, conventional-ECC baseline plus
SafeGuard) four ways:

- ``reference_sequential`` — the scalar cycle-level model (best of
  ``REPEATS`` runs, to tame shared-host noise);
- ``fast_sequential`` — the vectorized ``REPRO_PERF`` engine, with a
  statistical-equivalence assert against the reference results (the
  engines draw different trace streams, so equality is statistical, not
  bit-wise; see ``repro.perf.fastpath``);
- ``fast_workers_N`` — the fast engine fanned over N processes via
  :func:`repro.perf.campaign.run_comparison_parallel`, asserted
  bit-identical to the sequential fast run (worker count never changes
  the science). Requested counts above ``os.cpu_count()`` are clamped
  by :func:`repro.campaign.progress.resolve_workers`; each row records
  both the requested and the resolved count, and the engine's content
  memo is cleared first so every row is a cold measurement.

The full run writes ``BENCH_perf.json`` at the repository root so the
numbers ship with the code; ``--quick`` runs a reduced grid at a smaller
scale and skips the file (the CI smoke mode). ``--min-speedup X`` turns
the fast engine's sequential speedup into an assertion: the run fails
unless ``fast_sequential`` beats ``reference_sequential`` by at least
``X`` times (CI pins a conservative floor well under the measured
speedup so only a real kernel regression trips it).

Usage::

    PYTHONPATH=src python scripts/bench_perf_campaign.py [--quick]
        [--min-speedup X]

Caching is disabled for every measurement (each run simulates its full
grid); the cache is a resume mechanism, not part of the engine's
throughput story.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign import resolve_workers  # noqa: E402
from repro.perf import fastpath  # noqa: E402
from repro.perf.campaign import run_comparison_parallel  # noqa: E402
from repro.perf.model import (  # noqa: E402
    PerfConfig,
    geomean_slowdown_percent,
    run_comparison,
)
from repro.perf.organizations import organization_for  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")

#: The Figure 7 grid as the CLI runs it (see experiments.runner).
WORKLOADS = ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]
CONFIG = PerfConfig(instructions_per_core=150_000, warmup_instructions=40_000)

QUICK_WORKLOADS = ["gcc", "mcf"]
QUICK_CONFIG = PerfConfig(
    n_cores=2, instructions_per_core=20_000, warmup_instructions=5_000
)

WORKER_COUNTS = (2, 4)

#: Best-of-N timing per row: the grid runs on shared hosts whose load
#: swings paired measurements by 25-40%, so a single-shot number is
#: noise; the minimum over repeats is the stable estimate.
REPEATS = 2

#: Statistical-equivalence bounds between the engines for a SINGLE seed
#: at the Figure 7 scale. They are loose by design: at this scale the
#: reference engine's own seed-to-seed spread on a write-heavy workload
#: is ~3.5pp of normalized performance, and the cross-engine delta sits
#: inside that envelope (observed max 0.057 per workload, 1.44pp gmean
#: across seeds 0-1). The tight multi-seed equivalence bounds live in
#: tests/test_perf_fastpath.py, where means over seeds are compared.
MAX_PER_WORKLOAD_DELTA = 0.08
MAX_GMEAN_DELTA_PP = 1.5

ORG_NAME = "safeguard(mac=8)"


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


def _identical(a, b) -> bool:
    return all(
        left.workload == right.workload
        and left.baseline == right.baseline
        and left.results == right.results
        for left, right in zip(a, b)
    ) and len(a) == len(b)


def _assert_statistically_equivalent(reference, fast) -> None:
    """The engines must tell the same performance story."""
    for ref, fst in zip(reference, fast):
        delta = abs(
            ref.normalized_performance(ORG_NAME)
            - fst.normalized_performance(ORG_NAME)
        )
        if delta > MAX_PER_WORKLOAD_DELTA:
            raise AssertionError(
                f"{ref.workload}: fast vs reference normalized performance "
                f"differs by {delta:.4f} (> {MAX_PER_WORKLOAD_DELTA})"
            )
    gmean_delta = abs(
        geomean_slowdown_percent(reference, ORG_NAME)
        - geomean_slowdown_percent(fast, ORG_NAME)
    )
    if gmean_delta > MAX_GMEAN_DELTA_PP:
        raise AssertionError(
            f"geomean slowdown differs by {gmean_delta:.3f}pp "
            f"(> {MAX_GMEAN_DELTA_PP})"
        )


def _best_of(repeats, fn):
    """(best seconds, last result) over ``repeats`` full runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_bench(workloads, config, repeats, min_speedup=None) -> dict:
    organizations = [organization_for("safeguard-secded", 8)]
    n_cells = len(workloads) * (len(organizations) + 1)
    results = {"n_cells": n_cells}

    def row(name, seconds, **extra) -> None:
        results[name] = {
            "seconds": round(seconds, 3),
            "cells_per_s": round(n_cells / seconds, 3),
            **extra,
        }
        print(
            f"  {name:22s} {seconds:7.2f}s  {n_cells / seconds:7.3f} cells/s"
            + (f"  {extra['speedup_vs_reference']:5.2f}x" if "speedup_vs_reference" in extra else "")
        )

    ref_config = PerfConfig(
        n_cores=config.n_cores,
        instructions_per_core=config.instructions_per_core,
        warmup_instructions=config.warmup_instructions,
        seed=config.seed,
        engine="reference",
    )
    fast_config = PerfConfig(
        n_cores=config.n_cores,
        instructions_per_core=config.instructions_per_core,
        warmup_instructions=config.warmup_instructions,
        seed=config.seed,
        engine="fast",
    )

    ref_seconds, reference = _best_of(
        repeats,
        lambda: run_comparison(organizations, workloads=workloads, config=ref_config),
    )
    row("reference_sequential", ref_seconds, repeats=repeats)

    def _cold_fast():
        # The content memo would survive into the next repeat (and, on
        # the quick grid, cover every workload) — clear it so each
        # repeat measures the full engine, not a warm resume.
        fastpath._CONTENT_MEMO.clear()
        return run_comparison(organizations, workloads=workloads, config=fast_config)

    fast_seconds, fast = _best_of(repeats, _cold_fast)
    _assert_statistically_equivalent(reference, fast)
    speedup = ref_seconds / fast_seconds
    row(
        "fast_sequential",
        fast_seconds,
        repeats=repeats,
        speedup_vs_reference=round(speedup, 2),
        statistically_equivalent_to_reference=True,
    )
    if min_speedup is not None and speedup < min_speedup:
        raise AssertionError(
            f"fast_sequential is {speedup:.2f}x the reference engine, below "
            f"the --min-speedup floor of {min_speedup:.2f}x"
        )

    for workers in WORKER_COUNTS:
        # Oversubscribed requests clamp (see campaign.progress); measure
        # the resolved count cold — a 1-worker fallback runs in-process
        # and would otherwise reuse the sequential run's content memo.
        fastpath._CONTENT_MEMO.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resolved = resolve_workers(workers)
            start = time.perf_counter()
            parallel = run_comparison_parallel(
                organizations, workloads=workloads, config=fast_config, workers=workers
            )
            seconds = time.perf_counter() - start
        if not _identical(fast, parallel):
            raise AssertionError(
                f"workers={workers} produced different results than the "
                "sequential fast run"
            )
        row(
            f"fast_workers_{workers}",
            seconds,
            workers=workers,
            workers_resolved=resolved,
            speedup_vs_reference=round(ref_seconds / seconds, 2),
            identical_to_fast_sequential=True,
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced grid and scale; do not write BENCH_perf.json",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless fast_sequential beats the reference engine by "
        "at least this factor",
    )
    args = parser.parse_args()

    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    config = QUICK_CONFIG if args.quick else CONFIG
    repeats = REPEATS  # best-of-N in quick mode too: --min-speedup needs a stable ratio
    print(
        "Performance-campaign benchmark (Figure 7 grid, "
        f"{len(workloads)} workloads, {config.instructions_per_core:,} "
        f"instructions/core, workers={list(WORKER_COUNTS)}):"
    )
    results = run_bench(workloads, config, repeats, min_speedup=args.min_speedup)

    report = {
        "host": {"cpu_count": os.cpu_count(), "commit": _commit_hash()},
        "config": {
            "workloads": list(workloads),
            "n_cores": config.n_cores,
            "instructions_per_core": config.instructions_per_core,
            "warmup_instructions": config.warmup_instructions,
            "seed": config.seed,
            "scheme": "safeguard-secded",
            "workers": list(WORKER_COUNTS),
            "repeats": repeats,
        },
        "results": results,
    }
    if args.quick:
        print("--quick: skipping BENCH_perf.json")
        return 0
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
