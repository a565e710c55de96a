"""Benchmark of the SafeGuard reproduction: one workload, one seed.

Run from the repository root:

    python3 perfbench/run.py --workload hammer-sweep --seed 1 --seconds 30 --trace 0

Each iteration runs the workload's whole grid cold, on a fresh result
store, then reruns it warm against the populated store until the warm
reruns add up to ``WARM_MIN_S``. Iterations repeat until ``--seconds``
would be exceeded (at least ``MIN_ITERATIONS``); every figure reported is
a median over them. Every iteration is checked: all planned cells present,
warm and repeated cold results equal to the first cold run bit for bit,
and the paper's claims (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced cold wall).
Spans go to ``.perfbench/traces/``; every run's record, with the host and
the resolved switches, goes to ``.perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("hammer-sweep", "perf-grid", "reliability")

#: Warm reruns per iteration repeat until they add up to this many seconds
#: (and at least ``MIN_WARM_RERUNS`` times), so fast warm runs are timed
#: over many repetitions.
WARM_MIN_S = 1.0
MIN_WARM_RERUNS = 3
MAX_WARM_RERUNS = 200
#: The first cold run in a process is slower (lazy state); three or more
#: iterations keep it from setting the median.
MIN_ITERATIONS = 3
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "fraction",
}


def _sources_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="workload size; tiny is for the benchmark's own tests",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(name: str, seed: int, size: str, work: Path):
    """Everything between process start and a ready workload."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, size)
    store = tempfile.mkdtemp(dir=work)
    return workload, store


def _probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _switches() -> Dict[str, dict]:
    """Each ``REPRO_*`` switch: its environment value and what this run used."""

    def resolved(fn):
        try:
            return fn()
        except (ImportError, AttributeError, ValueError) as exc:
            return f"unavailable ({exc.__class__.__name__})"

    def kernels():
        from repro.ecc import kernels as k

        return "fast" if k.use_fast() else "reference"

    def perf_engine():
        from repro.perf import fastpath

        return fastpath.resolve_engine("fast")

    def perf_batch():
        from repro.perf import fastpath

        return "/".join(fastpath.pass_modes())

    def faultsim_engine():
        from repro.faultsim.montecarlo import MonteCarloConfig

        return MonteCarloConfig(engine="fast").resolved_engine()

    def scheduler():
        from repro.campaign import resolve_scheduler

        return resolve_scheduler()

    table = {
        "REPRO_KERNELS": kernels,
        "REPRO_PERF": perf_engine,
        "REPRO_PERF_BATCH": perf_batch,
        "REPRO_FAULTSIM": faultsim_engine,
        "REPRO_SCHEDULER": scheduler,
    }
    return {
        var: {"env": os.environ.get(var), "resolved": resolved(fn)}
        for var, fn in table.items()
    }


def _host(workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "workers": workload.workers,
        "switches": _switches(),
    }


def _peak_rss_mb(workers: int) -> float:
    """Parent peak plus, for multi-worker runs, the largest worker's peak.

    A forked worker's peak includes the pages it shares with the parent,
    so adding one worker per process would count those pages again.
    """
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent + (child if workers > 1 else 0)) / 1024.0


def _iteration(workload, store: str, traced: bool, tracer, reference, number: int) -> dict:
    """One cold run, its warm reruns and the gate; returns what was seen."""
    from spans import ProgressLog, install_hooks
    from workloads import WARM_DIFFERS, canonical_text, differing

    out = {"warm_rates": [], "cold_log": None, "warm_log": None}
    if traced:
        out["cold_log"], out["warm_log"] = ProgressLog(), ProgressLog()
        install_hooks(tracer)
    span = tracer.span if traced else lambda name: contextlib.nullcontext()
    try:
        tracer.run = f"cold-{number}"
        with span("cold"):
            t0 = time.perf_counter()
            cold = workload.run(store, out["cold_log"])
            out["cold_wall"] = time.perf_counter() - t0
        out["cold"], out["expected"] = cold, canonical_text(cold)
        out["bad"] = bad = workload.check(cold, reference)
        # A traced iteration needs one warm rerun for the layer metrics.
        reruns, warm_total = 0, 0.0
        while reruns < (1 if traced else MAX_WARM_RERUNS) and (
            reruns < MIN_WARM_RERUNS or warm_total < WARM_MIN_S
        ):
            tracer.run = f"warm-{number}"
            with span("warm"):
                t0 = time.perf_counter()
                warm = workload.run(store, out["warm_log"] if reruns == 0 else None)
                wall = time.perf_counter() - t0
            reruns += 1
            warm_total += wall
            out["warm_rates"].append(workload.n_cells / wall)
            for key in differing(out["expected"], warm):
                bad.setdefault(key, WARM_DIFFERS)
            del warm
    finally:
        tracer.unhook()
    return out


def measure(args: argparse.Namespace) -> dict:
    """Run the iterations and return the full record of this run."""
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import canonical_digest

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload, store = _setup(args.workload, args.seed, args.size, work)
        os.rmdir(store)
        cells = workload.n_cells
        tracer = Tracer()
        reference = first_cold = None
        attempted = failed = 0
        reasons: Dict[str, int] = {}
        cold_walls = {False: [], True: []}
        warm_rates: List[float] = []
        layers: List[Dict[str, float]] = []
        started = time.perf_counter()
        iteration = 0
        while True:
            traced = bool(args.trace) and iteration % 2 == 1
            store = tempfile.mkdtemp(dir=work)
            workload.reset()
            # Keep the harness's own objects (earlier results) out of the
            # collections the measured code triggers.
            gc.collect()
            gc.freeze()
            attempted += cells
            try:
                seen = _iteration(workload, store, traced, tracer, reference, iteration)
            except Exception as exc:  # a cell raised: the run cannot go on
                traceback.print_exc()
                failed += cells
                reason = f"raised {type(exc).__name__}: {exc}"
                reasons[reason] = reasons.get(reason, 0) + cells
                break
            finally:
                shutil.rmtree(store)
            cold_walls[traced].append(seen["cold_wall"])
            if traced:
                layers.append(
                    layer_metrics(
                        tracer.spans, f"cold-{iteration}", f"warm-{iteration}",
                        seen["cold_wall"], seen["cold_log"], seen["warm_log"],
                        workload.instructions_per_cell(),
                    )
                )
            else:
                warm_rates.extend(seen["warm_rates"])
            if reference is None:
                reference, first_cold = seen["expected"], seen["cold"]
            failed += workload.failed_cells(seen["bad"])
            for reason in seen["bad"].values():
                reasons[reason] = reasons.get(reason, 0) + 1
            iteration += 1
            elapsed = time.perf_counter() - started
            if iteration >= MIN_ITERATIONS and elapsed * (iteration + 1) / iteration > args.seconds:
                break
        peak_rss = _peak_rss_mb(workload.workers)
        if tracer.spans:
            tracer.write(str(OUT / "traces" / f"{args.workload}-seed{args.seed}.json"))
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    if not cold_walls[False] or (args.trace and not layers):
        raise SystemExit(f"perfbench: {args.workload} failed before a full measurement")

    setups: List[float] = []
    if args.trace:
        metrics = {
            name: statistics.median(run[name] for run in layers) for name in layers[0]
        }
        # Iteration 0 is untraced and pays the process's lazy state; leave
        # it out of the comparison when another untraced run exists.
        untraced = cold_walls[False][1:] or cold_walls[False]
        metrics["trace.overhead_s"] = statistics.median(
            cold_walls[True]
        ) - statistics.median(untraced)
        metrics["campaign.warm_cells_per_s"] = statistics.median(warm_rates)
    else:
        work.mkdir(parents=True, exist_ok=True)
        try:
            setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        metrics = {
            "setup_s": statistics.median(setups),
            "cells_per_s": statistics.median(cells / wall for wall in cold_walls[False]),
            "peak_rss_mb": peak_rss,
            "cells_ok_frac": 1.0 - failed / attempted,
        }
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "host": _host(workload),
        "cells": cells,
        "iterations": iteration,
        "digest": canonical_digest(first_cold),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failure_reasons": reasons,
        "setup_probes_s": setups,
        "warm_cells_per_s": statistics.median(warm_rates),
        "cold_walls_s": cold_walls[False],
        "traced_cold_walls_s": cold_walls[True],
        "warm_cells_per_s_quartiles": (
            statistics.quantiles(warm_rates, n=4) if len(warm_rates) > 1 else warm_rates
        ),
        "science": workload.science_counts(first_cold),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def _report(record: dict) -> None:
    host = record["host"]
    switches = " ".join(
        f"{var}={entry['resolved']}" for var, entry in host["switches"].items()
    )
    print(
        f"host nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"commit={host['commit']} workers={host['workers']} {switches}"
    )
    print(
        f"workload {record['workload']} seed={record['seed']} size={record['size']} "
        f"cells={record['cells']} iterations={record['iterations']}"
    )
    print(f"digest {record['workload']} sha256={record['digest']}")
    for key, value in record["science"].items():
        print(f"science {key}={value}")
    print(
        f"check attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed_frac']:.6g}"
    )
    for reason, count in record["failure_reasons"].items():
        print(f"  failed: {reason} ({count} cells)")
    for name, entry in record["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    if not record["trace"]:
        # Reported, not gated: see "Run-to-run noise" in NOTES.md.
        print(f"info warm_cells_per_s {record['warm_cells_per_s']:.6g} 1/s")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not _sources_present():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getppid()}"
        _, store = _setup(args.workload, args.seed, args.size, work)
        ready = time.monotonic()
        os.rmdir(store)
        print(f"{ready!r}")
        return 0
    record = measure(args)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    _report(record)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
