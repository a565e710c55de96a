#!/usr/bin/env python3
"""Paper-scale reliability runs: 10M modules, as in Section III-B.

Reproduces Figures 6 and 10 at the paper's own Monte-Carlo scale
(the interactive benches default to 60-200K modules). Prints
probability-of-failure curves with 95% Wilson intervals.

The population is sharded across worker processes (bit-identical to a
sequential run; see repro.faultsim.parallel) and each shard is
checkpointed as a ``faultsim`` cell of one campaign store, so a killed
run resumes where it left off and ``python -m repro campaign-status
DIR`` reports how far it got::

    PYTHONPATH=src python scripts/paper_scale_reliability.py \
        --workers 8 --checkpoint-dir /tmp/mc-ckpt

Worker default: --workers > REPRO_WORKERS > all cores.

``--engine fast`` (or ``REPRO_FAULTSIM=fast``) switches to the
vectorized Monte-Carlo engine — order-of-magnitude faster at these
populations, statistically equivalent to (but not bit-identical with)
the reference loop. Checkpoints record the engine, so a resume never
mixes the two.
"""

import argparse
import os
import sys
import time

from repro.experiments.reporting import format_table, print_banner
from repro.faultsim.evaluators import (
    ChipkillEvaluator,
    SafeGuardChipkillEvaluator,
    SafeGuardSECDEDEvaluator,
    SECDEDEvaluator,
)
from repro.faultsim.geometry import X4_CHIPKILL_16GB, X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig
from repro.faultsim.parallel import simulate_parallel
from repro.switches import WORKERS_ENV, env_workers

SECDED_MODULES = 10_000_000
CHIPKILL_MODULES = 2_000_000


def _progress(stats):
    end = "\n" if stats.items_done == stats.items_total else "\r"
    print(f"  {stats.describe()}", end=end, file=sys.stderr, flush=True)


def _simulate(evaluator, geometry, config, args):
    # Cells are named by their fingerprint digest, so every figure and
    # scheme shares the one checkpoint directory.
    return simulate_parallel(
        evaluator,
        geometry,
        config,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        progress=_progress if not args.quiet else None,
    )


def run_figure6(args):
    n_modules = args.secded_modules
    print_banner(f"Figure 6 at paper scale ({n_modules:,} modules)")
    config = MonteCarloConfig(n_modules=n_modules, seed=42, engine=args.engine)
    geometry = X8_SECDED_16GB
    rows = []
    baseline = None
    for evaluator in (
        SECDEDEvaluator(geometry),
        SafeGuardSECDEDEvaluator(geometry, column_parity=False),
        SafeGuardSECDEDEvaluator(geometry, column_parity=True),
    ):
        t0 = time.time()
        result = _simulate(evaluator, geometry, config, args)
        low, high = result.confidence_interval()
        if baseline is None:
            baseline = result
        rows.append(
            (
                result.scheme,
                f"{result.final_fail_probability:.4%}",
                f"[{low:.4%}, {high:.4%}]",
                f"{result.n_failed / max(1, baseline.n_failed):.3f}x",
                f"{result.n_due}/{result.n_sdc}",
                f"{time.time() - t0:.0f}s",
            )
        )
    print(format_table(
        ["Scheme", "P(fail, 7y)", "95% CI", "vs SECDED", "DUE/SDC", "runtime"], rows
    ))


def run_figure10(args):
    n_modules = args.chipkill_modules
    print_banner(f"Figure 10 at paper scale ({n_modules:,} modules)")
    geometry = X4_CHIPKILL_16GB
    rows = []
    for multiplier in (1.0, 10.0):
        config = MonteCarloConfig(
            n_modules=n_modules, seed=42, fit_multiplier=multiplier,
            engine=args.engine,
        )
        for evaluator in (
            ChipkillEvaluator(geometry),
            SafeGuardChipkillEvaluator(geometry),
        ):
            t0 = time.time()
            result = _simulate(evaluator, geometry, config, args)
            low, high = result.confidence_interval()
            rows.append(
                (
                    f"{multiplier:g}x",
                    result.scheme,
                    f"{result.final_fail_probability:.4%}",
                    f"[{low:.4%}, {high:.4%}]",
                    f"{result.n_due}/{result.n_sdc}",
                    f"{time.time() - t0:.0f}s",
                )
            )
    print(format_table(
        ["FIT", "Scheme", "P(fail, 7y)", "95% CI", "DUE/SDC", "runtime"], rows
    ))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker processes (default: ${WORKERS_ENV} or all cores)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-shard checkpoints; rerun to resume",
    )
    parser.add_argument(
        "--engine",
        choices=["fast", "reference"],
        default=None,
        help="Monte-Carlo engine (default: $REPRO_FAULTSIM or reference); "
        "fast = vectorized single-fault path, statistically equivalent",
    )
    parser.add_argument(
        "--secded-modules", type=int, default=SECDED_MODULES,
        help="Figure 6 population (default: %(default)s)",
    )
    parser.add_argument(
        "--chipkill-modules", type=int, default=CHIPKILL_MODULES,
        help="Figure 10 population (default: %(default)s)",
    )
    parser.add_argument(
        "--figure", choices=["6", "10", "all"], default="all",
        help="which figure to run (default: all)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )
    args = parser.parse_args(argv)
    if args.workers is None and env_workers() is None:
        args.workers = os.cpu_count() or 1
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.figure in ("6", "all"):
        run_figure6(args)
    if args.figure in ("10", "all"):
        run_figure10(args)


if __name__ == "__main__":
    main()
