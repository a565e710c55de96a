"""Shared benchmark configuration.

Each benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series (captured with ``pytest -s`` or in
the benchmark output). Scales are chosen so the full suite completes in
minutes; EXPERIMENTS.md records the full-scale paper-vs-measured numbers.
"""

import os

from repro.switches import env_workers


#: Instruction budget per core for the performance benches (override with
#: REPRO_BENCH_INSTRUCTIONS for full-scale runs).
BENCH_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", 120_000))
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", 30_000))
#: Monte-Carlo module count for the reliability benches.
BENCH_MODULES = int(os.environ.get("REPRO_BENCH_MODULES", 60_000))
#: Worker processes for the sharded Monte-Carlo engine (fig6/fig10
#: reliability benches), from REPRO_WORKERS. Parallelism never changes
#: the science output, so full-scale runs can safely set this to the
#: core count.
BENCH_WORKERS = env_workers() or 1


def once(benchmark, func, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
