"""Profile the fast perf engine's passes: synthesis vs. content vs. timing.

Runs cProfile over each pass separately on the Figure 7 grid (or a
``--quick`` subset) and dumps the top-N functions by cumulative time as
JSON, so the next perf PR against :mod:`repro.perf.fastpath` starts
from data, not guesses. The same breakdown is reachable from the CLI as
``python -m repro fig7 --engine fast --profile OUT.json``.

Usage::

    PYTHONPATH=src python scripts/profile_fastpath.py [--quick]
        [--top N] [--out PATH]

Without ``--out`` the JSON goes to stdout (after the human summary on
stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.perf.model import PerfConfig  # noqa: E402
from repro.perf.profiling import describe, profile_passes, write_profile  # noqa: E402

WORKLOADS = ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]
CONFIG = PerfConfig(instructions_per_core=150_000, warmup_instructions=40_000)

QUICK_WORKLOADS = ["gcc", "mcf"]
QUICK_CONFIG = PerfConfig(
    n_cores=2, instructions_per_core=20_000, warmup_instructions=5_000
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced grid and scale (CI smoke)"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="functions per pass (default 20)"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON here instead of stdout"
    )
    args = parser.parse_args()

    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    config = QUICK_CONFIG if args.quick else CONFIG
    report = profile_passes(workloads, config, top_n=args.top)
    print(describe(report), file=sys.stderr)
    if args.out:
        write_profile(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(report, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
