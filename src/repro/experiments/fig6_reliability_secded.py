"""Figure 6: 7-year reliability — SECDED vs. SafeGuard (± column parity).

FaultSim-style Monte-Carlo over x8 16GB modules with Table III FIT rates.
The paper's findings: SafeGuard without column parity fails ~1.25x more
often than SECDED (column faults become DUEs); with column parity the
curves are virtually identical. Additionally — the security point — every
SafeGuard failure is a *detected* (DUE) event, while most SECDED failures
involve fault modes whose detection is not guaranteed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.campaign import ProgressCallback
from repro.experiments.reporting import format_table, print_banner
from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X8_SECDED_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, ReliabilityResult
from repro.faultsim.parallel import simulate_parallel


#: The organizations Figure 6 compares, by registry scheme name.
SCHEMES = ("secded", "safeguard-secded-noparity", "safeguard-secded")


def run(
    n_modules: int = 200_000,
    seed: int = 42,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    schemes: "tuple[str, ...]" = SCHEMES,
    engine: Optional[str] = None,
    store=None,
) -> List[ReliabilityResult]:
    """``workers``/``REPRO_WORKERS`` parallelize without changing output.

    ``engine`` picks the Monte-Carlo engine (``"fast"``/``"reference"``;
    default: ``REPRO_FAULTSIM`` or reference) — statistically equivalent
    curves, not bit-identical ones. ``store`` shares shard results
    through a ready store object (e.g. a networked
    :class:`repro.campaign.RemoteResultStore`).
    """
    config = MonteCarloConfig(n_modules=n_modules, seed=seed, engine=engine)
    geometry = X8_SECDED_16GB
    evaluators = [evaluator_for(name, geometry) for name in schemes]
    return [
        simulate_parallel(
            evaluator,
            geometry,
            config,
            workers=workers,
            store=store,
            progress=progress,
        )
        for evaluator in evaluators
    ]


def report(results: Optional[List[ReliabilityResult]] = None) -> str:
    results = results or run()
    print_banner("Figure 6: probability of system failure (x8 16GB, 7 years)")
    years = [1, 2, 3, 4, 5, 6, 7]
    rows = []
    for r in results:
        rows.append(
            [r.scheme]
            + [f"{r.probability_at_years(y):.4%}" for y in years]
            + [f"{r.n_due}/{r.n_sdc}"]
        )
    table = format_table(
        ["Scheme"] + [f"{y}y" for y in years] + ["DUE/SDC"], rows
    )
    print(table)
    base = results[0].final_fail_probability
    if base > 0:
        for r in results[1:]:
            print(f"{r.scheme}: {r.final_fail_probability / base:.2f}x SECDED failure rate")
    print(
        "\nSafeGuard failures are all DUEs (detected); SECDED failures are "
        "dominated by modes with no guaranteed detection."
    )
    return table
