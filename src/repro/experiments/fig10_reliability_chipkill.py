"""Figure 10: 7-year reliability — Chipkill vs. SafeGuard-Chipkill.

x4 16GB modules, Table III FIT rates, at 1x and (Section V-E) 10x FIT.
The paper's finding: virtually identical correction reliability, with
SafeGuard additionally detecting the multi-chip corruption Chipkill can
silently miscorrect.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign import ProgressCallback
from repro.experiments.reporting import format_table, print_banner
from repro.faultsim.evaluators import evaluator_for
from repro.faultsim.geometry import X4_CHIPKILL_16GB
from repro.faultsim.montecarlo import MonteCarloConfig, ReliabilityResult
from repro.faultsim.parallel import simulate_parallel


#: The organizations Figure 10 compares, by registry scheme name.
SCHEMES = ("chipkill", "safeguard-chipkill")


def run(
    n_modules: int = 100_000,
    seed: int = 42,
    fit_multipliers: Tuple[float, ...] = (1.0, 10.0),
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    schemes: Tuple[str, ...] = SCHEMES,
    engine: Optional[str] = None,
) -> Dict[float, List[ReliabilityResult]]:
    """``workers``/``REPRO_WORKERS`` parallelize without changing output.

    ``engine`` picks the Monte-Carlo engine (``"fast"``/``"reference"``;
    default: ``REPRO_FAULTSIM`` or reference).
    """
    geometry = X4_CHIPKILL_16GB
    out: Dict[float, List[ReliabilityResult]] = {}
    for multiplier in fit_multipliers:
        config = MonteCarloConfig(
            n_modules=n_modules,
            seed=seed,
            fit_multiplier=multiplier,
            engine=engine,
        )
        out[multiplier] = [
            simulate_parallel(
                evaluator_for(name, geometry),
                geometry,
                config,
                workers=workers,
                progress=progress,
            )
            for name in schemes
        ]
    return out


def report(results: Optional[Dict[float, List[ReliabilityResult]]] = None) -> str:
    results = results or run()
    print_banner("Figure 10: probability of system failure (x4 16GB, 7 years)")
    years = [1, 3, 5, 7]
    rows = []
    for multiplier, pair in results.items():
        for r in pair:
            rows.append(
                [f"{multiplier:g}x FIT", r.scheme]
                + [f"{r.probability_at_years(y):.4%}" for y in years]
                + [f"{r.n_due}/{r.n_sdc}"]
            )
    table = format_table(
        ["FIT", "Scheme"] + [f"{y}y" for y in years] + ["DUE/SDC"], rows
    )
    print(table)
    print(
        "\nSafeGuard-Chipkill matches Chipkill's correction reliability at "
        "both fault rates while never failing silently."
    )
    return table
