"""Experiment dispatcher: run any paper table/figure by name.

Used by the CLI (``python -m repro <experiment>``) and handy from a REPL::

    from repro.experiments.runner import run_experiment, EXPERIMENTS
    run_experiment("fig6")
    run_experiment("fig6", workers=8)   # parallel Monte-Carlo, same output

Every runner accepts an optional ``workers`` count; the Monte-Carlo
experiments (fig6/fig10) fan their module population across that many
processes (see :mod:`repro.faultsim.parallel`), the rest ignore it.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    fig1b_attacks,
    fig1c_detection,
    fig6_reliability_secded,
    fig10_reliability_chipkill,
    perf_figures,
    sec4b_birthday,
    sec4c_column_recovery,
    sec7_security,
    sec7e_mac_escape,
    table1_thresholds,
    table2_table3_config,
    table4_resiliency,
    table5_storage,
)
from repro import switches
from repro.campaign import CampaignProgress
from repro.core import registry
from repro.perf.model import PerfConfig
from repro.rowhammer import sweep as hammer_sweep


class _open_store:
    """Context manager for an optional ``--store-url`` networked store.

    ``None`` URL yields ``None`` (runners fall back to ``cache_dir`` /
    local behaviour); otherwise yields a connected
    :class:`repro.campaign.RemoteResultStore` and closes it — releasing
    any claims the run still holds — when the experiment finishes.
    """

    def __init__(self, store_url: Optional[str]):
        self.store_url = store_url
        self.store = None

    def __enter__(self):
        if self.store_url is None:
            return None
        from repro.campaign import RemoteResultStore

        self.store = RemoteResultStore(self.store_url)
        return self.store

    def __exit__(self, *exc) -> None:
        if self.store is not None:
            self.store.close()


def _print_progress(stats: CampaignProgress) -> None:
    """Carriage-return progress line for interactive parallel runs of
    any campaign family."""
    end = "\n" if stats.items_done == stats.items_total else "\r"
    print(f"  {stats.describe()}", end=end, file=sys.stderr, flush=True)


def _table1(workers: Optional[int] = None) -> None:
    table1_thresholds.report()


def _table2(workers: Optional[int] = None) -> None:
    table2_table3_config.report_table2()


def _table3(workers: Optional[int] = None) -> None:
    table2_table3_config.report_table3()


def _table4(workers: Optional[int] = None) -> None:
    table4_resiliency.report(table4_resiliency.run(trials=60))


def _table5(workers: Optional[int] = None) -> None:
    table5_storage.report()


def _fig1b(workers: Optional[int] = None) -> None:
    fig1b_attacks.report(fig1b_attacks.run())


def _fig1c(workers: Optional[int] = None, scheme: Optional[str] = None) -> None:
    schemes = (scheme,) if scheme else fig1c_detection.SCHEMES
    fig1c_detection.report(fig1c_detection.run(schemes=schemes))


def _fig6(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else fig6_reliability_secded.SCHEMES
    with _open_store(store_url) as store:
        fig6_reliability_secded.report(
            fig6_reliability_secded.run(
                n_modules=100_000,
                workers=workers,
                progress=progress,
                schemes=schemes,
                engine=engine,
                store=store,
            )
        )


def _fig10(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else fig10_reliability_chipkill.SCHEMES
    fig10_reliability_chipkill.report(
        fig10_reliability_chipkill.run(
            n_modules=50_000,
            workers=workers,
            progress=progress,
            schemes=schemes,
            engine=engine,
        )
    )


_PERF_CONFIG = PerfConfig(instructions_per_core=150_000, warmup_instructions=40_000)
_PERF_WORKLOADS = ["perlbench", "gcc", "mcf", "omnetpp", "leela", "bwaves", "lbm", "roms"]


def _fig7(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    profile_to: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_per_workload(
            perf_figures.run_fig7(
                workloads=_PERF_WORKLOADS,
                config=_PERF_CONFIG,
                scheme=scheme or "safeguard-secded",
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            ),
            "Figure 7: SafeGuard vs. conventional ECC",
        )
    if profile_to:
        from repro.perf.organizations import BASELINE_ECC, organization_for
        from repro.perf.profiling import profile_passes, write_profile

        report = profile_passes(
            _PERF_WORKLOADS,
            _PERF_CONFIG,
            [BASELINE_ECC, organization_for(scheme or "safeguard-secded", 8)],
        )
        write_profile(report, profile_to)
        print(f"per-pass fast-engine profile written to {profile_to}")


def _fig12(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_per_workload(
            perf_figures.run_fig12(
                workloads=_PERF_WORKLOADS,
                config=_PERF_CONFIG,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            ),
            "Figure 12: per-line MAC organizations",
        )


def _fig13(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    engine: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        perf_figures.report_fig13(
            perf_figures.run_fig13(
                latencies=(8, 40, 80),
                workloads=["mcf", "omnetpp", "leela"],
                config=_PERF_CONFIG,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
                engine=engine,
            )
        )


def _hammer_sweep(
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    cache_dir: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    """The attack-sweep campaign: attacks x mitigations x organizations."""
    progress = _print_progress if workers and workers > 1 else None
    schemes = (scheme,) if scheme else hammer_sweep.DEFAULT_SCHEMES
    cells = hammer_sweep.plan_sweep(schemes=schemes)
    with _open_store(store_url) as store:
        hammer_sweep.report(
            hammer_sweep.run_sweep(
                cells,
                workers=workers,
                cache_dir=cache_dir,
                store=store,
                progress=progress,
            )
        )


def _sec4b(workers: Optional[int] = None) -> None:
    sec4b_birthday.report()


def _sec4c(workers: Optional[int] = None) -> None:
    sec4c_column_recovery.report()


def _sec7(workers: Optional[int] = None) -> None:
    sec7_security.report()


def _sec7e(workers: Optional[int] = None) -> None:
    sec7e_mac_escape.report()


#: Experiment name -> runner. ``fig11`` aliases ``fig7`` (the SafeGuard
#: data path is identical in both organizations; see perf_figures).
EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "fig1a": _table1,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig10": _fig10,
    "fig11": _fig7,
    "fig12": _fig12,
    "fig13": _fig13,
    "hammer-sweep": _hammer_sweep,
    "sec4b": _sec4b,
    "sec4c": _sec4c,
    "sec7": _sec7,
    "sec7e": _sec7e,
}


#: Experiments that accept ``--scheme NAME`` (they instantiate one or
#: more organizations from the scheme registry).
SCHEME_AWARE = frozenset({"fig1c", "fig6", "fig7", "fig10", "fig11", "hammer-sweep"})

#: Experiments that accept ``--engine fast|reference``: the Monte-Carlo
#: reliability experiments (``REPRO_FAULTSIM``;
#: :mod:`repro.faultsim.fastpath`) and the cycle-level performance
#: campaigns (``REPRO_PERF``; :mod:`repro.perf.fastpath`).
ENGINE_AWARE = frozenset({"fig6", "fig7", "fig10", "fig11", "fig12", "fig13"})

#: The subset of :data:`ENGINE_AWARE` whose engine is the perf one.
_PERF_ENGINE = frozenset({"fig7", "fig11", "fig12", "fig13"})

#: Experiments that accept ``--cache-dir PATH`` (the cycle-level
#: performance campaigns and the Row-Hammer attack sweep; see
#: :mod:`repro.perf.campaign` and :mod:`repro.rowhammer.sweep`).
CACHE_AWARE = frozenset({"fig7", "fig11", "fig12", "fig13", "hammer-sweep"})

#: Experiments that accept ``--store-url HOST:PORT``: their campaign
#: cells go through a shared networked result store served by ``python
#: -m repro serve`` instead of a local cache directory (see
#: :mod:`repro.campaign.server`). Mutually exclusive with --cache-dir.
STORE_URL_AWARE = frozenset(
    {"fig6", "fig7", "fig11", "fig12", "fig13", "hammer-sweep"}
)

#: Experiments that accept ``--profile PATH`` (with the fast perf
#: engine only): after the figure runs, the fast engine's passes are
#: cProfiled per pass over the same grid and the breakdown written as
#: JSON (repro.perf.profiling).
PROFILE_AWARE = frozenset({"fig7", "fig11"})


def experiment_names() -> List[str]:
    return sorted(EXPERIMENTS)


def run_experiment(
    name: str,
    workers: Optional[int] = None,
    scheme: Optional[str] = None,
    engine: Optional[str] = None,
    cache_dir: Optional[str] = None,
    profile_to: Optional[str] = None,
    store_url: Optional[str] = None,
) -> None:
    """Run one experiment by name; raises KeyError for unknown names.

    ``scheme`` (a registry name) restricts scheme-aware experiments to a
    single organization; ``engine`` selects the Monte-Carlo engine for
    the reliability experiments; ``cache_dir`` persists per-cell results
    for the performance campaigns; ``store_url`` routes those results
    through a shared networked store instead; ``profile_to``
    additionally writes a per-pass cProfile dump of the fast perf
    engine; other experiments reject them.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        ) from None
    kwargs = {"workers": workers}
    if scheme is not None:
        if name not in SCHEME_AWARE:
            raise ValueError(
                f"experiment {name!r} does not take --scheme; "
                f"scheme-aware: {', '.join(sorted(SCHEME_AWARE))}"
            )
        registry.scheme(scheme)  # unknown scheme names fail with the full list
        kwargs["scheme"] = scheme
    if engine is not None:
        if name not in ENGINE_AWARE:
            raise ValueError(
                f"experiment {name!r} does not take --engine; "
                f"engine-aware: {', '.join(sorted(ENGINE_AWARE))}"
            )
        switch = switches.PERF if name in _PERF_ENGINE else switches.FAULTSIM
        kwargs["engine"] = switch.resolve(engine)
    if cache_dir is not None:
        if name not in CACHE_AWARE:
            raise ValueError(
                f"experiment {name!r} does not take --cache-dir; "
                f"cache-aware: {', '.join(sorted(CACHE_AWARE))}"
            )
        kwargs["cache_dir"] = cache_dir
    if store_url is not None:
        if name not in STORE_URL_AWARE:
            raise ValueError(
                f"experiment {name!r} does not take --store-url; "
                f"store-url-aware: {', '.join(sorted(STORE_URL_AWARE))}"
            )
        if cache_dir is not None:
            raise ValueError(
                "--store-url and --cache-dir are mutually exclusive: the "
                "networked store replaces the local cache directory"
            )
        kwargs["store_url"] = store_url
    if profile_to is not None:
        if name not in PROFILE_AWARE:
            raise ValueError(
                f"experiment {name!r} does not take --profile; "
                f"profile-aware: {', '.join(sorted(PROFILE_AWARE))}"
            )
        if switches.PERF.resolve(engine) != "fast":
            # The profile replays the fast engine's passes; on any other
            # engine it would describe a run that never happened.
            raise ValueError(
                f"--profile profiles the fast perf engine: run {name} "
                "with --engine fast (or REPRO_PERF=fast)"
            )
        kwargs["profile_to"] = profile_to
    runner(**kwargs)


def run_all(workers: Optional[int] = None) -> None:
    """Run every experiment at interactive scale."""
    seen = set()
    for name, runner in EXPERIMENTS.items():
        if runner in seen:
            continue
        seen.add(runner)
        run_experiment(name, workers=workers)
