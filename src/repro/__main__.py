"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro list                     # available experiments
    python -m repro schemes                  # registered memory organizations
    python -m repro fig6                     # one experiment
    python -m repro fig6 --workers 8         # parallel Monte-Carlo (same output)
    python -m repro fig6 --scheme secded     # restrict to one organization
    python -m repro fig6 --engine fast       # vectorized Monte-Carlo engine
    python -m repro fig7 --workers 8         # parallel perf campaign (same output)
    python -m repro fig7 --cache-dir .cells  # resumable per-cell result cache
    python -m repro fig7 --profile prof.json # + per-pass cProfile dump
    python -m repro hammer-sweep --workers 4 --cache-dir .sweep
    python -m repro playbook list            # named attack scenarios
    python -m repro playbook show many-sided # format + compiled preview
    python -m repro playbook lint            # compile the whole library
    python -m repro playbook run --scenario all --workers 2 --cache-dir .pb
    python -m repro campaign-status .sweep   # summarize a campaign store
    python -m repro serve --store-dir .shared --port 7797
    python -m repro fig7 --store-url HOST:7797      # shared networked cache
    python -m repro submit HOST:7797 hammer-sweep --watch
    python -m repro campaign-status --remote HOST:7797
    python -m repro all                      # everything (interactive scale)

``--workers N`` fans the Monte-Carlo reliability experiments
(``REPRO_MC_WORKERS`` environment fallback) and the cycle-level
performance campaigns (``REPRO_PERF_WORKERS`` fallback) across N
processes; results are bit-identical to the sequential run in both
engines. ``--scheme NAME`` (a name from ``python -m repro schemes``)
restricts scheme-aware experiments (fig1c/fig6/fig7/fig10/fig11) to a
single memory organization. ``--engine fast|reference`` selects the
simulation engine for the engine-aware experiments: the Monte-Carlo
reliability figures fig6/fig10 (``REPRO_FAULTSIM`` fallback) and the
cycle-level performance figures fig7/fig11/fig12/fig13 (``REPRO_PERF``
fallback). Both vectorized fast paths are statistically equivalent to
their reference loops, not bit-identical, and campaign caches /
checkpoints never cross engines. ``--cache-dir PATH`` persists one verified JSON
result per campaign cell (the performance figures fig7/fig11/fig12/fig13
and the ``hammer-sweep`` attack campaign): a killed or re-scoped campaign
recomputes only the cells it is missing. ``campaign-status DIR`` reads the
store's append-only index and prints per-campaign completion and
failure counts (``--remote HOST:PORT`` asks a running campaign server
instead). The
generic ``REPRO_WORKERS`` parallelizes every campaign family at once; the
engine-specific variables above take precedence over it. ``--profile
PATH`` (fig7/fig11) additionally writes a per-pass cProfile breakdown of
the fast perf engine — synthesis vs. content vs. timing, top functions
by cumulative time — as JSON (see ``scripts/profile_fastpath.py``).

Distributed serving: ``python -m repro serve --store-dir DIR`` starts
the asyncio campaign server (shared fingerprint-verified result store +
async job API; see ``repro.campaign.server``); ``--store-url HOST:PORT``
on the campaign experiments (fig6/fig7/fig11/fig12/fig13/hammer-sweep)
routes their cells through that shared store so concurrent runs divide
a grid instead of recomputing it; ``python -m repro submit HOST:PORT
KIND`` enqueues a server-side campaign job (``hammer-sweep`` / ``perf``
/ ``faultsim``), ``--watch`` streaming its progress events.
Every ``--workers N`` campaign fans out to persistent work-stealing
workers (``repro.campaign.scheduler``); any worker count gives
bit-identical results.
"""

import sys

from repro.core import registry
from repro.experiments.runner import experiment_names, run_all, run_experiment


def _parse_option(argv, flag, parse):
    """Pop ``--flag VALUE`` / ``--flag=VALUE`` from argv; None if absent."""
    value = None
    remaining = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == flag:
            if index + 1 >= len(argv):
                raise ValueError(f"{flag} requires a value")
            value = parse(argv[index + 1])
            index += 2
            continue
        if arg.startswith(flag + "="):
            value = parse(arg.split("=", 1)[1])
            index += 1
            continue
        remaining.append(arg)
        index += 1
    return value, remaining


def _parse_workers(argv):
    workers, remaining = _parse_option(argv, "--workers", int)
    if workers is not None and workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    return workers, remaining


def _print_campaign_status(
    directory=None, store_url=None
) -> int:
    """Summarize a campaign store (local index or a remote server's)."""
    if store_url is not None:
        from repro.campaign import CampaignClient

        with CampaignClient(store_url) as client:
            summary = client.status()
        source = f"server {store_url}"
    else:
        from repro.campaign import summarize_index

        summary = summarize_index(directory)
        source = repr(directory)
    if not summary:
        print(f"no campaign index found in {source}", file=sys.stderr)
        return 1
    for name, counts in summary.items():
        print(
            f"{name:16} completed {counts['completed']:6}  "
            f"cells {counts['cells']:6}  index entries {counts['entries']:6}  "
            f"failures {counts.get('failures', 0):6}"
        )
    return 0


def _serve(argv) -> int:
    """``python -m repro serve``: the asyncio campaign server."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a shared campaign result store + job API.",
    )
    parser.add_argument(
        "--store-dir",
        default=".campaign-store",
        help="directory backing the shared result store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    from repro.campaign.wire import DEFAULT_PORT

    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="default worker count for submitted jobs",
    )
    args = parser.parse_args(argv)
    from repro.campaign.server import run_server

    run_server(
        args.store_dir, host=args.host, port=args.port, workers=args.workers
    )
    return 0


def _submit(argv) -> int:
    """``python -m repro submit``: enqueue a job on a campaign server."""
    import argparse
    import json

    from repro.campaign.server import JOB_KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a campaign job to a running server.",
    )
    parser.add_argument("url", help="server address, HOST:PORT")
    parser.add_argument("kind", choices=sorted(JOB_KINDS))
    parser.add_argument(
        "--params",
        default="{}",
        help='job parameters as JSON, e.g. \'{"schemes": ["secded"]}\'',
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="stream progress events and wait for the job to finish",
    )
    args = parser.parse_args(argv)
    try:
        params = json.loads(args.params)
    except ValueError as error:
        print(f"--params is not valid JSON: {error}", file=sys.stderr)
        return 2
    from repro.campaign import CampaignClient

    with CampaignClient(args.url) as client:
        job_id = client.submit(args.kind, params)
        print(f"submitted {job_id} ({args.kind}) to {args.url}")
        if not args.watch:
            return 0
        state = "running"
        for event in client.watch(job_id):
            if event.get("event") == "progress":
                print(f"  {event.get('describe', '')}", file=sys.stderr)
            elif event.get("event") == "end":
                state = event.get("state", "done")
                if event.get("error"):
                    print(f"{job_id} failed: {event['error']}", file=sys.stderr)
        if state != "done":
            return 1
        print(json.dumps(client.job_results(job_id), indent=2, sort_keys=True))
    return 0


def _playbook(argv, workers=None, scheme=None, cache_dir=None,
              store_url=None) -> int:
    """``python -m repro playbook``: the declarative attack-playbook engine.

    Generic options (``--workers`` / ``--scheme`` / ``--cache-dir`` /
    ``--store-url``) arrive pre-parsed from :func:`main`, same as for
    the figure experiments.
    """
    import argparse
    import json

    from repro.rowhammer import playbook as pb

    parser = argparse.ArgumentParser(
        prog="python -m repro playbook",
        description="Compile and run declarative Row-Hammer attack playbooks.",
    )
    parser.add_argument(
        "action", choices=("run", "list", "show", "lint"),
        help="run the campaign grid, list/show library scenarios, or "
        "lint-compile the whole library",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="scenario name (for 'show')",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; 'all' or omitted = whole library)",
    )
    parser.add_argument(
        "--mitigation", action="append", default=None, metavar="NAME",
        help="mitigation to run against (repeatable; default: all)",
    )
    parser.add_argument(
        "--seeds", default="3",
        help="comma-separated point seeds (default: 3)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="activation budget per refresh window (default: "
        f"{pb.PlaybookConfig().budget})",
    )
    parser.add_argument(
        "--file", action="append", default=[], metavar="PATH",
        help="JSON file with one playbook dict (or a list of them) to add "
        "to the run (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.action == "list":
        for spec in pb.SCENARIOS.values():
            variants = len(pb.expand_spec(spec))
            suffix = f" ({variants} variants)" if variants > 1 else ""
            print(f"{spec.name:24} {spec.summary}{suffix}")
        return 0
    if args.action == "show":
        if not args.target:
            print("usage: python -m repro playbook show NAME", file=sys.stderr)
            return 2
        spec = pb.scenario(args.target)
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        config = pb.PlaybookConfig()
        for variant in pb.expand_spec(spec):
            pattern = pb.compile_playbook(
                variant, base_row=config.victim_row, n_rows=config.n_rows
            )
            head = list(pattern.activations(24))
            print(
                f"{variant.name}: aggressors {tuple(pattern.aggressors)} "
                f"victims {tuple(pattern.intended_victims)}\n"
                f"  first activations: {head}"
            )
        return 0
    if args.action == "lint":
        for line in pb.lint_scenarios():
            print(line)
        print(f"{len(pb.SCENARIOS)} scenarios OK")
        return 0

    # action == "run"
    extra_playbooks = []
    for path in args.file:
        with open(path) as handle:
            payload = json.load(handle)
        extra_playbooks.extend(payload if isinstance(payload, list) else [payload])
    config = pb.PlaybookConfig()
    if args.budget is not None:
        config.budget = args.budget
    scenarios = args.scenario
    if scenarios is None or "all" in scenarios:
        scenarios = None  # whole library + every --file playbook
    seeds = tuple(int(seed) for seed in args.seeds.split(",") if seed)
    cells = pb.plan_playbook(
        scenarios=scenarios,
        mitigations=tuple(args.mitigation) if args.mitigation
        else pb.DEFAULT_MITIGATIONS,
        schemes=(scheme,) if scheme else None,
        seeds=seeds,
        config=config,
        extra_playbooks=extra_playbooks,
    )
    from repro.experiments.runner import _open_store, _print_progress

    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        outcomes = pb.run_playbook(
            cells,
            config,
            workers=workers,
            cache_dir=cache_dir,
            store=store,
            progress=progress,
            extra_playbooks=extra_playbooks,
        )
    pb.report_playbook(outcomes)
    return 0


def _print_schemes() -> None:
    """The registry listing: name, capability flags, description."""
    for info in registry.schemes():
        flags = ",".join(info.capabilities) or "-"
        print(f"{info.name:28} {flags:36} {info.display}: {info.summary}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        workers, argv = _parse_workers(argv)
        scheme, argv = _parse_option(argv, "--scheme", str)
        engine, argv = _parse_option(argv, "--engine", str)
        cache_dir, argv = _parse_option(argv, "--cache-dir", str)
        profile_to, argv = _parse_option(argv, "--profile", str)
        store_url, argv = _parse_option(argv, "--store-url", str)
        if engine is not None:
            # Both engine switches recognize the same names; the runner
            # resolves against the right module per experiment.
            from repro.faultsim import fastpath

            engine = fastpath.resolve_engine(engine)  # validates the name
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        print("Experiments:", ", ".join(experiment_names()))
        print("Schemes:", ", ".join(registry.names()))
        return 0
    name = argv[0]
    if name == "list":
        for experiment in experiment_names():
            print(experiment)
        return 0
    if name == "schemes":
        _print_schemes()
        return 0
    if name == "playbook":
        try:
            return _playbook(
                argv[1:],
                workers=workers,
                scheme=scheme,
                cache_dir=cache_dir,
                store_url=store_url,
            )
        except (OSError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
    if name == "serve":
        return _serve(argv[1:])
    if name == "submit":
        return _submit(argv[1:])
    if name == "campaign-status":
        remote, rest = _parse_option(argv[1:], "--remote", str)
        if remote is not None and not rest:
            return _print_campaign_status(store_url=remote)
        if remote is None and len(rest) == 1:
            return _print_campaign_status(rest[0])
        print(
            "usage: python -m repro campaign-status CACHE_DIR | "
            "--remote HOST:PORT",
            file=sys.stderr,
        )
        return 2
    if name == "all":
        run_all(workers=workers)
        return 0
    try:
        run_experiment(
            name,
            workers=workers,
            scheme=scheme,
            engine=engine,
            cache_dir=cache_dir,
            profile_to=profile_to,
            store_url=store_url,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
