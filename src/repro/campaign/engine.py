"""The domain-generic campaign executor.

A *campaign* is a grid of independent, deterministic work items — Monte
Carlo shards, performance cells, Row-Hammer sweep points — each fully
described by a science fingerprint. This module owns every mechanism
those campaigns share, exactly once:

- **store scan** — verified results load from the :class:`ResultStore`
  (rejections counted by reason) so a killed campaign resumes; stores
  that coordinate several clients (:class:`repro.campaign.client.
  RemoteResultStore`) may answer ``"inflight"`` — *another client is
  computing this cell* — and those items are awaited after the local
  batch instead of recomputed;
- **fan-out** — with ``workers > 1``, pending items go to persistent
  worker processes as *groups* (``Campaign.group_key``) that idle
  workers steal from a shared queue (:mod:`repro.campaign.scheduler`),
  so engines whose items share expensive per-process state (the perf
  engine's memoized content pass, the sweep's per-attack simulation)
  keep that sharing under any worker count;
- **retry** — a worker that dies or hangs is replaced and its group
  re-runs with a bounded per-group attempt budget; a group that keeps
  killing workers eventually raises
  :class:`repro.campaign.scheduler.CampaignError`.
  Deterministic exceptions raised *by* an item propagate immediately
  (retrying them cannot help);
- **determinism** — results are keyed by item index, every item is a
  pure function of its fingerprint, and loaded cells are verified in
  full, so the returned mapping is bit-identical for any worker count
  and any completion/steal order;
- **progress** — a :class:`CampaignProgress` snapshot after every
  completed or store-loaded item.

Domain engines subclass :class:`Campaign` and stay thin: identity
(key/fingerprint), the ``run_item`` payload, and result
(de)serialization. The core alone names the store files
(``<family>-<digest>.json``), indexes every completed cell under the
family's :attr:`Campaign.name`, and hands every progress callback a
:class:`CampaignProgress`. The campaign object is pickled to workers,
so it should carry shared configuration only; bulky per-item inputs
belong on the items themselves.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.campaign.progress import CampaignProgress
from repro.campaign.scheduler import run_stealing
from repro.campaign.store import ResultStore, cell_name


class Campaign:
    """Domain contract for one campaign family.

    Required: :meth:`fingerprint` and :meth:`run_item`. Everything else
    has a sensible default. Instances must be picklable (they travel to
    worker processes) and ``run_item`` must be deterministic in the
    item's fingerprint — that is what makes the store sound and the
    output worker-count-invariant.
    """

    #: Campaign family name: the prefix of every cell file and the
    #: family recorded in the store's append-only index.
    name = "campaign"

    # -- identity ----------------------------------------------------------------

    def fingerprint(self, item) -> dict:
        """Everything that determines the item's result, as a JSON dict."""
        raise NotImplementedError

    def item_key(self, item) -> Any:
        """JSON-able stable identity recorded in the index."""
        key = getattr(item, "key", None)
        return list(key) if isinstance(key, tuple) else (key if key is not None else item.index)

    def group_key(self, item) -> Hashable:
        """Items with equal keys run in the same worker task (one by
        default: no grouping)."""
        return item.index

    # -- execution ---------------------------------------------------------------

    def run_item(self, item) -> Any:
        """Compute one item's result (executes inside a worker)."""
        raise NotImplementedError

    # -- persistence -------------------------------------------------------------

    def serialize_result(self, item, result) -> Any:
        """Result -> JSON-able payload (identity by default)."""
        return result

    def deserialize_result(self, item, payload) -> Any:
        """JSON payload -> result (identity by default). Raising
        ``ValueError``/``KeyError``/``TypeError`` marks the cell corrupt
        and recomputes it."""
        return payload

    # -- progress accounting -----------------------------------------------------

    def item_units(self, item) -> int:
        """Work units the item represents (rate/ETA denomination)."""
        return 1

    def result_failures(self, result) -> int:
        """Failure events in a result (surfaced in progress snapshots
        and recorded on the store's index entries)."""
        return 0


class _CampaignRun:
    """Bookkeeping for one campaign execution: the store scan, per-item
    completion accounting (store write + progress snapshot), and the
    await loop for cells another client is computing."""

    def __init__(
        self,
        campaign: Campaign,
        items: Sequence[Any],
        *,
        store_dir: Optional[str],
        store,
        progress: Optional[Callable[[CampaignProgress], None]],
    ):
        self.campaign = campaign
        self.items = list(items)
        self.fingerprints = {
            item.index: campaign.fingerprint(item) for item in self.items
        }
        self.cell_names = {
            index: cell_name(campaign.name, fingerprint)
            for index, fingerprint in self.fingerprints.items()
        }
        if store is None and store_dir:
            store = ResultStore(store_dir)
        self.store = store
        self.progress = progress
        self.results: Dict[int, Any] = {}
        self.state = {
            "from_store": 0,
            "units_done": 0,
            "failures": 0,
            "rejected_corrupt": 0,
            "rejected_stale": 0,
        }
        self.units_total = sum(campaign.item_units(item) for item in self.items)
        self.started = time.monotonic()

    def report(self) -> None:
        if self.progress is None:
            return
        self.progress(
            CampaignProgress(
                items_done=len(self.results),
                items_total=len(self.items),
                items_from_store=self.state["from_store"],
                units_done=self.state["units_done"],
                units_total=self.units_total,
                failures=self.state["failures"],
                elapsed_s=time.monotonic() - self.started,
                rejected_corrupt=self.state["rejected_corrupt"],
                rejected_stale=self.state["rejected_stale"],
            )
        )

    def account(self, item, result) -> None:
        self.results[item.index] = result
        self.state["units_done"] += self.campaign.item_units(item)
        self.state["failures"] += self.campaign.result_failures(result)

    def _try_load(self, item, payload) -> Optional[Any]:
        """Deserialize a stored payload; ``None`` marks it corrupt."""
        try:
            return self.campaign.deserialize_result(item, payload)
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def scan(self) -> Tuple[List[Any], List[Any]]:
        """Load verified cells; returns ``(pending, inflight)`` items.

        ``inflight`` items are cells a coordinating store reported
        another client is currently computing; they are awaited via
        :meth:`await_inflight` after the local batch runs.
        """
        pending: List[Any] = []
        inflight: List[Any] = []
        for item in self.items:
            reason: Optional[str] = "absent"
            payload = None
            if self.store is not None:
                payload, reason = self.store.load(
                    self.cell_names[item.index], self.fingerprints[item.index]
                )
            if reason is None:
                result = self._try_load(item, payload)
                if result is None:
                    reason = "corrupt"
                else:
                    self.account(item, result)
                    self.state["from_store"] += 1
                    self.report()
                    continue
            if reason == "inflight" and hasattr(self.store, "load_wait"):
                inflight.append(item)
                continue
            if reason == "corrupt":
                self.state["rejected_corrupt"] += 1
            elif reason == "stale":
                self.state["rejected_stale"] += 1
            pending.append(item)
        return pending, inflight

    def await_inflight(self, inflight: Sequence[Any]) -> List[Any]:
        """Block on cells other clients were computing.

        Each waits until the cell is stored (a shared-store cache hit)
        or until this client wins the claim for it (the producer died or
        timed out) — those come back as a second pending batch.
        """
        pending: List[Any] = []
        for item in inflight:
            payload, reason = self.store.load_wait(
                self.cell_names[item.index], self.fingerprints[item.index]
            )
            result = self._try_load(item, payload) if reason is None else None
            if result is not None:
                self.account(item, result)
                self.state["from_store"] += 1
                self.report()
            else:
                pending.append(item)
        return pending

    def finish(self, item, result) -> None:
        """Account one computed item: store, index, progress."""
        self.account(item, result)
        if self.store is not None:
            self.store.store(
                self.cell_names[item.index],
                self.fingerprints[item.index],
                self.campaign.serialize_result(item, result),
                campaign=self.campaign.name,
                key=self.campaign.item_key(item),
                failures=self.campaign.result_failures(result),
            )
        self.report()


def run_campaign(
    campaign: Campaign,
    items: Sequence[Any],
    *,
    workers: int = 1,
    store_dir: Optional[str] = None,
    store=None,
    progress: Optional[Callable[[CampaignProgress], None]] = None,
    max_attempts: int = 3,
) -> Dict[int, Any]:
    """Run every item; returns results keyed by ``item.index``.

    ``workers == 1`` runs items in-process in index order, which still
    exercises the store and progress reporting; more workers fan the
    groups out through :func:`repro.campaign.scheduler.run_stealing`,
    giving each group up to ``max_attempts`` tries against dying or
    hung workers. The output mapping is independent of worker count
    and completion order.

    ``store`` accepts a ready store object (anything with the
    :class:`ResultStore` ``load``/``store`` contract — e.g. a
    :class:`repro.campaign.client.RemoteResultStore` sharing cells over
    the network); ``store_dir`` builds a local directory store.
    """
    run = _CampaignRun(
        campaign, items, store_dir=store_dir, store=store, progress=progress
    )

    def execute(batch: List[Any]) -> None:
        if not batch:
            return
        if workers == 1:
            for item in batch:
                run.finish(item, campaign.run_item(item))
        else:
            run_stealing(
                campaign, batch, workers, run.finish, max_attempts=max_attempts
            )

    pending, inflight = run.scan()
    execute(pending)
    if inflight:
        execute(run.await_inflight(inflight))
    return run.results
