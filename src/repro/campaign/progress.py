"""Shared campaign progress/worker machinery.

Every campaign family in the repo — the sharded Monte-Carlo runs of
:mod:`repro.faultsim.parallel`, the performance-cell grids of
:mod:`repro.perf.campaign`, the Row-Hammer attack sweeps of
:mod:`repro.rowhammer.sweep` and the attack playbooks of
:mod:`repro.rowhammer.playbook` — reports progress the same way: one
:class:`CampaignProgress` snapshot handed to the caller's callback after
every completed or store-loaded work item, with a rate, an ETA, a
completed fraction, and a one-line ``describe()``. Items are the
family's cells (shards, perf cells, sweep points); units are the finer
measure the rate is quoted in (modules for a Monte-Carlo shard, one per
item elsewhere). The rate/ETA math lives in :class:`ProgressBase`,
shared with the campaign server's live counters.

Worker-count resolution is likewise shared: the run function's
``workers`` argument > ``REPRO_WORKERS`` > 1.
"""

from __future__ import annotations

import copy
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from repro.switches import env_workers

#: Every campaign's progress callback receives one snapshot per
#: completed (or store-loaded) work item.
ProgressCallback = Callable[["CampaignProgress"], None]


def resolve_workers(workers: Optional[int] = None, *, strict: bool = False) -> int:
    """Resolve a worker count with the repo-wide precedence.

    Explicit argument > ``REPRO_WORKERS`` > 1 (in-process, no pool); a
    malformed ``REPRO_WORKERS`` raises a ``ValueError`` that names it.

    Counts above ``os.cpu_count()`` are clamped with a one-line warning:
    every campaign worker is CPU-bound, so oversubscription only adds
    scheduler thrash (BENCH_perf.json measured workers=4 on a 1-CPU
    host at ~4x *slower* than sequential). Pass ``strict=True`` to keep
    the requested count anyway (e.g. to measure that penalty).
    """
    if workers is None:
        workers = env_workers()
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus and not strict:
        warnings.warn(
            f"requested {workers} campaign workers on a {cpus}-CPU host; "
            f"clamping to {cpus} (CPU-bound workers only thrash when "
            "oversubscribed — pass strict=True to keep the request)",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = cpus
    return workers


#: Guards the lazy creation of each instance's mutation lock (two
#: threads racing the *first* mutation must end up with one lock).
_LOCK_GUARD = threading.Lock()


class ProgressBase:
    """Rate/ETA/fraction accounting over generic progress attributes.

    Subclasses provide (as dataclass fields):

    - ``items_done`` / ``items_total`` — completed vs. planned work items
      (shards, cells, sweep points);
    - ``items_from_store`` — items satisfied from the result store
      (checkpoints / cache) instead of computed;
    - ``units_done`` / ``units_total`` — the finer-grained work measure
      the rate and ETA are quoted in (modules for the Monte-Carlo
      engine; identical to items elsewhere);
    - ``elapsed_s`` — wall-clock seconds since the campaign started;
    - ``rejected_corrupt`` / ``rejected_stale`` — store cells that were
      present but unusable (unparseable vs. fingerprint/version
      mismatch), i.e. *why* a resume recomputed work.

    Class knobs tune the ``describe()`` line: the item noun, the rate
    noun, and the rate's format spec; ``_trailer`` supplies its tail.
    """

    ITEM_NOUN = "item"
    RATE_NOUN: Optional[str] = None  # defaults to ITEM_NOUN + "s"
    RATE_FMT = ",.0f"

    # -- concurrent mutation -----------------------------------------------------
    #
    # Most progress objects are immutable snapshots emitted by a single
    # campaign parent. The campaign *server*, however, keeps live
    # ProgressBase instances that several threads mutate at once — the
    # asyncio loop thread accounting requests while job-runner executor
    # threads account campaign progress. Those writers must go through
    # :meth:`update`/:meth:`advance`, and readers that need a consistent
    # view take :meth:`snapshot`; all three share one per-instance lock.
    # Direct attribute reads (``describe`` on an emitted snapshot) stay
    # lock-free, exactly as before.

    def _sync(self) -> threading.RLock:
        lock = self.__dict__.get("_lock")
        if lock is None:
            with _LOCK_GUARD:
                lock = self.__dict__.setdefault("_lock", threading.RLock())
        return lock

    def update(self, **fields) -> None:
        """Atomically set attribute values (thread-safe)."""
        with self._sync():
            for name, value in fields.items():
                setattr(self, name, value)

    def advance(self, **deltas) -> None:
        """Atomically add to counter attributes (thread-safe)."""
        with self._sync():
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self):
        """A consistent shallow copy, safe to read/serialize lock-free."""
        with self._sync():
            clone = copy.copy(self)
        clone.__dict__.pop("_lock", None)
        return clone

    def __getstate__(self):
        # Locks don't pickle; a revived instance re-creates one lazily.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    @property
    def rate(self) -> float:
        """Work units completed per second (0 when unknown)."""
        return self.units_done / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def eta_s(self) -> float:
        """Estimated seconds until completion (0 when done or unknown)."""
        rate = self.rate
        remaining = self.units_total - self.units_done
        return remaining / rate if rate > 0 and remaining > 0 else 0.0

    @property
    def fraction_done(self) -> float:
        return self.units_done / self.units_total if self.units_total else 1.0

    def describe(self) -> str:
        """One-line human summary (used by CLI/script progress printers)."""
        rate_noun = self.RATE_NOUN or f"{self.ITEM_NOUN}s"
        text = (
            f"{self.ITEM_NOUN} {self.items_done}/{self.items_total} "
            f"({self.fraction_done:.0%}) "
            f"{self.rate:{self.RATE_FMT}} {rate_noun}/s "
            f"eta {self.eta_s:.0f}s "
            f"{self._trailer()}"
        )
        rejected = self.rejected_corrupt + self.rejected_stale
        if rejected:
            text += (
                f" rejected {self.rejected_corrupt} corrupt"
                f"/{self.rejected_stale} stale"
            )
        return text


@dataclass
class CampaignProgress(ProgressBase):
    """The one snapshot every campaign family's progress callback gets.

    ``failures`` sums the family's failure events over the items done
    (Monte-Carlo failure records, silent corruptions of a sweep point).
    """

    items_done: int = 0
    items_total: int = 0
    items_from_store: int = 0
    units_done: int = 0
    units_total: int = 0
    failures: int = 0
    elapsed_s: float = 0.0
    rejected_corrupt: int = 0
    rejected_stale: int = 0

    RATE_NOUN = "units"
    RATE_FMT = ",.2f"

    def _trailer(self) -> str:
        return f"cached {self.items_from_store} failures {self.failures}"
