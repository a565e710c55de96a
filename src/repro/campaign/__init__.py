"""The generic campaign core: one implementation of every campaign mechanism.

The repo runs three campaign families — Monte-Carlo reliability shards
(:mod:`repro.faultsim.parallel`), cycle-level performance cells
(:mod:`repro.perf.campaign`), and Row-Hammer attack sweeps
(:mod:`repro.rowhammer.sweep`). All three are thin adapters over this
package:

- :mod:`repro.campaign.engine` — the :class:`Campaign` work-item
  contract and the store-backed executor (:func:`run_campaign`);
- :mod:`repro.campaign.scheduler` — its multi-worker fan-out: persistent
  workers stealing whole groups from a shared queue, with heartbeat
  supervision and a bounded per-group retry budget;
- :mod:`repro.campaign.store` — the atomic, fingerprint-verified JSON
  :class:`ResultStore` with its append-only completion index;
- :mod:`repro.campaign.server` / :mod:`repro.campaign.client` — the
  same store served over TCP (:class:`RemoteResultStore`) plus the
  async job front door (``python -m repro serve`` / ``submit``);
- :mod:`repro.campaign.progress` — shared rate/ETA/fraction progress
  accounting and the repo-wide worker-count resolution
  (``REPRO_WORKERS`` generic fallback).

See the "campaign layer" section of ``docs/architecture.md`` for the
adapter diagram, the add-a-campaign recipe, and the distributed
(serve-a-campaign) recipe.
"""

from repro.campaign.client import CampaignClient, RemoteResultStore
from repro.campaign.engine import Campaign, run_campaign
from repro.campaign.progress import (
    GENERIC_WORKERS_ENV,
    CampaignProgress,
    ProgressBase,
    ProgressCallback,
    resolve_workers,
)
from repro.campaign.scheduler import CampaignError
from repro.campaign.server import BackgroundServer, CampaignServer, ServerActivity
from repro.campaign.store import (
    INDEX_NAME,
    STORE_VERSION,
    ResultStore,
    atomic_write_json,
    fingerprint_digest,
    read_index,
    summarize_index,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "run_campaign",
    "RemoteResultStore",
    "CampaignClient",
    "CampaignServer",
    "BackgroundServer",
    "ServerActivity",
    "CampaignProgress",
    "ProgressBase",
    "ProgressCallback",
    "GENERIC_WORKERS_ENV",
    "resolve_workers",
    "ResultStore",
    "STORE_VERSION",
    "INDEX_NAME",
    "atomic_write_json",
    "fingerprint_digest",
    "read_index",
    "summarize_index",
]
