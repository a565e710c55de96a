"""The generic campaign core: one implementation of every campaign mechanism.

The repo runs four campaign families — Monte-Carlo reliability shards
(``faultsim``, :mod:`repro.faultsim.parallel`), cycle-level performance
cells (``perf``, :mod:`repro.perf.campaign`), Row-Hammer attack sweeps
(``hammer-sweep``, :mod:`repro.rowhammer.sweep`) and attack playbooks
(``playbook``, :mod:`repro.rowhammer.playbook`). All four are thin
adapters over this package and share one contract: progress callbacks
receive :class:`CampaignProgress`, cells are stored as
``<family>-<digest>.json`` and indexed, and worker count and store are
keyword arguments of the run functions:

- :mod:`repro.campaign.engine` — the :class:`Campaign` work-item
  contract and the store-backed executor (:func:`run_campaign`);
- :mod:`repro.campaign.scheduler` — its multi-worker fan-out: persistent
  workers stealing whole groups from a shared queue, with heartbeat
  supervision and a bounded per-group retry budget;
- :mod:`repro.campaign.store` — the atomic, fingerprint-verified JSON
  :class:`ResultStore`, its cell naming and its append-only completion
  index;
- :mod:`repro.campaign.server` / :mod:`repro.campaign.client` — the
  same store served over TCP (:class:`RemoteResultStore`) plus the
  async job front door (``python -m repro serve`` / ``submit``);
- :mod:`repro.campaign.progress` — shared rate/ETA/fraction progress
  accounting and the repo-wide worker-count resolution
  (``REPRO_WORKERS`` fallback, read by :mod:`repro.switches`).

See the "campaign layer" section of ``docs/architecture.md`` for the
adapter diagram, the add-a-campaign recipe, and the distributed
(serve-a-campaign) recipe.
"""

from repro.campaign.client import CampaignClient, RemoteResultStore
from repro.campaign.engine import Campaign, run_campaign
from repro.campaign.progress import (
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
    cell_name,
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
    "resolve_workers",
    "ResultStore",
    "STORE_VERSION",
    "INDEX_NAME",
    "atomic_write_json",
    "cell_name",
    "fingerprint_digest",
    "read_index",
    "summarize_index",
]
