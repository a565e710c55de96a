"""Performance-evaluation harness (Figures 7, 11, 12, 13).

Combines the trace-driven system simulator with per-organization access
overheads and reports normalized performance versus the conventional-ECC
baseline, exactly the quantity the paper's performance figures plot.
"""

from repro.perf.organizations import (
    PerfOrganization,
    BASELINE_ECC,
    organization_for,
    safeguard,
    sgx_style,
    synergy_style,
)
from repro.perf.model import PerfConfig, WorkloadResult, run_workload, run_comparison
from repro.perf.campaign import (
    CampaignCell,
    run_cells,
    run_comparison_parallel,
    run_comparison_multiseed_parallel,
)

__all__ = [
    "PerfOrganization",
    "BASELINE_ECC",
    "organization_for",
    "safeguard",
    "sgx_style",
    "synergy_style",
    "PerfConfig",
    "WorkloadResult",
    "run_workload",
    "run_comparison",
    "CampaignCell",
    "run_cells",
    "run_comparison_parallel",
    "run_comparison_multiseed_parallel",
]
