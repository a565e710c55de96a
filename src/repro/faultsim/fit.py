"""Fault modes and field failure rates (Table III).

FIT rates per DRAM device from Sridharan & Liberty, "A study of DRAM
failures in the field" (SC'12) [43], exactly as reproduced in the paper's
Table III. One FIT = one failure per billion device-hours.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List


class Scope(enum.Enum):
    """Spatial extent of a fault within (or across) chips."""

    BIT = "bit"  #: one cell
    COLUMN = "column"  #: one I/O bit-line / pin: vertical 1-bit-per-word
    WORD = "word"  #: one chip's full contribution to one word
    ROW = "row"  #: one row of one bank
    BANK = "bank"  #: one whole bank
    MULTIBANK = "multibank"  #: several banks of one chip
    MULTIRANK = "multirank"  #: the same chip position across ranks


@dataclass(frozen=True)
class FaultMode:
    """One row of Table III."""

    scope: Scope
    transient_fit: float
    permanent_fit: float

    @property
    def total_fit(self) -> float:
        return self.transient_fit + self.permanent_fit


#: Table III: failures per billion device-hours per device [43].
FAULT_MODES: List[FaultMode] = [
    FaultMode(Scope.BIT, transient_fit=14.2, permanent_fit=18.6),
    FaultMode(Scope.COLUMN, transient_fit=1.4, permanent_fit=5.6),
    FaultMode(Scope.WORD, transient_fit=1.4, permanent_fit=0.3),
    FaultMode(Scope.ROW, transient_fit=0.2, permanent_fit=8.2),
    FaultMode(Scope.BANK, transient_fit=0.8, permanent_fit=10.0),
    FaultMode(Scope.MULTIBANK, transient_fit=0.3, permanent_fit=1.4),
    FaultMode(Scope.MULTIRANK, transient_fit=0.9, permanent_fit=2.8),
]


def total_fit(modes: List[FaultMode] = FAULT_MODES) -> float:
    """Aggregate FIT per device across all modes (Table III total: 66.1)."""
    return sum(mode.total_fit for mode in modes)


def scale_fit(factor: float, modes: List[FaultMode] = FAULT_MODES) -> List[FaultMode]:
    """Uniformly scale all FIT rates (Section V-E's 10x experiment)."""
    return [
        replace(
            mode,
            transient_fit=mode.transient_fit * factor,
            permanent_fit=mode.permanent_fit * factor,
        )
        for mode in modes
    ]
