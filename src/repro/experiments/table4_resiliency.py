"""Table IV: resiliency of SECDED vs. SafeGuard per DRAM fault mode.

Directed fault injection at the data-path level: for every Table III
fault mode, inject its per-line footprint into the stored bits of the
conventional SECDED controller and both SafeGuard SECDED variants, read
back, and score detection (no silent corruption) and correction (returned
data equals golden). The resulting check/cross matrix is Table IV,
produced by the real codecs rather than assumed.

Fault footprints within one 64-byte line (x8 DIMM view):

- *bit*: one random data bit;
- *column*: one pin's vertical 8-bit symbol (Figure 4); with probability
  1/9 the failing pin belongs to the ECC chip (metadata corruption);
- *word*: one chip's 8-bit contribution to one beat;
- *row/bank/multibank*: one chip's full 64-bit contribution (at a single
  line these three have the same footprint — they differ in how many
  lines they hit, which the FaultSim evaluation covers);
- *multirank*: same footprint as row at each affected line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import registry
from repro.ecc.parity import spread_beats
from repro.experiments.reporting import format_table, print_banner
from repro.utils.rng import make_rng


@dataclass
class ModeScore:
    mode: str
    scheme: str
    trials: int = 0
    corrected: int = 0
    detected: int = 0  #: DUE or corrected — never silent
    silent: int = 0

    @property
    def detect_mark(self) -> str:
        if self.silent == 0:
            return "yes"
        if self.detected > 0:
            return "partial"
        return "no"

    @property
    def correct_mark(self) -> str:
        if self.corrected == self.trials:
            return "yes"
        if self.corrected > 0:
            return "partial"
        return "no"


def _chip_word_mask(chip: int, beat: int) -> int:
    return 0xFF << (beat * 64 + chip * 8)


def _chip_full_mask(chip: int) -> int:
    mask = 0
    for beat in range(8):
        mask |= 0xFF << (beat * 64 + chip * 8)
    return mask


def _inject(controller, address: int, mode: str, rng: random.Random) -> None:
    if mode == "bit":
        controller.inject_data_bits(address, 1 << rng.randrange(512))
    elif mode == "column":
        pin = rng.randrange(72)  # 8 data chips + 1 ECC chip = 72 pins
        # A column fault's signature is multi-bit vertical damage; a
        # single-bit manifestation is indistinguishable from a bit fault.
        symbol = rng.randrange(1, 256)
        while bin(symbol).count("1") < 2:
            symbol = rng.randrange(1, 256)
        if pin < 64:
            controller.inject_data_bits(address, spread_beats(symbol, 1) << pin)
        else:
            meta_mask = 0
            for beat in range(8):
                if (symbol >> beat) & 1:
                    meta_mask |= 1 << (beat * 8 + (pin - 64))
            controller.inject_meta_bits(address, meta_mask)
    elif mode == "word":
        controller.inject_data_bits(
            address, _chip_word_mask(rng.randrange(8), rng.randrange(8))
        )
    elif mode in ("row", "bank", "multibank", "multirank"):
        controller.inject_data_bits(address, _chip_full_mask(rng.randrange(8)))
    else:
        raise ValueError(f"unknown mode {mode}")


MODES = ["bit", "column", "word", "row", "bank", "multibank", "multirank"]


#: Table label -> registry scheme name. The labels are the paper's column
#: headings; the controllers come from the scheme registry.
SCHEMES: "List[Tuple[str, str]]" = [
    ("SECDED", "secded"),
    ("SafeGuard", "safeguard-secded"),
    ("SafeGuard (no parity)", "safeguard-secded-noparity"),
]


def run(trials: int = 60, seed: int = 11) -> List[ModeScore]:
    key = b"table4-demo-key!"
    schemes: List[Tuple[str, Callable[[], object]]] = [
        (label, lambda name=name: registry.create(name, key=key))
        for label, name in SCHEMES
    ]
    rng = make_rng(seed)
    scores: List[ModeScore] = []
    for mode in MODES:
        for scheme_name, factory in schemes:
            score = ModeScore(mode=mode, scheme=scheme_name)
            for t in range(trials):
                controller = factory()
                golden = bytes(rng.getrandbits(8) for _ in range(64))
                address = 64 * (t + 1)
                controller.write(address, golden)
                _inject(controller, address, mode, rng)
                result = controller.read(address)
                score.trials += 1
                if result.ok and result.data == golden:
                    score.corrected += 1
                    score.detected += 1
                elif result.due:
                    score.detected += 1
                elif result.data == golden:
                    score.detected += 1  # fault happened to be masked
                else:
                    score.silent += 1
            scores.append(score)
    return scores


def report(scores: Optional[List[ModeScore]] = None) -> str:
    scores = scores or run()
    print_banner("Table IV: resiliency of SECDED vs. SafeGuard (measured)")
    by_mode: Dict[str, Dict[str, ModeScore]] = {}
    for s in scores:
        by_mode.setdefault(s.mode, {})[s.scheme] = s
    rows = []
    for mode, entry in by_mode.items():
        secded = entry["SECDED"]
        safeguard = entry["SafeGuard"]
        rows.append(
            (
                mode,
                secded.detect_mark,
                secded.correct_mark,
                safeguard.detect_mark,
                safeguard.correct_mark,
            )
        )
    table = format_table(
        [
            "Failure mode",
            "SECDED detect",
            "SECDED correct",
            "SafeGuard detect",
            "SafeGuard correct",
        ],
        rows,
    )
    print(table)
    return table
