"""Measure the table-driven kernels against the reference implementations.

Times every hot-loop primitive (codec encode/decode, column parity, MAC)
and one end-to-end controller campaign (a fig6-style Row-Hammer victim
sweep: populate rows through the controller, inject flips, read
everything back) under both ``REPRO_KERNELS`` modes, and reports the
speedups. The full run writes ``BENCH_hotpath.json`` at the repository
root so the numbers ship with the code; ``--quick`` runs a reduced
iteration count and skips the file (the CI smoke mode).

Usage::

    PYTHONPATH=src python scripts/bench_hotpath.py [--quick]

Kernel mode is forced per measurement via ``KERNELS.forced`` — each
codec/MAC instance is constructed inside the context so it captures the
intended mode.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.switches import KERNELS  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath.json")

KEY = b"bench-key-123456"
SEED = 0xB0B0


def _commit_hash() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _ops_per_second(fn, number: int, repeat: int) -> float:
    """Best-of-``repeat`` throughput of ``number`` back-to-back calls."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return number / best


# -- micro-benchmark builders ---------------------------------------------------
#
# Each builder runs under an already-forced kernel mode and returns a
# zero-argument callable performing one operation (or one small batch, for
# the *_batch entries — their unit is still "one call").


def _build_mac_compute(rng):
    from repro.mac.linemac import LineMAC

    mac = LineMAC(KEY, 46)
    line = rng.getrandbits(512).to_bytes(64, "little")
    return lambda: mac.compute(line, 0x4000)


def _build_mac_compute_batch_256(rng):
    from repro.mac.linemac import LineMAC

    mac = LineMAC(KEY, 46)
    lines = [rng.getrandbits(512).to_bytes(64, "little") for _ in range(256)]
    addresses = [64 * i for i in range(256)]
    return lambda: mac.compute_batch(lines, addresses)


def _build_ecc1_encode(rng):
    from repro.ecc.secded import LineECC1

    code = LineECC1(566)
    payload = rng.getrandbits(566)
    return lambda: code.encode(payload)


def _build_ecc1_correct_clean(rng):
    from repro.ecc.secded import LineECC1

    code = LineECC1(566)
    payload = rng.getrandbits(566)
    checks = code.encode(payload)
    return lambda: code.correct(payload, checks)


def _build_word_secded_encode(rng):
    from repro.ecc.secded import WordSECDEDLine

    code = WordSECDEDLine()
    line = rng.getrandbits(512)
    return lambda: code.encode(line)


def _build_word_secded_decode_clean(rng):
    from repro.ecc.secded import WordSECDEDLine

    code = WordSECDEDLine()
    line = rng.getrandbits(512)
    _, ecc = code.encode(line)
    return lambda: code.decode(line, ecc)


def _build_chipkill_encode(rng):
    from repro.ecc.chipkill import ChipkillCode

    code = ChipkillCode()
    line = rng.getrandbits(512)
    return lambda: code.encode(line)


def _build_chipkill_decode_clean(rng):
    from repro.ecc.chipkill import ChipkillCode

    code = ChipkillCode()
    line = rng.getrandbits(512)
    _, checks = code.encode(line)
    return lambda: code.decode(line, checks)


def _build_column_parity(rng):
    from repro.ecc.parity import column_parity

    line = rng.getrandbits(512)
    return lambda: column_parity(line)


def _build_speck_encrypt_block(rng):
    from repro.mac.speck import Speck64

    cipher = Speck64(KEY)
    block = rng.getrandbits(64)
    return lambda: cipher.encrypt_block(block)


MICRO_BENCHMARKS = [
    ("mac_compute", _build_mac_compute),
    ("mac_compute_batch_256", _build_mac_compute_batch_256),
    ("ecc1_encode", _build_ecc1_encode),
    ("ecc1_correct_clean", _build_ecc1_correct_clean),
    ("word_secded_encode", _build_word_secded_encode),
    ("word_secded_decode_clean", _build_word_secded_decode_clean),
    ("chipkill_encode", _build_chipkill_encode),
    ("chipkill_decode_clean", _build_chipkill_decode_clean),
    ("column_parity", _build_column_parity),
    ("speck_encrypt_block", _build_speck_encrypt_block),
]

#: Batch entries do far more work per call; scale their loop count down.
_BATCH_NUMBER_SCALE = {"mac_compute_batch_256": 32}


def run_micro(number: int, repeat: int) -> dict:
    results = {}
    for name, builder in MICRO_BENCHMARKS:
        n = max(1, number // _BATCH_NUMBER_SCALE.get(name, 1))
        per_mode = {}
        for mode in ("fast", "reference"):
            with KERNELS.forced(mode):
                fn = builder(random.Random(SEED))
                per_mode[mode] = _ops_per_second(fn, n, repeat)
        speedup = per_mode["fast"] / per_mode["reference"]
        results[name] = {
            "fast_ops_per_s": round(per_mode["fast"], 1),
            "reference_ops_per_s": round(per_mode["reference"], 1),
            "speedup": round(speedup, 2),
        }
        print(
            f"  {name:28s} fast {per_mode['fast']:>12.0f} op/s   "
            f"reference {per_mode['reference']:>12.0f} op/s   "
            f"{speedup:5.1f}x"
        )
    return results


# -- end-to-end campaign ---------------------------------------------------------


def _run_campaign(scheme: str, rows: int, sweeps: int) -> float:
    """One fig6-style victim sweep; returns wall-clock seconds.

    Populates ``rows`` DRAM rows through the controller, injects a
    Row-Hammer-like flip pattern into a quarter of the rows (mostly
    single-bit, some multi-bit lines), then reads every line back
    ``sweeps`` times via the controller's batch path — the same
    populate/inject/read_all structure the reliability campaigns use.
    """
    from repro.core.registry import create
    from repro.rowhammer.integration import VictimArray

    rng = random.Random(SEED)
    controller = create(scheme, key=KEY)
    array = VictimArray(controller, bits_per_row=8192)  # 16 lines per row
    start = time.perf_counter()
    for row in range(rows):
        array.populate_row(row)
    flips = {}
    for row in range(0, rows, 4):
        bits = [rng.randrange(8192) for _ in range(3)]
        # One line gets a burst of flips (the uncorrectable regime).
        base = rng.randrange(16) * 512
        bits += [base + rng.randrange(512) for _ in range(4)]
        flips[row] = bits
    array.apply_flips(flips)
    for _ in range(sweeps):
        array.read_all()
    return time.perf_counter() - start


def run_end_to_end(rows: int, sweeps: int) -> dict:
    results = {}
    for scheme in ("safeguard-secded", "safeguard-chipkill"):
        per_mode = {}
        for mode in ("fast", "reference"):
            with KERNELS.forced(mode):
                per_mode[mode] = _run_campaign(scheme, rows, sweeps)
        speedup = per_mode["reference"] / per_mode["fast"]
        results[scheme] = {
            "rows": rows,
            "lines_per_row": 16,
            "sweeps": sweeps,
            "fast_seconds": round(per_mode["fast"], 3),
            "reference_seconds": round(per_mode["reference"], 3),
            "speedup": round(speedup, 2),
        }
        print(
            f"  {scheme:28s} fast {per_mode['fast']:7.3f}s   "
            f"reference {per_mode['reference']:7.3f}s   {speedup:5.1f}x"
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced iteration counts; do not write BENCH_hotpath.json",
    )
    args = parser.parse_args()

    number, repeat = (200, 2) if args.quick else (2000, 3)
    rows, sweeps = (8, 1) if args.quick else (64, 3)

    print(f"kernel micro-benchmarks (number={number}, repeat={repeat}):")
    micro = run_micro(number, repeat)
    print(f"end-to-end victim-sweep campaigns (rows={rows}, sweeps={sweeps}):")
    end_to_end = run_end_to_end(rows, sweeps)

    report = {
        "host": {"cpu_count": os.cpu_count(), "commit": _commit_hash()},
        "config": {"number": number, "repeat": repeat, "rows": rows, "sweeps": sweeps},
        "micro": micro,
        "end_to_end": end_to_end,
    }
    if args.quick:
        print("--quick: skipping BENCH_hotpath.json")
        return 0
    with open(OUT_PATH, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
