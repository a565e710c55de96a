"""Measure the table-driven kernels and the Row-Hammer hot path.

Times every hot-loop primitive (codec encode/decode, column parity, MAC)
and one end-to-end controller campaign (a fig6-style Row-Hammer victim
sweep: populate rows through the controller, inject flips, read
everything back) under both ``REPRO_KERNELS`` modes, and reports the
speedups. Two layer rows follow, on the default kernels:

- Row-Hammer activations: M ACT/s of ``AttackRunner.run`` per sweep
  mitigation over the four sweep attacks, at hammer-sweep's benchmark
  budget (10k ACTs per window, so every ACT is a REF boundary) and at the
  sweep default (120k);
- the correction search: lines/s of SafeGuard-SECDED and
  SafeGuard-Chipkill reads whose search runs to a DUE, and of reads the
  search's first candidate repairs.

``--baseline DIR`` measures the layer rows a second time against the
``src/`` tree of another checkout (say, the parent commit) in a
subprocess, and records both with the same-host ratios. The full run
writes ``BENCH_hotpath.json`` at the repository root so the numbers ship
with the code; it refuses to run on uncommitted changes, so the file's
commit hash names the measured code. ``--quick`` runs reduced iteration
counts and budgets and skips the file (the CI smoke mode).

Usage::

    PYTHONPATH=src python scripts/bench_hotpath.py [--quick] [--baseline DIR]

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


def _commit_hash(checkout: str) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=checkout,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _uncommitted_changes(checkout: str) -> list:
    """Tracked files changed since the last commit, bar the BENCH file."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=checkout,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return []
    paths = [line[3:] for line in out.stdout.splitlines()]
    return [path for path in paths if path != os.path.basename(OUT_PATH)]


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


# -- layer rows: Row-Hammer activations and the correction search -------------

#: Per-window budgets of the Row-Hammer rows: hammer-sweep's benchmark
#: budget (``budget // REFS_PER_WINDOW`` is 1, a REF after every ACT) and
#: the sweep default. ``--quick`` keeps one budget per REF regime.
RH_BUDGETS = (10_000, 120_000)
RH_BUDGETS_QUICK = (2_000, 16_384)
RH_SEED = 1


def run_rowhammer(budgets) -> dict:
    """M ACT/s per sweep mitigation, summed over the sweep attacks."""
    from repro.rowhammer import sweep
    from repro.rowhammer.model import DisturbanceModel, RowHammerConfig
    from repro.rowhammer.runner import AttackRunner

    results = {}
    for budget in budgets:
        config = sweep.SweepConfig(budget=budget)
        rows = {}
        for mitigation in sweep.DEFAULT_MITIGATIONS:
            acts, seconds = 0, 0.0
            for attack in sweep.DEFAULT_ATTACKS:
                model = DisturbanceModel(
                    RowHammerConfig(
                        rh_threshold=config.rh_threshold,
                        seed=RH_SEED,
                        weak_cells_per_row=config.weak_cells_per_row,
                        flips_per_crossing=config.flips_per_crossing,
                    )
                )
                runner = AttackRunner(
                    model, sweep.make_mitigation(mitigation, config, RH_SEED)
                )
                pattern = sweep.ATTACKS[attack](config.victim_row)
                start = time.perf_counter()
                result = runner.run(pattern, budget=budget)
                seconds += time.perf_counter() - start
                acts += result.activations
            rows[mitigation] = {
                "acts": acts,
                "seconds": round(seconds, 3),
                "mact_per_s": round(acts / seconds / 1e6, 4),
            }
            print(
                f"  budget {budget:>7d}  {mitigation:10s} "
                f"{acts / seconds / 1e6:7.3f} M ACT/s"
            )
        results[str(budget)] = rows
    return results


def _search_lines(controller, rng, n_lines: int, kind: str):
    """Write ``n_lines`` random lines and damage each for a ``kind`` search.

    ``due``: two flipped bits on different pins, beats and x4 chips, so no
    single pin or chip explains them and every candidate is checked.
    ``first``: two flipped bits on pin 0 (x4 chip 0) in beats 0 and 1,
    which the first candidate of every search repairs.
    """
    addresses = [64 * i for i in range(n_lines)]
    for address in addresses:
        controller.write(address, rng.getrandbits(512).to_bytes(64, "little"))
    for address in addresses:
        if kind == "first":
            mask = 1 | (1 << 64)
        else:
            first = rng.randrange(8)
            chip = rng.randrange(16)
            other = (chip + 1 + rng.randrange(15)) % 16
            mask = (1 << (64 * first + 4 * chip)) | (
                1 << (64 * ((first + 1) % 8) + 4 * other + 1)
            )
        controller.inject_data_bits(address, mask)
    return addresses


def run_correction_search(n_lines: int) -> dict:
    """Lines/s of reads whose correction search ends at a given candidate.

    Per scheme, ``due`` lines run the whole search to a DUE and ``first``
    lines are repaired by the first candidate. The ``first`` controllers
    never take the eager single-candidate path (SafeGuard-SECDED's
    ``column_eager_after`` is out of reach, SafeGuard-Chipkill's
    ``eager_correction`` is off), so every read runs the search.
    """
    from repro.core.config import SafeGuardConfig
    from repro.core.registry import create
    from repro.core.types import ReadStatus

    results = {}
    for scheme in ("safeguard-secded", "safeguard-chipkill"):
        results[scheme] = {}
        for kind in ("due", "first"):
            rng = random.Random(SEED)
            config = SafeGuardConfig(key=KEY)
            if kind == "first":
                config = SafeGuardConfig(
                    key=KEY, column_eager_after=n_lines + 1, eager_correction=False
                )
            controller = create(scheme, config)
            addresses = _search_lines(controller, rng, n_lines, kind)
            start = time.perf_counter()
            reads = controller.access_many(addresses)
            elapsed = time.perf_counter() - start
            if kind == "due":
                ended = all(result.due for result in reads)
            else:
                ended = all(
                    result.status
                    in (ReadStatus.CORRECTED_COLUMN, ReadStatus.CORRECTED_CHIP)
                    and result.corrected_location == 0
                    for result in reads
                )
            if not ended:
                raise RuntimeError(f"{scheme}: a {kind} line ended elsewhere")
            results[scheme][kind] = {
                "lines": n_lines,
                "seconds": round(elapsed, 3),
                "lines_per_s": round(n_lines / elapsed, 1),
            }
            print(f"  {scheme:28s} {kind:5s} {n_lines / elapsed:9.1f} lines/s")
    return results


def run_layers(quick: bool) -> dict:
    print("Row-Hammer activations (sweep attacks, per mitigation):")
    rowhammer = run_rowhammer(RH_BUDGETS_QUICK if quick else RH_BUDGETS)
    print("correction search (DUE and first-candidate lines, default kernels):")
    search = run_correction_search(64 if quick else 512)
    return {"rowhammer": rowhammer, "correction_search": search}


def run_baseline_layers(checkout: str, quick: bool) -> dict:
    """:func:`run_layers` against ``checkout``'s ``src/``, in a subprocess.

    The subprocess imports that tree's ``repro`` before this script, so
    every ``repro`` module the rows import comes from the baseline.
    """
    snippet = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])\n"
        "import repro\n"
        "import bench_hotpath\n"
        "layers = bench_hotpath.run_layers(sys.argv[3] == 'quick')\n"
        "print(json.dumps(layers))\n"
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            snippet,
            os.path.join(checkout, "src"),
            os.path.dirname(os.path.abspath(__file__)),
            "quick" if quick else "full",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    *progress, layers = out.stdout.strip().splitlines()
    print("\n".join(progress))
    return json.loads(layers)


def layer_ratios(change: dict, baseline: dict) -> dict:
    """Same-host speedups of the layer rows, change over baseline."""
    ratios = {"rowhammer": {}, "correction_search": {}}
    for budget, rows in change["rowhammer"].items():
        ratios["rowhammer"][budget] = {
            name: round(row["mact_per_s"] / baseline["rowhammer"][budget][name]["mact_per_s"], 2)
            for name, row in rows.items()
        }
    for scheme, rows in change["correction_search"].items():
        ratios["correction_search"][scheme] = {
            kind: round(
                row["lines_per_s"]
                / baseline["correction_search"][scheme][kind]["lines_per_s"],
                2,
            )
            for kind, row in rows.items()
        }
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced iteration counts; do not write BENCH_hotpath.json",
    )
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        help="also measure the layer rows with DIR/src (e.g. a checkout of "
        "the parent commit) and record both with their ratios",
    )
    args = parser.parse_args()
    if not args.quick:
        # The file names the measured code by its commit hash.
        changed = _uncommitted_changes(REPO_ROOT)
        if changed:
            parser.error(
                "commit before recording BENCH_hotpath.json; uncommitted: "
                + ", ".join(changed)
            )

    number, repeat = (200, 2) if args.quick else (2000, 3)
    rows, sweeps = (8, 1) if args.quick else (64, 3)

    print(f"kernel micro-benchmarks (number={number}, repeat={repeat}):")
    micro = run_micro(number, repeat)
    print(f"end-to-end victim-sweep campaigns (rows={rows}, sweeps={sweeps}):")
    end_to_end = run_end_to_end(rows, sweeps)
    layers = run_layers(args.quick)

    report = {
        "host": {"cpu_count": os.cpu_count(), "commit": _commit_hash(REPO_ROOT)},
        "config": {"number": number, "repeat": repeat, "rows": rows, "sweeps": sweeps},
        "micro": micro,
        "end_to_end": end_to_end,
        "layers": layers,
    }
    if args.baseline:
        print(f"baseline layer rows ({args.baseline}):")
        baseline = run_baseline_layers(args.baseline, args.quick)
        report["baseline"] = {
            "commit": _commit_hash(args.baseline),
            "layers": baseline,
        }
        report["layer_speedups"] = layer_ratios(layers, baseline)
        print("layer speedups:", json.dumps(report["layer_speedups"]))
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
