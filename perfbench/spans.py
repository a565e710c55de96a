"""In-memory spans around calls into each layer, and the per-layer metrics.

The benchmark records spans from its own files: :class:`Tracer` swaps a
timing wrapper in for a layer's public function (:func:`install_hooks`)
for the duration of one traced run and restores it afterwards. Spans live
in memory and are written out once, when the benchmark ends.

A span is ``{id, parent, run, name, start, end, attrs}``. ``run`` names
the campaign run it belongs to, ``parent`` the span that was open when it
started. A layer's self time is its span's duration minus what its child
spans and folded counters cover.

Per-line calls (the MAC) are too fine for a span each, so :meth:`Tracer.count`
folds their time and call count into the enclosing span instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

#: Layer of each span name, for self time and coverage.
LAYER_OF = {
    "rowhammer.run": "rowhammer",
    "core.write": "core",
    "core.read": "core",
    "perf.cell": "perf",
    "faultsim.draw": "faultsim",
    "faultsim.merge": "faultsim",
    "campaign.store_load": "campaign",
    "campaign.store_write": "campaign",
}

LAYERS = ("rowhammer", "core", "mac", "perf", "faultsim", "campaign")

MITIGATIONS = ("none", "para", "trr", "graphene")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "rowhammer.runs": "count",
    "rowhammer.run_s": "s",
    "rowhammer.acts": "count",
    "rowhammer.mitigation_refreshes": "count",
    "rowhammer.intended_flips": "count",
    **{f"rowhammer.mact_per_s.{m}": "Mact/s" for m in MITIGATIONS},
    "core.lines_written": "count",
    "core.write_s": "s",
    "core.lines_read": "count",
    "core.read_s": "s",
    "core.lines_per_s": "lines/s",
    "core.corrected": "count",
    "core.due": "count",
    "core.silent": "count",
    "mac.calls": "count",
    "mac.s": "s",
    "perf.cells": "count",
    "perf.cell_s": "s",
    "perf.cell_p50_ms": "ms",
    "perf.cell_max_ms": "ms",
    "perf.minstr_per_s": "Minstr/s",
    "faultsim.modules": "count",
    "faultsim.mmodules_per_s": "Mmodules/s",
    "faultsim.draw_s": "s",
    "faultsim.merge_s": "s",
    "faultsim.failure_records": "count",
    "campaign.store_loads": "count",
    "campaign.store_load_s": "s",
    "campaign.store_writes": "count",
    "campaign.store_write_s": "s",
    "campaign.store_bytes": "bytes",
    "campaign.items_computed": "count",
    "campaign.items_loaded": "count",
    "campaign.rejected_corrupt": "count",
    "campaign.rejected_stale": "count",
    "campaign.first_item_s": "s",
    "campaign.overhead_s": "s",
    "campaign.warm_cells_per_s": "1/s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.covered_frac": "fraction",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and folded counters, kept in memory."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._patches: List[tuple] = []
        self._in_counter = False
        self.run: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
            "folded_s": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def hook(
        self,
        owner,
        attr: str,
        name: str,
        describe: Optional[Callable[..., dict]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``describe(args, result)`` returns counts to attach to the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if describe is not None:
                record["attrs"].update(describe(args, result))
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Fold the time and calls of ``owner.attr`` into the open span.

        Calls made from inside another counted call are not counted again.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._in_counter or not self._stack:
                return original(*args, **kwargs)
            self._in_counter = True
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_counter = False
                record = self._stack[-1]
                attrs = record["attrs"]
                attrs[f"{name}.calls"] = attrs.get(f"{name}.calls", 0) + 1
                attrs[f"{name}.s"] = attrs.get(f"{name}.s", 0.0) + elapsed
                record["folded_s"] += elapsed

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unhook(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def install_hooks(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.campaign.store import ResultStore
    from repro.faultsim import parallel
    from repro.mac.linemac import LineMAC
    from repro.perf import campaign as perf_campaign
    from repro.rowhammer.integration import VictimArray
    from repro.rowhammer.runner import AttackRunner

    tracer.hook(
        AttackRunner,
        "run",
        "rowhammer.run",
        lambda args, result: {
            "mitigation": args[0].mitigation.name,
            "acts": result.activations,
            "refreshes": result.mitigation_refreshes,
            "intended_flips": result.intended_flips,
        },
    )
    tracer.hook(
        VictimArray,
        "populate_row",
        "core.write",
        lambda args, result: {"lines": args[0].lines_per_row},
    )
    tracer.hook(VictimArray, "apply_flips", "core.write")
    tracer.hook(
        VictimArray,
        "read_all",
        "core.read",
        lambda args, result: {
            "lines": result.lines_read,
            "corrected": result.corrected,
            "due": result.detected_ue,
            "silent": result.silent_corruptions,
        },
    )
    tracer.count(LineMAC, "compute", "mac")
    tracer.count(LineMAC, "compute_batch", "mac")
    tracer.hook(perf_campaign, "run_workload", "perf.cell")
    tracer.hook(
        parallel,
        "draw_fault_counts",
        "faultsim.draw",
        lambda args, result: {"modules": len(result)},
    )
    tracer.hook(
        parallel,
        "build_result",
        "faultsim.merge",
        lambda args, result: {"records": result.n_failed},
    )
    tracer.hook(
        ResultStore,
        "load",
        "campaign.store_load",
        lambda args, result: {"hit": result[1] is None},
    )
    tracer.hook(
        ResultStore,
        "store",
        "campaign.store_write",
        lambda args, result: {"bytes": os.path.getsize(args[0].path(args[1]))},
    )


class ProgressLog:
    """Progress callback that keeps each campaign call's snapshots."""

    def __init__(self):
        self.calls: List[List[object]] = []

    def __call__(self, snapshot) -> None:
        # Within one campaign call ``items_done`` only grows, so a snapshot
        # that does not exceed the previous one starts the next call.
        if not self.calls or snapshot.items_done <= self.calls[-1][-1].items_done:
            self.calls.append([])
        self.calls[-1].append(snapshot)

    def first_item_s(self) -> List[float]:
        """Per call: seconds from campaign start to the first computed item."""
        firsts = []
        for snaps in self.calls:
            for snap in snaps:
                if snap.items_done > snap.items_from_store:
                    firsts.append(snap.elapsed_s)
                    break
        return firsts

    def totals(self) -> Dict[str, int]:
        out = {"computed": 0, "loaded": 0, "corrupt": 0, "stale": 0}
        for snaps in self.calls:
            last = snaps[-1]
            out["computed"] += last.items_done - last.items_from_store
            out["loaded"] += last.items_from_store
            out["corrupt"] += last.rejected_corrupt
            out["stale"] += last.rejected_stale
        return out


def _self_time(span: dict, children: Dict[int, List[dict]]) -> float:
    covered = sum(c["end"] - c["start"] for c in children.get(span["id"], ()))
    return span["end"] - span["start"] - covered - span["folded_s"]


def layer_metrics(
    spans: List[dict],
    cold_run: str,
    warm_run: str,
    cold_wall: float,
    cold_progress: ProgressLog,
    warm_progress: ProgressLog,
    instructions_per_cell: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced cold run and its first warm rerun."""
    cold = [s for s in spans if s["run"] == cold_run]
    warm = [s for s in spans if s["run"] == warm_run]
    children: Dict[int, List[dict]] = {}
    for span in cold:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def named(name, pool=cold):
        return [s for s in pool if s["name"] == name]

    def total(pool_spans, attr=None):
        if attr is None:
            return sum(s["end"] - s["start"] for s in pool_spans)
        return sum(s["attrs"].get(attr, 0) for s in pool_spans)

    m: Dict[str, float] = {}

    runs = named("rowhammer.run")
    m["rowhammer.runs"] = len(runs)
    m["rowhammer.run_s"] = total(runs)
    m["rowhammer.acts"] = total(runs, "acts")
    m["rowhammer.mitigation_refreshes"] = total(runs, "refreshes")
    m["rowhammer.intended_flips"] = total(runs, "intended_flips")
    for mitigation in MITIGATIONS:
        mine = [s for s in runs if s["attrs"]["mitigation"] == mitigation]
        seconds = total(mine)
        m[f"rowhammer.mact_per_s.{mitigation}"] = (
            total(mine, "acts") / seconds / 1e6 if seconds else 0.0
        )

    writes, reads = named("core.write"), named("core.read")
    write_s, read_s = total(writes), total(reads)
    m["core.lines_written"] = total(writes, "lines")
    m["core.write_s"] = write_s
    m["core.lines_read"] = total(reads, "lines")
    m["core.read_s"] = read_s
    m["core.lines_per_s"] = (
        (m["core.lines_written"] + m["core.lines_read"]) / (write_s + read_s)
        if write_s + read_s
        else 0.0
    )
    m["core.corrected"] = total(reads, "corrected")
    m["core.due"] = total(reads, "due")
    m["core.silent"] = total(reads, "silent")
    m["mac.calls"] = sum(s["attrs"].get("mac.calls", 0) for s in cold)
    m["mac.s"] = sum(s["attrs"].get("mac.s", 0.0) for s in cold)

    cells = named("perf.cell")
    cell_ms = sorted((s["end"] - s["start"]) * 1e3 for s in cells)
    m["perf.cells"] = len(cells)
    m["perf.cell_s"] = total(cells)
    m["perf.cell_p50_ms"] = statistics.median(cell_ms) if cell_ms else 0.0
    m["perf.cell_max_ms"] = cell_ms[-1] if cell_ms else 0.0
    m["perf.minstr_per_s"] = (
        len(cells) * instructions_per_cell / m["perf.cell_s"] / 1e6
        if m["perf.cell_s"]
        else 0.0
    )

    draws, merges = named("faultsim.draw"), named("faultsim.merge")
    m["faultsim.modules"] = total(draws, "modules")
    m["faultsim.draw_s"] = total(draws)
    m["faultsim.merge_s"] = total(merges)
    m["faultsim.failure_records"] = total(merges, "records")
    m["faultsim.mmodules_per_s"] = (
        m["faultsim.modules"] / cold_wall / 1e6 if m["faultsim.modules"] else 0.0
    )

    loads = [s for s in named("campaign.store_load", warm) if s["attrs"].get("hit")]
    stores = named("campaign.store_write")
    m["campaign.store_loads"] = len(loads)
    m["campaign.store_load_s"] = total(loads)
    m["campaign.store_writes"] = len(stores)
    m["campaign.store_write_s"] = total(stores)
    m["campaign.store_bytes"] = total(stores, "bytes")
    cold_totals, warm_totals = cold_progress.totals(), warm_progress.totals()
    m["campaign.items_computed"] = cold_totals["computed"]
    m["campaign.items_loaded"] = warm_totals["loaded"]
    m["campaign.rejected_corrupt"] = cold_totals["corrupt"] + warm_totals["corrupt"]
    m["campaign.rejected_stale"] = cold_totals["stale"] + warm_totals["stale"]
    firsts = cold_progress.first_item_s()
    m["campaign.first_item_s"] = statistics.median(firsts) if firsts else 0.0

    self_s = {layer: 0.0 for layer in LAYERS}
    for span in cold:
        layer = LAYER_OF.get(span["name"])
        if layer is not None:
            self_s[layer] += _self_time(span, children)
    self_s["mac"] = m["mac.s"]
    covered = sum(self_s.values())
    m["campaign.overhead_s"] = cold_wall - covered
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_s[layer]
    m["trace.covered_frac"] = covered / cold_wall
    m["trace.spans"] = len(cold) + len(warm)
    return m
