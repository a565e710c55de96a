"""Vectorized perf-model fast path (the ``REPRO_PERF`` switch).

The reference engine (:class:`repro.cpu.system.System`) interprets every
cache-visible memory operation through a chain of Python method calls:
trace generator -> core timing -> L1 -> prefetcher -> LLC -> memory
controller, with a heap tick per op. That interpreter overhead dominates
paper-scale perf campaigns. This module is the HammerSim observation
turned into an engine — system-level modeling only becomes useful at
speeds that permit real workload sweeps — built as three passes:

1. **Trace synthesis** (vectorized): gaps, op kinds, and addresses are
   batch-drawn with the counter-based splitmix64 streams from
   :mod:`repro.utils.rng` (the PR-4 technique), then assembled with
   numpy. LLC steady-state priming is computed in closed form: the final
   content of an LRU set after a fill sequence is exactly the last
   ``ways`` distinct lines by last fill position, which one
   ``np.unique``/``np.lexsort`` pass produces without simulating fills.

2. **Content pass** (shared): all cores' ops are merged in deterministic
   virtual-time order (instruction count, ties by core id — in rate mode
   every core runs at the same base CPI, so this is the reference
   interleave up to timing jitter) and the exact L1 / LLC /
   stream-prefetcher bookkeeping is replayed over them, recording per
   op its hit level plus the ordered list of controller-facing actions
   (demand read, victim writeback, prefetch reads, prefetch-victim and
   inclusion-violation writebacks). Because organizations differ only in
   *timing* (MAC tail, extra metadata accesses), never in which lines are
   touched, this pass is organization-independent: it is memoized and
   shared across every organization of a campaign grid. The replay runs
   as per-set numpy LRU kernels over a same-line-run-collapsed stream
   (:func:`_batched_replay`). A vectorized residency check detects an
   inclusion back-invalidation, the one cross-set interaction; the pass
   then takes the exact one-op-at-a-time replay (:func:`_scalar_replay`)
   instead.

3. **Timing pass** (sparse, per organization): only ops with controller
   actions (a few percent) are walked event-wise over a precomputed
   structured event table; between events a core's clock advances by
   closed-form prefix sums, and ROB-window stalls from outstanding DRAM
   loads are resolved per entry at its precomputed window-crossing op.
   DRAM requests run on :class:`~repro.dram.controller.MemoryController`,
   the same controller the reference engine uses; the rare paths —
   watermark drain episodes, full-queue backpressure, refresh,
   tRRD/tFAW pacing, metadata MSHR coalescing and write merging,
   inclusion-violation writebacks — keep their exact semantics rather
   than being approximated away.

Fast and reference engines are *statistically equivalent*, not
bit-identical: batching replaces the per-core Mersenne-Twister streams
with counter-based splitmix64 draws and fixes the core interleave at
virtual-time order, so individual cycle counts differ like a trace-seed
change while all distributions (slowdowns, hit rates, latencies) match —
the equivalence suite in ``tests/test_perf_fastpath.py`` pins this with
the KS/Wilson discipline of PR 4. Each engine is individually
deterministic and pinned by its own golden corpus values, and the
campaign fingerprint records the engine so cached cells never cross
modes.

Mode resolution: ``PerfConfig.engine`` > the ``perf`` row of
:mod:`repro.switches` (``REPRO_PERF``) > ``"reference"`` (the default).

The batched replay and the event-table tick are evaluation-order
rewrites, not model changes: ``tests/test_perf_batched.py`` pins the
batched replay to :func:`_scalar_replay` and the tick to the original
per-event heap walk, which lives on only as a test oracle
(``tests/perf_oracle.py``).
"""

from __future__ import annotations

import heapq
from array import array
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import CoreConfig
from repro.cpu.system import SystemResult
from repro.cpu.trace import TraceGenerator
from repro.cpu.workloads import WorkloadProfile
from repro.dram.controller import MemoryController
from repro.dram.timing import CPU_CYCLES_PER_MEM_CYCLE
from repro.utils.rng import child_seeds, derive_seed, unit_uniforms

#: Generation counter for the fast engine's replay/timing kernels,
#: pinned into every perf-campaign cell fingerprint. Kernel rewrites
#: stay bit-identical to the scalar fast pass (the batched/scalar A/B
#: suites enforce it), but a rewrite is exactly when a latent bug could
#: slip in — bumping this invalidates cached cells so they are
#: recomputed by the new code instead of trusted blindly. Revision 1:
#: the per-set batched LLC/L1 kernels and the structured-array timing
#: tick.
KERNEL_REVISION = 1

#: Salt of the fast engine's counter-based draw streams (disjoint from
#: the reference trace streams 0x7ACE / 0x5EED by derive_seed mixing).
FAST_STREAM_SALT = 0x9EAF


def supports(prof: WorkloadProfile, core_config: Optional[CoreConfig] = None) -> bool:
    """Whether the fast engine's timing decomposition applies.

    The sparse timing pass skips ROB entries for L1/LLC-hit loads, which
    is exact only when such an entry always completes before its window
    crossing: ``const_latency + base_cpi <= rob_entries * base_cpi``
    (every instruction advances the clock by at least ``base_cpi``).
    True for every Table II configuration; a hypothetical near-zero-CPI
    profile falls back to the reference engine.
    """
    config = core_config or CoreConfig(base_cpi=prof.base_cpi)
    const_max = CacheHierarchy.L1_HIT_CYCLES + CacheHierarchy.LLC_HIT_CYCLES
    return config.base_cpi * (config.rob_entries - 1) > const_max


# Cache geometry, mirroring CacheHierarchy's defaults (32KB/4-way L1 per
# core, 4MB/16-way shared LLC, 64B lines). Module-level (read at call
# time, not captured) so the batched-vs-scalar equivalence tests can
# shrink the caches until inclusion back-invalidations actually occur
# and pin the scalar-fallback path.
_L1_WAYS = 4
_L1_SET_BITS = 7  # 128 sets per core
_LLC_WAYS = 16
_LLC_SETS = 4096


# -- pass 1: vectorized trace synthesis ------------------------------------------

#: Draw-stream tags (second derive_seed salt under the per-core base).
_S_GAP, _S_WRITE, _S_REGION, _S_WARM, _S_RANDOM, _S_SER = 0, 1, 2, 3, 4, 5
_S_STEADY, _S_DIRTY = 6, 7

#: Controller-facing action codes recorded by the content pass, in the
#: reference engine's issue order within one access.
A_DEMAND_READ = 0  #: demand line fetch (on the load's critical path)
A_VICTIM_WRITE = 1  #: LLC-victim writeback (its backpressure stalls the miss)
A_INCL_WRITE = 2  #: inclusion-violation writeback (stall ignored)
A_PF_READ = 3  #: prefetch fetch (latency off the critical path)
A_PF_VICTIM_WRITE = 4  #: prefetch-victim writeback (stall ignored)

#: Hit-level codes per op.
OUT_L1, OUT_LLC, OUT_DRAM = 0, 1, 2


def _draws(base: int, stream: int, lo: int, n: int) -> np.ndarray:
    """``n`` 64-bit draws from counter stream ``(base, stream)`` at ``lo``."""
    state = np.uint64(derive_seed(base, stream))
    return child_seeds(state, np.arange(lo, lo + n, dtype=np.uint64))


@dataclass
class _CoreTrace:
    """One core's full synthesized op stream (arrays over ops)."""

    gap: np.ndarray  #: int64, non-memory instructions before the op
    is_write: np.ndarray  #: bool
    line: np.ndarray  #: int64 line address
    serializing: np.ndarray  #: bool (dependent-load stall)
    instr_cum: np.ndarray  #: int64, instructions retired after the op


def _synthesize_trace(
    prof: WorkloadProfile, core: int, seed: int, total_instructions: int
) -> Optional[_CoreTrace]:
    """Counter-based equivalent of :meth:`TraceGenerator.ops`.

    Same gap distribution (truncated exponential of the same mean), the
    same warm/stream/random mixture, the same address construction per
    region — drawn from splitmix64 counter streams instead of the
    sequential Mersenne-Twister, so every value is a pure function of
    ``(seed, core, op index)``. Returns ``None`` for an all-L1 profile
    (no cache-visible ops), matching the reference generator.
    """
    visible = prof.mem_ratio * (1.0 - prof.hot_fraction)
    if visible <= 0 or total_instructions <= 0:
        return None
    mean_gap = (1.0 - visible) / visible
    mean = mean_gap + 1e-9  # reference: 1 / _gap_rate
    base = derive_seed(seed, FAST_STREAM_SALT, core)

    parts: List[np.ndarray] = []
    covered = 0  # instructions consumed: sum of (gap + 1)
    lo = 0
    while covered < total_instructions:
        need = total_instructions - covered
        n_est = int(need / (mean_gap + 1.0) * 1.05) + 64
        u = unit_uniforms(_draws(base, _S_GAP, lo, n_est))
        g = np.floor(-np.log1p(-u) * mean).astype(np.int64)
        lo += n_est
        parts.append(g)
        covered += int(g.sum()) + n_est
    gap = parts[0] if len(parts) == 1 else np.concatenate(parts)
    csum = np.cumsum(gap + 1)
    n_ops = int(np.searchsorted(csum, total_instructions, side="left")) + 1
    gap = gap[:n_ops].copy()
    consumed_before = int(csum[n_ops - 2]) if n_ops > 1 else 0
    # Only the final op can exceed the quota (any earlier overshoot would
    # itself have been the cut); clamp it like the reference min().
    gap[-1] = min(int(gap[-1]), total_instructions - consumed_before)
    instr_cum = np.cumsum(gap + 1)

    is_write = unit_uniforms(_draws(base, _S_WRITE, 0, n_ops)) < prof.store_fraction
    mix_total = prof.warm_fraction + prof.stream_fraction + prof.random_fraction
    p_warm = prof.warm_fraction / mix_total if mix_total else 0.0
    p_stream = prof.stream_fraction / mix_total if mix_total else 0.0
    region = unit_uniforms(_draws(base, _S_REGION, 0, n_ops))
    warm_sel = region < p_warm
    stream_sel = (~warm_sel) & (region < p_warm + p_stream)
    rand_sel = ~(warm_sel | stream_sel)

    base_line = core << 28  # (core * 2**34) // 64
    footprint = int(prof.footprint_mb * 1024 * 1024)
    line = np.empty(n_ops, dtype=np.int64)
    if warm_sel.any():
        draw = _draws(base, _S_WARM, 0, n_ops)[warm_sel]
        offset = (draw % np.uint64(TraceGenerator.WARM_BYTES)).astype(np.int64) & ~63
        line[warm_sel] = base_line + (offset >> 6)
    if stream_sel.any():
        # k-th stream op walks to byte position (8 * k) % footprint.
        k = np.cumsum(stream_sel)[stream_sel]
        offset = (1 << 30) + (8 * k) % footprint
        line[stream_sel] = base_line + (offset >> 6)
    if rand_sel.any():
        draw = _draws(base, _S_RANDOM, 0, n_ops)[rand_sel]
        offset = (1 << 31) + ((draw % np.uint64(footprint)).astype(np.int64) & ~63)
        line[rand_sel] = base_line + (offset >> 6)

    ser_draw = unit_uniforms(_draws(base, _S_SER, 0, n_ops))
    serializing = rand_sel & (~is_write) & (ser_draw < prof.serializing_fraction)
    return _CoreTrace(gap, is_write, line, serializing, instr_cum)


def _priming_fills(
    prof: WorkloadProfile, n_cores: int, seed: int, llc_lines: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The LLC priming fill sequence (lines, dirty flags), in fill order.

    Mirrors :meth:`System.run`'s warm-up: per-core steady-state random
    footprint lines (dirty with probability ``min(1, 2 * store_fraction)``)
    followed by per-core warm regions (clean, MRU), with counter-based
    draws in place of the reference RNGs.
    """
    per_core = int(llc_lines * 0.85) // n_cores
    footprint = int(prof.footprint_mb * 1024 * 1024)
    dirty_probability = min(1.0, prof.store_fraction * 2.0)
    warm_lines = TraceGenerator.WARM_BYTES // 64
    lines: List[np.ndarray] = []
    dirty: List[np.ndarray] = []
    for core in range(n_cores):
        base = derive_seed(seed, FAST_STREAM_SALT, core)
        draw = _draws(base, _S_STEADY, 0, per_core)
        offset = (1 << 31) + ((draw % np.uint64(footprint)).astype(np.int64) & ~63)
        lines.append((core << 28) + (offset >> 6))
        d = unit_uniforms(_draws(base, _S_DIRTY, 0, per_core)) < dirty_probability
        dirty.append(d)
    for core in range(n_cores):
        lines.append((core << 28) + np.arange(warm_lines, dtype=np.int64))
        dirty.append(np.zeros(warm_lines, dtype=bool))
    return np.concatenate(lines), np.concatenate(dirty)


def _priming_groups(lines: np.ndarray, dirty: np.ndarray, n_sets: int):
    """Closed-form LRU grouping shared by both initial-state builders.

    An LRU set after a sequence of fills holds exactly the last ``ways``
    distinct lines by *last* fill position, ordered LRU -> MRU by that
    position; one unique/lexsort pass builds all sets at once. A line's
    dirty flag is the OR over its fills — exact unless a dirty line is
    evicted and later re-filled clean inside the sequence, which for the
    sparse random priming draws is a negligible-probability event.

    Returns ``(set_sorted, uniq_sorted, dirty_sorted, starts, ends)``:
    surviving lines grouped by set index, LRU -> MRU within each group
    ``[start:end)`` (not yet truncated to ``ways``).
    """
    # Group fills by line with one stable sort (positions stay ascending
    # within a group): the group's last element gives the line's final
    # fill position, reduceat ORs its dirty flags.
    by_line = np.argsort(lines, kind="stable")
    sorted_lines = lines[by_line]
    group_end = np.empty(len(lines), dtype=bool)
    group_end[:-1] = sorted_lines[:-1] != sorted_lines[1:]
    group_end[-1] = True
    ends_at = np.flatnonzero(group_end)
    group_starts = np.concatenate(([0], ends_at[:-1] + 1))
    uniq = sorted_lines[ends_at]
    last = by_line[ends_at]
    dirty_u = np.logical_or.reduceat(dirty[by_line], group_starts)
    if n_sets & (n_sets - 1) == 0:
        set_of = uniq & (n_sets - 1)
    else:
        set_of = (uniq % n_sets).astype(np.int64)
    # lexsort((last, set_of)) as one radix pass over a packed key: the
    # final fill positions are distinct, so set_of * len(lines) + last
    # sorts by set with last-fill order inside each set.
    order = np.argsort(set_of * np.int64(len(lines)) + last, kind="stable")
    set_sorted = set_of[order]
    uniq_sorted = uniq[order]
    dirty_sorted = dirty_u[order]
    cut = np.flatnonzero(np.diff(set_sorted)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [len(set_sorted)]))
    return set_sorted, uniq_sorted, dirty_sorted, starts, ends


def _initial_llc_sets(
    lines: np.ndarray, dirty: np.ndarray, n_sets: int, ways: int
) -> List[dict]:
    """Initial LLC state for the scalar replay: per-set LRU dicts."""
    if len(lines) == 0:
        return [{} for _ in range(n_sets)]
    set_sorted, uniq_sorted, dirty_sorted, starts, ends = _priming_groups(
        lines, dirty, n_sets
    )
    set_l = set_sorted.tolist()
    uniq_l = uniq_sorted.tolist()
    dirty_l = dirty_sorted.tolist()
    llc_sets: List[dict] = [{} for _ in range(n_sets)]
    for start, end in zip(starts.tolist(), ends.tolist()):
        start = max(start, end - ways)
        llc_sets[set_l[start]] = dict(
            zip(uniq_l[start:end], dirty_l[start:end])
        )
    return llc_sets


def _initial_llc_arrays(
    lines: np.ndarray, dirty: np.ndarray, n_sets: int, ways: int
) -> np.ndarray:
    """:func:`_initial_llc_sets` as a padded matrix for the batched kernel.

    ``tags[s]`` holds set ``s``'s resident lines right-aligned at the
    high columns in LRU -> MRU order, packed as ``(line << 1) | dirty``
    with ``-1`` padding empty ways on the LRU side. The kernel's
    shift-left insert then always drops column 0 — either the true LRU
    line or a pad (matching the scalar fill into a non-full set, which
    evicts nothing).
    """
    tags = np.full((n_sets, ways), -1, dtype=np.int64)
    if len(lines) == 0:
        return tags
    set_sorted, uniq_sorted, dirty_sorted, starts, ends = _priming_groups(
        lines, dirty, n_sets
    )
    starts = np.maximum(starts, ends - ways)
    lens = ends - starts
    total = int(lens.sum())
    within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    idx = np.repeat(starts, lens) + within
    rows = np.repeat(set_sorted[starts], lens)
    cols = ways - np.repeat(lens, lens) + within
    tags[rows, cols] = (uniq_sorted[idx] << 1) | dirty_sorted[idx]
    return tags


# -- pass 2: the shared content pass ---------------------------------------------

#: Counters the batched-kernel tests read: how many content passes ran
#: fully batched vs fell back to the exact scalar replay.
_BATCH_STATS = {"batched": 0, "fallbacks": 0}

#: Small permutation tables for the LRU-refresh move, per way count:
#: ``_perm_table(w)[h]`` reorders a set's ways so the hit way ``h``
#: lands at the MRU column while the others keep their relative order.
_PERM_TABLES: Dict[int, np.ndarray] = {}


def _perm_table(ways: int) -> np.ndarray:
    table = _PERM_TABLES.get(ways)
    if table is None:
        table = np.empty((ways, ways), dtype=np.int64)
        for h in range(ways):
            table[h] = [w for w in range(ways) if w != h] + [h]
        _PERM_TABLES[ways] = table
    return table


def _lru_steps(set_ids: np.ndarray):
    """Regroup a probe stream by set for the step-loop kernels.

    Returns ``(order, starts_desc, counts_desc)``: a stable sort by set
    index plus each set's group start/length, ordered by descending
    group length so that at step ``t`` the sets still active form a
    prefix — the kernel then advances every active set by one probe per
    step with full-width array operations.
    """
    order = np.argsort(set_ids, kind="stable")
    s_sorted = set_ids[order]
    first = np.empty(len(s_sorted), dtype=bool)
    first[0] = True
    first[1:] = s_sorted[1:] != s_sorted[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(s_sorted)))
    desc = np.argsort(-counts, kind="stable")
    return order, starts[desc], counts[desc]


def _l1_kernel(
    set_ids: np.ndarray, line: np.ndarray, write: np.ndarray, ways: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay every (core, L1-set) LRU recurrence as an array kernel.

    Exact per-position outputs of the scalar L1 bookkeeping — sets never
    interact (inclusion back-invalidations are detected downstream and
    trigger the scalar fallback), so each step advances all still-active
    sets at once: tag compare by broadcasting against the ``(sets,
    ways)`` tag matrix, LRU refresh as a per-row permutation, miss
    insert as a shift-left. The dirty flag rides in tag bit 0
    (``(line << 1) | dirty``) so the recurrence maintains one matrix
    instead of a tag/dirty pair; ``-1`` pads empty ways and can never
    compare equal because probes are matched with bit 0 forced set.
    Returns ``(hit, victim_line, victim_dirty)`` per probe;
    ``victim_line`` is ``-1`` when the fill evicted nothing.
    """
    m = len(line)
    hit = np.zeros(m, dtype=bool)
    victim_line = np.full(m, -1, dtype=np.int64)
    victim_dirty = np.zeros(m, dtype=bool)
    if m == 0:
        return hit, victim_line, victim_dirty
    order, starts_d, counts_d = _lru_steps(set_ids)
    packed_s = (line[order] << 1) | np.asarray(write, dtype=np.int64)[order]
    n_sets = len(starts_d)
    tags = np.full((n_sets, ways), -1, dtype=np.int64)
    perm = _perm_table(ways)
    neg_counts = -counts_d
    for t in range(int(counts_d[0])):
        n_act = int(np.searchsorted(neg_counts, -t, side="left"))
        idx = starts_d[:n_act] + t
        probes = packed_s[idx]
        eq = (tags[:n_act] | 1) == (probes | 1)[:, None]
        hit_t = eq.any(axis=1)
        positions = order[idx]
        hit[positions] = hit_t
        hit_rows = np.flatnonzero(hit_t)
        if hit_rows.size:
            move = perm[eq[hit_rows].argmax(axis=1)]
            new_tags = np.take_along_axis(tags[hit_rows], move, axis=1)
            new_tags[:, -1] |= probes[hit_rows] & 1
            tags[hit_rows] = new_tags
        miss_rows = np.flatnonzero(~hit_t)
        if miss_rows.size:
            evicted = tags[miss_rows, 0]
            positions_m = positions[miss_rows]
            victim_line[positions_m] = evicted >> 1
            victim_dirty[positions_m] = ((evicted & 1) != 0) & (evicted >= 0)
            tags[miss_rows, :-1] = tags[miss_rows, 1:]
            tags[miss_rows, -1] = probes[miss_rows]
    return hit, victim_line, victim_dirty


def _llc_kernel(
    set_ids: np.ndarray,
    line: np.ndarray,
    kind: np.ndarray,
    tags_init: np.ndarray,
    ways: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay every LLC set's LRU recurrence over its probe stream.

    Probe kinds follow the scalar replay's in-op order: ``0`` demand
    (miss refreshes nothing, fills clean, evicts the LRU line), ``1``
    dirty-L1-victim touch (hit refreshes and sets dirty; miss is an
    inclusion writeback that leaves the set untouched), ``2`` prefetch
    (hit is a no-op — no LRU refresh — and a miss fills clean like a
    demand). ``tags_init`` is the full ``(n_sets, ways)`` priming
    matrix in the kernels' packed form (``(line << 1) | dirty``, ``-1``
    pads); only probed rows are copied in. Returns ``(hit,
    victim_line, victim_dirty)`` per probe.
    """
    m = len(line)
    hit = np.zeros(m, dtype=bool)
    victim_line = np.full(m, -1, dtype=np.int64)
    victim_dirty = np.zeros(m, dtype=bool)
    if m == 0:
        return hit, victim_line, victim_dirty
    order, starts_d, counts_d = _lru_steps(set_ids)
    packed_s = line[order] << 1
    kinds_s = np.asarray(kind, dtype=np.int8)[order]
    probed_sets = set_ids[order][starts_d]
    tags = tags_init[probed_sets]
    perm = _perm_table(ways)
    neg_counts = -counts_d
    for t in range(int(counts_d[0])):
        n_act = int(np.searchsorted(neg_counts, -t, side="left"))
        idx = starts_d[:n_act] + t
        probes = packed_s[idx]
        probe_kinds = kinds_s[idx]
        eq = (tags[:n_act] | 1) == (probes | 1)[:, None]
        hit_t = eq.any(axis=1)
        positions = order[idx]
        hit[positions] = hit_t
        # Demand and victim-touch hits refresh LRU (the victim touch
        # also marks the line dirty); prefetch hits leave the set alone.
        refresh_rows = np.flatnonzero(hit_t & (probe_kinds <= 1))
        if refresh_rows.size:
            move = perm[eq[refresh_rows].argmax(axis=1)]
            new_tags = np.take_along_axis(tags[refresh_rows], move, axis=1)
            new_tags[:, -1] |= probe_kinds[refresh_rows] == 1
            tags[refresh_rows] = new_tags
        # Demand and prefetch misses fill clean at MRU, evicting the LRU
        # way; a victim-touch miss (inclusion writeback) changes nothing.
        insert_rows = np.flatnonzero(~hit_t & (probe_kinds != 1))
        if insert_rows.size:
            evicted = tags[insert_rows, 0]
            positions_i = positions[insert_rows]
            victim_line[positions_i] = evicted >> 1
            victim_dirty[positions_i] = ((evicted & 1) != 0) & (evicted >= 0)
            tags[insert_rows, :-1] = tags[insert_rows, 1:]
            tags[insert_rows, -1] = probes[insert_rows]
    return hit, victim_line, victim_dirty


def _run_prefetcher(
    miss_pos: List[int],
    miss_lines: List[int],
    miss_cores: List[int],
    n_cores: int,
    n_streams: int,
    degree: int,
    distance: int,
) -> Tuple[List[int], List[int], List[int]]:
    """The stream-prefetcher recurrence over the L1 miss stream.

    The prefetcher observes exactly the L1 misses (in merged order), so
    once the L1 kernel has produced them this scalar loop touches only a
    few percent of the ops. Semantics are verbatim from the scalar
    replay (LRU stream table, confidence saturation at 4, trained at
    >= 2, bursts clipped to the page). Returns the prefetch probes as
    ``(merged position, line, sub-order >= 2)`` triples.
    """
    tables: List[dict] = [{} for _ in range(n_cores)]
    out_pos: List[int] = []
    out_line: List[int] = []
    out_sub: List[int] = []
    add_pos = out_pos.append
    add_line = out_line.append
    add_sub = out_sub.append
    for k, line, core in zip(miss_pos, miss_lines, miss_cores):
        page = line >> 6
        table = tables[core]
        stream = table.pop(page, None)
        if stream is None:
            if len(table) >= n_streams:
                del table[next(iter(table))]
            table[page] = [line, 0, line + distance]
            continue
        table[page] = stream  # LRU refresh
        last_line, confidence, next_prefetch = stream
        if line == last_line + 1:
            confidence = confidence + 1 if confidence < 4 else 4
        elif line != last_line:
            confidence = confidence - 1 if confidence > 0 else 0
        stream[0] = line
        stream[1] = confidence
        if confidence >= 2:
            target = next_prefetch if next_prefetch > line + 1 else line + 1
            sub = 2
            if (target + degree - 1) >> 6 == page:
                for t in range(target, target + degree):
                    add_pos(k)
                    add_line(t)
                    add_sub(sub)
                    sub += 1
            else:
                for t in range(target, target + degree):
                    if t >> 6 == page:
                        add_pos(k)
                        add_line(t)
                        add_sub(sub)
                        sub += 1
            stream[2] = target + degree
    return out_pos, out_line, out_sub


def _batched_replay(merged: "_MergedOps"):
    """The content replay as per-set array kernels (the production path).

    First collapses same-line runs: consecutive accesses to the same
    line within one (core, L1-set) stream are guaranteed L1 hits whose
    only effect is OR-ing the line's dirty bit (the leader leaves it at
    L1 MRU and no same-set access intervenes), so each run is replayed
    as its leader carrying the run-ORed write bit. That removes 65-80%
    of the ops on streaming workloads. Then decomposes the replay into
    independent per-set recurrences: the L1 kernel yields hits/victims
    per op, the prefetcher loop runs over the miss stream, and the LLC
    kernel replays each set's probe stream ordered by ``(merged
    position, in-op sub-order)`` — demand probe, dirty-victim touch,
    prefetch burst — exactly the scalar in-op order.

    Both rewrites are exact unless an LLC eviction back-invalidates a
    line still resident in an L1 (the only cross-set interaction, and
    the only thing that can break a collapsed run mid-flight); a
    vectorized residency count over the L1 fill/evict streams detects
    that case soundly — it fires iff the exact replay would count a
    back-invalidation — and returns ``None`` so the caller takes
    :func:`_scalar_replay`. Otherwise returns the same ``(counters,
    outcome, per-core event arrays, hits_base, misses_base)`` as
    :func:`_scalar_replay`, bit for bit.
    """
    np_line, np_l1idx, np_write = merged.line, merged.l1_index, merged.write
    n_merged = len(np_line)
    srt = np.argsort(np_l1idx, kind="stable")
    same = np.zeros(n_merged, dtype=bool)
    same[1:] = (np_l1idx[srt[1:]] == np_l1idx[srt[:-1]]) & (
        np_line[srt[1:]] == np_line[srt[:-1]]
    )
    leader = np.ones(n_merged, dtype=bool)
    leader[srt] = ~same
    run_starts = np.flatnonzero(~same)
    eff_write = np.zeros(n_merged, dtype=bool)
    eff_write[srt[run_starts]] = np.logical_or.reduceat(np_write[srt], run_starts)
    # Merged position of each collapsed op (events report these).
    leader_pos = np.flatnonzero(leader)
    line = np_line[leader]
    l1_index = np_l1idx[leader]
    write = eff_write[leader]
    core_of = merged.core[leader]
    idx_of = merged.idx[leader]
    boundary = int(np.count_nonzero(leader[: merged.boundary_pos]))
    trace_lens = [len(t.instr_cum) for t in merged.traces]

    llc_ways = _LLC_WAYS
    llc_mask = _LLC_SETS - 1
    n_cores = len(trace_lens)
    m = len(line)
    hit, l1_vline, l1_vdirty = _l1_kernel(l1_index, line, write, _L1_WAYS)
    miss_pos = np.flatnonzero(~hit)
    pf_pos, pf_line, pf_sub = _run_prefetcher(
        miss_pos.tolist(),
        line[miss_pos].tolist(),
        core_of[miss_pos].tolist(),
        n_cores,
        *merged.pf_params,
    )
    touch_pos = np.flatnonzero(l1_vdirty)
    probe_pos = np.concatenate(
        [miss_pos, touch_pos, np.asarray(pf_pos, dtype=np.int64)]
    )
    probe_line = np.concatenate(
        [line[miss_pos], l1_vline[touch_pos], np.asarray(pf_line, dtype=np.int64)]
    )
    probe_kind = np.concatenate(
        [
            np.zeros(len(miss_pos), dtype=np.int8),
            np.ones(len(touch_pos), dtype=np.int8),
            np.full(len(pf_pos), 2, dtype=np.int8),
        ]
    )
    probe_sub = np.concatenate(
        [
            np.zeros(len(miss_pos), dtype=np.int64),
            np.ones(len(touch_pos), dtype=np.int64),
            np.asarray(pf_sub, dtype=np.int64),
        ]
    )
    # lexsort((probe_sub, probe_pos)) as one radix pass: sub-orders are
    # bounded by degree + 1, so pack them under the merged position.
    sub_stride = np.int64(merged.pf_params[1] + 2)
    order = np.argsort(probe_pos * sub_stride + probe_sub, kind="stable")
    probe_pos = probe_pos[order]
    probe_line = probe_line[order]
    probe_kind = probe_kind[order]
    tags = _initial_llc_arrays(
        merged.fill_lines, merged.fill_dirty, _LLC_SETS, llc_ways
    )
    probe_hit, probe_vline, probe_vdirty = _llc_kernel(
        probe_line & llc_mask, probe_line, probe_kind, tags, llc_ways
    )

    # Back-invalidation detection: an LLC eviction whose victim is still
    # resident in an L1 breaks the per-set decomposition. Residency at
    # merged position k is fills-before-k minus evictions-before-k over
    # the L1 kernel's fill/evict streams ("before" is strict for demand
    # evictions — the op's own L1 fill happens after its demand probe —
    # and inclusive for prefetch evictions, which run after the fill).
    # Up to the first would-be back-invalidation both replays agree, so
    # this check fires exactly when the scalar replay counts one.
    evict_sel = probe_vline >= 0
    if np.any(evict_sel):
        key_base = np.int64(m + 1)
        fill_keys = np.sort(line[miss_pos] * key_base + miss_pos)
        l1_evict = np.flatnonzero(l1_vline >= 0)
        evict_keys = np.sort(l1_vline[l1_evict] * key_base + l1_evict)
        victims = probe_vline[evict_sel]
        bound = probe_pos[evict_sel] + (probe_kind[evict_sel] == 2)
        low = victims * key_base
        n_fills = np.searchsorted(fill_keys, low + bound) - np.searchsorted(
            fill_keys, low
        )
        n_evicts = np.searchsorted(evict_keys, low + bound) - np.searchsorted(
            evict_keys, low
        )
        if np.any(n_fills > n_evicts):
            return None

    # Counters and per-op outcomes (demand probes only).
    demand_sel = probe_kind == 0
    touch_sel = probe_kind == 1
    demand_hit = probe_hit[demand_sel]
    demand_pos = probe_pos[demand_sel]
    touch_hit = probe_hit[touch_sel]
    touch_pos_s = probe_pos[touch_sel]
    counters = {
        "hits": int(demand_hit.sum()) + int(touch_hit.sum()),
        "misses": int((~demand_hit).sum()),
        "incl": int((~touch_hit).sum()),
        "back_inval": 0,
    }
    hits_base = int((demand_hit & (demand_pos < boundary)).sum()) + int(
        (touch_hit & (touch_pos_s < boundary)).sum()
    )
    misses_base = int((~demand_hit & (demand_pos < boundary)).sum())
    outcome = [np.zeros(length, dtype=np.uint8) for length in trace_lens]
    demand_core = core_of[demand_pos]
    demand_idx = idx_of[demand_pos]
    demand_out = np.where(demand_hit, 1, 2).astype(np.uint8)
    for c in range(n_cores):
        sel = demand_core == c
        outcome[c][demand_idx[sel]] = demand_out[sel]

    # Controller-facing actions, assembled without a Python loop: each
    # probe contributes its own action (demand read / inclusion write /
    # prefetch read) when it missed (resp. for the victim touch: when
    # the writeback went to DRAM), plus a victim writeback when its
    # fill evicted a dirty line.
    has_own = ~probe_hit
    code_own = np.array(
        [A_DEMAND_READ, A_INCL_WRITE, A_PF_READ], dtype=np.int64
    )[probe_kind]
    act_own = (probe_line << 3) | code_own
    has_victim = has_own & (probe_kind != 1) & probe_vdirty
    act_victim = (probe_vline << 3) | np.where(
        probe_kind == 0, A_VICTIM_WRITE, A_PF_VICTIM_WRITE
    )
    n_actions = has_own.astype(np.int64) + has_victim
    act_end = np.cumsum(n_actions)
    act_start = act_end - n_actions
    total_actions = int(act_end[-1]) if len(act_end) else 0
    actions_flat = np.empty(total_actions, dtype=np.int64)
    actions_flat[act_start[has_own]] = act_own[has_own]
    actions_flat[act_start[has_victim] + 1] = act_victim[has_victim]

    # Group action-bearing probes into per-op events (probes are sorted
    # by merged position, so ops are consecutive runs), then split the
    # event table by core.
    have = n_actions > 0
    have_pos = probe_pos[have]
    events: List[tuple] = []
    if len(have_pos):
        new_event = np.empty(len(have_pos), dtype=bool)
        new_event[0] = True
        new_event[1:] = have_pos[1:] != have_pos[:-1]
        event_pos = have_pos[new_event]
        event_len = np.add.reduceat(
            n_actions[have], np.flatnonzero(new_event)
        )
        event_start = act_start[have][new_event]
        event_core = core_of[event_pos]
        event_op = idx_of[event_pos]
        for c in range(n_cores):
            sel = event_core == c
            starts_c = event_start[sel]
            lens_c = event_len[sel]
            total_c = int(lens_c.sum())
            gather = np.repeat(starts_c, lens_c) + (
                np.arange(total_c)
                - np.repeat(np.cumsum(lens_c) - lens_c, lens_c)
            )
            offsets = np.concatenate(([0], np.cumsum(lens_c)))
            events.append(
                (
                    event_op[sel],
                    leader_pos[event_pos[sel]],
                    offsets,
                    actions_flat[gather],
                )
            )
    else:
        empty_i = np.empty(0, dtype=np.int64)
        for c in range(n_cores):
            events.append((empty_i, empty_i, np.zeros(1, dtype=np.int64), empty_i))
    return counters, outcome, events, hits_base, misses_base


@dataclass
class _CoreEvents:
    """One core's controller-facing events as a structured table.

    Everything the batched timing tick needs per event is precomputed
    here by the content pass (vectorized): the op index, merged
    position, stall-free base clock, ROB window-crossing op, event kind
    (0 = no demand latency to apply, 1 = serializing load, 2 = windowed
    load) and warm-up membership, plus the packed actions as one flat
    list with offsets. Plain lists of machine scalars — indexing them
    in the tick is one ``list_subscript`` each, and the cyclic GC never
    rescans their elements.
    """

    op: List[int]
    pos: List[int]
    base_time: List[float]
    crossing: List[int]
    kind: List[int]
    warm: List[bool]
    act_off: List[int]
    actions: List[int]
    n_ev: int
    n_warm: int


def _build_core_events(
    op_arr,
    pos_arr,
    off_arr,
    act_arr,
    check_np: np.ndarray,
    instr_np: np.ndarray,
    is_write: np.ndarray,
    serializing: np.ndarray,
    boundary: int,
    rob: int,
) -> _CoreEvents:
    op = np.asarray(op_arr, dtype=np.int64)
    pos = np.asarray(pos_arr, dtype=np.int64)
    off = np.asarray(off_arr, dtype=np.int64)
    act = np.asarray(act_arr, dtype=np.int64)
    if len(op) == 0:
        return _CoreEvents([], [], [], [], [], [], [0], [], 0, 0)
    base_time = check_np[op]
    crossing = np.searchsorted(instr_np, instr_np[op] + rob, side="left")
    # A demand read, when present, is always the event's first action.
    has_demand = (act[off[:-1]] & 7) == A_DEMAND_READ
    load = has_demand & ~is_write[op]
    kind = np.where(load, np.where(serializing[op], 1, 2), 0)
    warm = pos < boundary
    return _CoreEvents(
        op.tolist(),
        pos.tolist(),
        base_time.tolist(),
        crossing.tolist(),
        kind.tolist(),
        warm.tolist(),
        off.tolist(),
        act.tolist(),
        len(op),
        int(np.count_nonzero(warm)),
    )


@dataclass
class _ContentResult:
    """Organization-independent replay of the cache hierarchy.

    Everything the per-organization timing pass needs: per-core base
    timelines (closed-form prefix sums of the constant per-op advances),
    the sparse controller-facing event lists, and the LLC hit/miss stats
    of the measurement window.
    """

    n_cores: int
    base_cpi: float
    #: Per-core op columns (array.array so the memoized bulk holds
    #: machine values the cyclic GC never has to rescan).
    instr: List[array]  #: int64, instructions retired after each op
    serializing: List[np.ndarray]
    is_write: List[np.ndarray]
    check_time: List[array]  #: float64 pre-access clock per op, stall-free
    final_time: List[float]  #: post-last-op clock, stall-free
    warm_op: List[int]  #: first op index at/after the warm-up quota
    #: Sparse per-core event tables (actions packed as
    #: ``(line << 3) | code``); see :class:`_CoreEvents`.
    events: List[_CoreEvents]
    #: Merged position before which an event belongs to the warm-up.
    boundary_pos: int
    #: True when there is no warm-up phase at all (start stays at 0).
    no_warmup: bool
    llc_hits_window: int
    llc_misses_window: int
    #: Content-pass totals for diagnostics/tests.
    n_ops: int = 0
    inclusion_writebacks: int = 0
    #: Shared address -> packed DRAM coords memo. The mapping is a pure
    #: function of the address, so every organization's controller run
    #: over this content reuses one dict (values are packed ints — no
    #: GC-tracked tuples in the memoized bulk).
    coords: Optional[Dict[int, int]] = None


#: In-process memo of content passes, keyed by everything that affects
#: them; organizations share entries (they differ only in timing).
_CONTENT_MEMO: "OrderedDict[tuple, _ContentResult]" = OrderedDict()
# Campaign grids iterate organizations adjacently per (workload, seed),
# so two entries suffice; more only adds long-lived garbage for the GC
# to rescan.
_CONTENT_MEMO_MAX = 2


def _content_pass(
    prof: WorkloadProfile,
    n_cores: int,
    seed: int,
    instructions_per_core: int,
    warmup_instructions: int,
) -> Optional[_ContentResult]:
    """The memoized content pass: batched kernels, exact scalar fallback."""
    key = (prof, n_cores, seed, instructions_per_core, warmup_instructions)
    cached = _CONTENT_MEMO.get(key)
    if cached is not None:
        _CONTENT_MEMO.move_to_end(key)
        return cached
    merged = _merge_ops(
        prof, n_cores, seed, instructions_per_core, warmup_instructions
    )
    if merged is None:
        return None  # all-L1 profile: the caller reports an all-zero result
    replay = _batched_replay(merged)
    if replay is None:
        # A would-be back-invalidation breaks the per-set decomposition
        # (and any collapsed run): take the exact scalar replay (rare:
        # needs an LLC small enough to back-invalidate still-hot L1 lines).
        _BATCH_STATS["fallbacks"] += 1
        replay = _scalar_replay(merged)
    else:
        _BATCH_STATS["batched"] += 1
    result = _content_result(merged, replay)
    _CONTENT_MEMO[key] = result
    while len(_CONTENT_MEMO) > _CONTENT_MEMO_MAX:
        _CONTENT_MEMO.popitem(last=False)
    return result


@dataclass
class _MergedOps:
    """Every core's synthesized ops in the content pass's merged order.

    The merged columns are numpy arrays over ops in deterministic
    virtual-time order (see module docstring); both replays consume
    them.
    """

    traces: List[_CoreTrace]
    line: np.ndarray  #: int64 line address
    l1_index: np.ndarray  #: int64 flat L1 set, (core << _L1_SET_BITS) | set
    write: np.ndarray  #: bool
    core: np.ndarray  #: int64 issuing core
    idx: np.ndarray  #: int64 op index within the core's trace
    #: Merged position of the last core's first at-quota op (0 without
    #: a warm-up): LLC stats are snapshotted before that op's access.
    boundary_pos: int
    warm_op: List[int]  #: per core, first op index at/after the quota
    no_warmup: bool
    fill_lines: np.ndarray  #: LLC priming fills, in fill order
    fill_dirty: np.ndarray
    pf_params: Tuple[int, int, int]  #: prefetcher (streams, degree, distance)
    base_cpi: float


def _merge_ops(
    prof: WorkloadProfile,
    n_cores: int,
    seed: int,
    instructions_per_core: int,
    warmup_instructions: int,
) -> Optional[_MergedOps]:
    """Synthesize every core's trace and merge them; ``None`` if all-L1."""
    total = warmup_instructions + instructions_per_core
    traces = [_synthesize_trace(prof, c, seed, total) for c in range(n_cores)]
    if any(t is None for t in traces):
        return None
    fill_lines, fill_dirty = _priming_fills(
        prof, n_cores, seed, _LLC_SETS * _LLC_WAYS
    )
    from repro.cache.prefetcher import StreamPrefetcher

    pf = StreamPrefetcher()

    # Merged deterministic virtual-time order (see module docstring).
    all_instr = np.concatenate([t.instr_cum for t in traces])
    all_core = np.concatenate(
        [np.full(len(t.instr_cum), c, dtype=np.int64) for c, t in enumerate(traces)]
    )
    all_idx = np.concatenate(
        [np.arange(len(t.instr_cum), dtype=np.int64) for t in traces]
    )
    # lexsort((all_core, all_instr)) as one radix pass over a packed
    # key; kind="stable" keeps lexsort's tie-break for equal pairs.
    order = np.argsort(all_instr * np.int64(n_cores) + all_core, kind="stable")

    # Warm-up boundary: the merged position of the last core's first
    # at-quota op; LLC stats are snapshotted there (reference semantics:
    # the base snapshot is taken before that op's own access).
    warm_op = [
        int(np.searchsorted(t.instr_cum, warmup_instructions, side="left"))
        for t in traces
    ]
    if warmup_instructions == 0:
        boundary_pos = 0
    else:
        pos_of = np.empty(len(order), dtype=np.int64)
        pos_of[order] = np.arange(len(order), dtype=np.int64)
        offsets = np.cumsum([0] + [len(t.instr_cum) for t in traces[:-1]])
        boundary_pos = max(
            int(pos_of[offsets[c] + min(warm_op[c], len(traces[c].instr_cum) - 1)])
            for c in range(n_cores)
        )

    line = np.concatenate([t.line for t in traces])[order]
    core = all_core[order]
    return _MergedOps(
        traces=traces,
        line=line,
        l1_index=(core << _L1_SET_BITS) | (line & ((1 << _L1_SET_BITS) - 1)),
        write=np.concatenate([t.is_write for t in traces])[order],
        core=core,
        idx=all_idx[order],
        boundary_pos=boundary_pos,
        warm_op=warm_op,
        no_warmup=warmup_instructions == 0,
        fill_lines=fill_lines,
        fill_dirty=fill_dirty,
        pf_params=(pf.n_streams, pf.degree, pf.distance),
        base_cpi=prof.base_cpi,
    )


def _scalar_replay(merged: _MergedOps):
    """The exact L1 / LLC / prefetcher replay, one merged op at a time.

    The production fallback whenever :func:`_batched_replay` detects an
    inclusion back-invalidation, and the batched replay's oracle in the
    tests. Returns ``(counters, outcome, per-core event arrays,
    hits_base, misses_base)``: per-core ``(op, merged pos, action
    offsets, packed actions)`` columns and per-core ``uint8`` outcome
    arrays, in the same form as :func:`_batched_replay`.
    """
    l1_ways = _L1_WAYS
    l1_bits = _L1_SET_BITS
    l1_mask = (1 << l1_bits) - 1
    llc_ways = _LLC_WAYS
    llc_mask = _LLC_SETS - 1
    pf_streams, pf_degree, pf_distance = merged.pf_params
    n_cores = len(merged.traces)
    # Replay columns as array.array (not list) on purpose: their
    # elements are machine values, so the cyclic GC never rescans them —
    # with multi-hundred-k lists here, every gen-2 collection would walk
    # millions of pointers and dominate the pass.
    merged_line = array("q", merged.line.tobytes())
    merged_l1_index = array("q", merged.l1_index.tobytes())
    merged_write = array("b", merged.write.astype(np.int8).tobytes())
    core_of = array("q", merged.core.tobytes())
    idx_of = array("q", merged.idx.tobytes())
    llc = _initial_llc_sets(merged.fill_lines, merged.fill_dirty, _LLC_SETS, llc_ways)
    # Flat per-core L1 sets: index (core << l1_bits) | (line & l1_mask).
    l1: List[dict] = [{} for _ in range(n_cores << l1_bits)]
    # Prefetcher stream tables: page -> [last_line, confidence, next_prefetch].
    pf: List[dict] = [{} for _ in range(n_cores)]
    outcome = [bytearray(len(t.instr_cum)) for t in merged.traces]
    events: List[List[Tuple[int, int, List[int]]]] = [[] for _ in range(n_cores)]
    counters = {"hits": 0, "misses": 0, "incl": 0, "back_inval": 0}
    missing = object()  # dict-probe sentinel (single-lookup hit path)

    def replay(start: int, end: int) -> None:
        llc_hits = counters["hits"]
        llc_misses = counters["misses"]
        inclusion = counters["incl"]
        back_inval = counters["back_inval"]
        llc_local = llc
        l1_local = l1
        k = start
        for line, l1idx, w in zip(
            merged_line[start:end],
            merged_l1_index[start:end],
            merged_write[start:end],
        ):
            l1s = l1_local[l1idx]
            dirty = l1s.pop(line, missing)
            if dirty is not missing:
                # L1 hit: refresh LRU, OR the dirty bit (outcome stays
                # OUT_L1).
                l1s[line] = dirty or w
                k += 1
                continue
            c = core_of[k]
            # Stream prefetcher observes every L1 miss, before the LLC
            # probe.
            page = line >> 6
            pfc = pf[c]
            stream = pfc.pop(page, None)
            prefetches = None
            if stream is None:
                if len(pfc) >= pf_streams:
                    del pfc[next(iter(pfc))]
                pfc[page] = [line, 0, line + pf_distance]
            else:
                pfc[page] = stream  # LRU refresh
                last_line, confidence, next_prefetch = stream
                if line == last_line + 1:
                    confidence = confidence + 1 if confidence < 4 else 4
                elif line != last_line:
                    confidence = confidence - 1 if confidence > 0 else 0
                stream[0] = line
                stream[1] = confidence
                if confidence >= 2:
                    target = next_prefetch if next_prefetch > line + 1 else line + 1
                    if (target + pf_degree - 1) >> 6 == page:
                        # Whole burst inside the page (the common case).
                        prefetches = range(target, target + pf_degree)
                    else:
                        prefetches = [
                            t for t in range(target, target + pf_degree) if t >> 6 == page
                        ]
                    stream[2] = target + pf_degree
            i = idx_of[k]
            # Actions pack as (line << 3) | code — plain ints keep the
            # event lists GC-cheap.
            actions: Optional[List[int]] = None
            ls = llc_local[line & llc_mask]
            ldirty = ls.pop(line, missing)
            if ldirty is not missing:
                ls[line] = ldirty  # LRU refresh (read probe: dirty unchanged)
                llc_hits += 1
                outcome[c][i] = 1  # OUT_LLC
            else:
                llc_misses += 1
                outcome[c][i] = 2  # OUT_DRAM
                actions = [line << 3]  # A_DEMAND_READ
                # Fill the LLC; the victim back-invalidates its owner's
                # L1 (address ranges are per-core disjoint, so only the
                # owner core can hold it) and writes back if dirty
                # anywhere.
                if len(ls) >= llc_ways:
                    vline = next(iter(ls))
                    vdirty = ls.pop(vline)
                    binv = l1_local[((vline >> 28) << l1_bits) | (vline & l1_mask)].pop(
                        vline, missing
                    )
                    if binv is not missing:
                        back_inval += 1
                        if binv:
                            vdirty = True
                    if vdirty:
                        actions.append((vline << 3) | A_VICTIM_WRITE)
                ls[line] = False
            # Fill the L1 (dirty if this is a store); a dirty L1 victim
            # touches its LLC copy (counts as an LLC hit) or —
            # impossible under inclusion, but never silently dropped —
            # goes to DRAM.
            if len(l1s) >= l1_ways:
                vline = next(iter(l1s))
                if l1s.pop(vline):
                    vs = llc_local[vline & llc_mask]
                    if vline in vs:
                        vs.pop(vline)
                        vs[vline] = True
                        llc_hits += 1
                    else:
                        inclusion += 1
                        if actions is None:
                            actions = []
                        actions.append((vline << 3) | A_INCL_WRITE)
            l1s[line] = w
            if prefetches:
                for pline in prefetches:
                    ps = llc_local[pline & llc_mask]
                    if pline in ps:
                        continue
                    if actions is None:
                        actions = []
                    actions.append((pline << 3) | A_PF_READ)
                    if len(ps) >= llc_ways:
                        pvline = next(iter(ps))
                        pvdirty = ps.pop(pvline)
                        pbinv = l1_local[
                            ((pvline >> 28) << l1_bits) | (pvline & l1_mask)
                        ].pop(pvline, missing)
                        if pbinv is not missing:
                            back_inval += 1
                            if pbinv:
                                pvdirty = True
                        if pvdirty:
                            actions.append((pvline << 3) | A_PF_VICTIM_WRITE)
                    ps[pline] = False
            if actions:
                events[c].append((i, k, actions))
            k += 1
        counters["hits"] = llc_hits
        counters["misses"] = llc_misses
        counters["incl"] = inclusion
        counters["back_inval"] = back_inval

    boundary = merged.boundary_pos
    replay(0, boundary)
    hits_base, misses_base = counters["hits"], counters["misses"]
    replay(boundary, len(merged_line))

    columns = []
    for evs in events:
        offsets = np.zeros(len(evs) + 1, dtype=np.int64)
        if evs:
            np.cumsum([len(e[2]) for e in evs], out=offsets[1:])
        columns.append(
            (
                [e[0] for e in evs],
                [e[1] for e in evs],
                offsets,
                [a for e in evs for a in e[2]],
            )
        )
    outcome_arrays = [np.frombuffer(o, dtype=np.uint8) for o in outcome]
    return counters, outcome_arrays, columns, hits_base, misses_base


def _content_result(merged: _MergedOps, replay) -> _ContentResult:
    """Per-core timelines and event tables from either replay's output."""
    counters, outcome, raw_events, hits_base, misses_base = replay
    traces = merged.traces

    # Per-core stall-free timelines: each op advances the clock by
    # gap * cpi (before the access) plus cpi (dispatch) plus, for
    # serializing loads with constant latency, that latency. DRAM
    # latencies and window stalls are applied by the timing pass.
    cpi = merged.base_cpi
    l1_lat = float(CacheHierarchy.L1_HIT_CYCLES)
    llc_lat = float(CacheHierarchy.L1_HIT_CYCLES + CacheHierarchy.LLC_HIT_CYCLES)
    rob = CoreConfig().rob_entries
    check_time: List[array] = []
    final_time: List[float] = []
    core_events: List[_CoreEvents] = []
    for c, trace in enumerate(traces):
        serial_load = trace.serializing & ~trace.is_write
        const_lat = np.where(
            serial_load & (outcome[c] == OUT_L1),
            l1_lat,
            np.where(serial_load & (outcome[c] == OUT_LLC), llc_lat, 0.0),
        )
        post = cpi + const_lat
        pre = trace.gap * cpi
        incl = np.cumsum(pre + post)
        check = incl - post
        check_time.append(array("d", check.tobytes()))
        final_time.append(float(incl[-1]))
        core_events.append(
            _build_core_events(
                *raw_events[c],
                check,
                trace.instr_cum,
                trace.is_write,
                trace.serializing,
                merged.boundary_pos,
                rob,
            )
        )

    return _ContentResult(
        n_cores=len(traces),
        base_cpi=cpi,
        instr=[array("q", t.instr_cum.tobytes()) for t in traces],
        serializing=[t.serializing for t in traces],
        is_write=[t.is_write for t in traces],
        check_time=check_time,
        final_time=final_time,
        warm_op=merged.warm_op,
        events=core_events,
        boundary_pos=merged.boundary_pos,
        no_warmup=merged.no_warmup,
        llc_hits_window=counters["hits"] - hits_base,
        llc_misses_window=counters["misses"] - misses_base,
        n_ops=len(merged.line),
        inclusion_writebacks=counters["incl"],
        coords={},
    )


# -- pass 3: per-organization sparse timing --------------------------------------


def _zero_result(prof: WorkloadProfile, organization, config) -> SystemResult:
    return SystemResult(
        workload=prof.name,
        organization=getattr(organization, "name", "unknown"),
        n_cores=config.n_cores,
        instructions_per_core=config.instructions_per_core,
        core_cycles=[0.0] * config.n_cores,
        core_ipc=[0.0] * config.n_cores,
        dram_reads=0,
        dram_writes=0,
        llc_miss_rate=0.0,
        row_hit_rate=0.0,
        avg_read_latency_mem_cycles=0.0,
    )


def _timing_batched(content: _ContentResult, organization, controller):
    """The structured-array event tick (the production timing pass).

    The same walk as the per-event heap walk kept as its oracle in
    ``tests/perf_oracle.py``, with every per-event derivation — stall-free base clock, ROB window-crossing op, event
    kind, warm-up membership — precomputed by the content pass into the
    :class:`_CoreEvents` tables, so the tick touches one table row per
    event instead of re-deriving them (bisect, numpy bool indexing) per
    event. Consecutive events of one core run inline without a heap
    round-trip whenever no other core's next event is earlier — exact,
    because the (time, core-id) tuple order the heap would use is
    checked against the heap head before short-circuiting.
    """
    cpi = content.base_cpi
    l1_llc_lat = float(
        CacheHierarchy.L1_HIT_CYCLES + CacheHierarchy.LLC_HIT_CYCLES
    )
    tail = organization.read_tail_cpu_cycles
    extra_read = organization.extra_read_per_read
    extra_write = organization.extra_write_per_writeback
    meta_address = organization.metadata_address
    cpm = CPU_CYCLES_PER_MEM_CYCLE

    dram_reads = 0
    dram_writes = 0
    backpressure_stalls = 0
    meta_inflight: "OrderedDict[int, float]" = OrderedDict()
    meta_recent: "OrderedDict[int, float]" = OrderedDict()
    merge_window = 1000.0  # CacheHierarchy._META_WRITE_MERGE_WINDOW

    n_cores = content.n_cores
    check = content.check_time
    warm_ops = content.warm_op
    correction = [0.0] * n_cores
    marked = [content.no_warmup] * n_cores
    start_cycle = [0.0] * n_cores
    outstanding = [deque() for _ in range(n_cores)]
    ev_i = [0] * n_cores
    cols = [
        (
            table.op,
            table.base_time,
            table.crossing,
            table.kind,
            table.warm,
            table.act_off,
            table.actions,
            table.n_ev,
            len(check[c]),
        )
        for c, table in enumerate(content.events)
    ]

    def advance(c: int, upto: int) -> None:
        # _CoreTiming.advance over the parallel per-core state lists.
        out = outstanding[c]
        ch = check[c]
        corr = correction[c]
        w = warm_ops[c]
        while out and out[0][0] <= upto:
            crossing, completion = out.popleft()
            if not marked[c] and w < crossing:
                start_cycle[c] = ch[w] + corr
                marked[c] = True
            at = ch[crossing] + corr
            if completion > at:
                corr += completion - at
        correction[c] = corr
        if not marked[c] and w <= upto:
            start_cycle[c] = ch[w] + corr
            marked[c] = True

    def snapshot() -> Dict[str, float]:
        return {
            "dram_reads": dram_reads,
            "dram_writes": dram_writes,
            "row_hits": controller.row_hits,
            "row_misses": controller.row_misses,
            "row_conflicts": controller.row_conflicts,
            "reads": controller.reads,
            "read_latency": controller.total_read_latency,
        }

    warmup_events = sum(table.n_warm for table in content.events)
    base = snapshot() if warmup_events == 0 else None

    heap: List[Tuple[float, int]] = []
    for c, table in enumerate(content.events):
        if table.n_ev:
            advance(c, table.op[0])
            heap.append((table.base_time[0] + correction[c], c))
        else:
            advance(c, cols[c][8] - 1)
    heapq.heapify(heap)

    cread = controller.read
    cwrite = controller.write
    heappush = heapq.heappush
    heappop = heapq.heappop

    while heap:
        now_cpu, c = heappop(heap)
        op_l, base_l, cross_l, kind_l, warm_l, off_l, act_l, n_ev, n_ops = cols[c]
        out_c = outstanding[c]
        i = ev_i[c]
        while True:
            now_mem = now_cpu / cpm
            demand_latency = 0.0
            stall = 0.0
            for packed in act_l[off_l[i] : off_l[i + 1]]:
                code = packed & 7
                address = (packed >> 3) << 6
                if code == A_DEMAND_READ or code == A_PF_READ:
                    ready = cread(address, now_mem)
                    dram_reads += 1
                    if extra_read:
                        maddr = meta_address(address)
                        completion = meta_inflight.get(maddr)
                        if completion is None or completion <= now_mem:
                            completion = cread(maddr, now_mem)
                            dram_reads += 1
                            meta_inflight[maddr] = completion
                            meta_inflight.move_to_end(maddr)
                            while len(meta_inflight) > 8:
                                meta_inflight.popitem(last=False)
                        ready = max(ready, completion)
                    if code == A_DEMAND_READ:
                        demand_latency = (ready - now_mem) * cpm + tail
                else:  # the three writeback flavours
                    accepted = cwrite(address, now_mem)
                    dram_writes += 1
                    if extra_write:
                        maddr = meta_address(address)
                        last = meta_recent.get(maddr)
                        if last is None or now_mem - last >= merge_window:
                            accepted = max(accepted, cwrite(maddr, now_mem))
                            dram_writes += 1
                            meta_recent[maddr] = now_mem
                            meta_recent.move_to_end(maddr)
                            while len(meta_recent) > 32:
                                meta_recent.popitem(last=False)
                    if code == A_VICTIM_WRITE:
                        stall = (accepted - now_mem) * cpm
                        if stall:
                            backpressure_stalls += 1
            if warm_l[i]:
                warmup_events -= 1
                if warmup_events == 0:
                    base = snapshot()
            kind = kind_l[i]
            if kind and demand_latency:
                latency = l1_llc_lat + demand_latency + stall
                if kind == 1:  # serializing load: latency lands immediately
                    correction[c] += latency
                else:  # windowed load: stall resolved at the crossing op
                    crossing = cross_l[i]
                    if crossing < n_ops:
                        out_c.append((crossing, now_cpu + cpi + latency))
            i += 1
            ev_i[c] = i
            if i < n_ev:
                if out_c or not marked[c]:
                    advance(c, op_l[i])
                t_next = base_l[i] + correction[c]
                if heap:
                    head = heap[0]
                    if t_next < head[0] or (t_next == head[0] and c < head[1]):
                        now_cpu = t_next
                        continue
                    heappush(heap, (t_next, c))
                else:
                    now_cpu = t_next
                    continue
            elif out_c or not marked[c]:
                advance(c, n_ops - 1)
            break

    if base is None:
        base = snapshot()
    measured = [
        content.final_time[c] + correction[c] - start_cycle[c]
        for c in range(n_cores)
    ]
    return measured, base, snapshot(), backpressure_stalls


def _timing_pass(
    content: _ContentResult,
    prof: WorkloadProfile,
    organization,
    config,
    diagnostics: Optional[dict] = None,
) -> SystemResult:
    controller = MemoryController(content.coords)
    walk = _timing_batched(content, organization, controller)
    return _timing_result(
        content, prof, organization, config, controller, walk, diagnostics
    )


def _timing_result(
    content: _ContentResult,
    prof: WorkloadProfile,
    organization,
    config,
    controller,
    walk,
    diagnostics: Optional[dict] = None,
) -> SystemResult:
    """The :class:`SystemResult` of one timing walk over ``controller``."""
    measured, base, now, backpressure_stalls = walk
    delta = {key: now[key] - base[key] for key in now}
    llc_total = content.llc_hits_window + content.llc_misses_window
    row_total = delta["row_hits"] + delta["row_misses"] + delta["row_conflicts"]

    if diagnostics is not None:
        diagnostics.update(
            {
                "ops": content.n_ops,
                "events": sum(table.n_ev for table in content.events),
                "write_drains": controller.write_drains,
                "backpressure_stalls": backpressure_stalls,
                "inclusion_writebacks": content.inclusion_writebacks,
                "refreshes": controller.refreshes,
            }
        )

    return SystemResult(
        workload=prof.name,
        organization=getattr(organization, "name", "unknown"),
        n_cores=content.n_cores,
        instructions_per_core=config.instructions_per_core,
        core_cycles=measured,
        core_ipc=[
            config.instructions_per_core / cycles if cycles else 0.0
            for cycles in measured
        ],
        dram_reads=int(delta["dram_reads"]),
        dram_writes=int(delta["dram_writes"]),
        llc_miss_rate=(
            content.llc_misses_window / llc_total if llc_total else 0.0
        ),
        row_hit_rate=delta["row_hits"] / row_total if row_total else 0.0,
        avg_read_latency_mem_cycles=(
            delta["read_latency"] / delta["reads"] if delta["reads"] else 0.0
        ),
    )


def run_workload_fast(
    workload: WorkloadProfile,
    organization,
    config,
    diagnostics: Optional[dict] = None,
) -> SystemResult:
    """Fast-engine counterpart of :func:`repro.perf.model.run_workload`.

    ``diagnostics``, when given, is filled with rare-path counters
    (drain episodes, backpressure stalls, inclusion writebacks) so tests
    can assert the scalar-fallback paths actually ran.
    """
    content = _content_pass(
        workload,
        config.n_cores,
        config.seed,
        config.instructions_per_core,
        config.warmup_instructions,
    )
    if content is None:
        if diagnostics is not None:
            diagnostics.update(
                {
                    "ops": 0,
                    "events": 0,
                    "write_drains": 0,
                    "backpressure_stalls": 0,
                    "inclusion_writebacks": 0,
                    "refreshes": 0,
                }
            )
        return _zero_result(workload, organization, config)
    return _timing_pass(content, workload, organization, config, diagnostics)
