"""The campaign fan-out: work stealing with worker supervision.

:func:`repro.campaign.engine.run_campaign` hands every multi-worker run
to :func:`run_stealing`. It keeps ``workers`` *persistent* processes
alive for the whole campaign, and each pulls the next whole group from a
shared queue the moment it goes idle: work stealing at group
granularity. Groups stay atomic (the perf engine's content memo and the
sweep's per-attack state still share within a group); only their
*placement* is dynamic, so on a skewed grid (lbm/roms perf cells run
3–5x longer than gcc cells) the slow groups overlap with many small ones
instead of defining the critical path.

Supervision rides on the result stream itself. Each worker sends its
``claim``/``item``/``done`` messages synchronously on a pipe of its own,
so a worker that dies mid-item can neither lose nor wedge another
worker's messages, and every message doubles as a heartbeat. A worker
that dies or goes silent for ``heartbeat_timeout_s`` while holding a
group is killed and replaced, and its group is requeued with a bounded
attempt budget; a group that exhausts it raises :class:`CampaignError`.
Requeues are safe to overlap with stale execution: results are
deduplicated by item index (first completion wins, and items are
deterministic, so "first" is also "only" in content). Supervision also
runs the other way: a worker whose parent is gone (killed mid-campaign)
exits instead of lingering as an orphan.

Determinism: results are keyed by item index and every item is a pure
function of its fingerprint, so the output mapping is bit-identical to
the in-process ``workers == 1`` run for any worker count and any steal
order.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import queue
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.campaign.engine import Campaign

#: Seconds of message silence from a group-holding worker before it is
#: presumed hung, killed, and its group requeued. Item boundaries are
#: the heartbeat, so this must exceed the longest single item.
DEFAULT_HEARTBEAT_TIMEOUT_S = 300.0

#: Parent poll interval for the result stream / liveness checks.
DEFAULT_POLL_S = 0.05

#: Seconds the fleet must be simultaneously idle (with work nominally
#: outstanding) before unfinished groups are re-enqueued. Covers the
#: window where a worker dies between drawing a task and sending its
#: claim — the task would otherwise be lost silently. An idle fleet
#: with outstanding groups can only mean drawn-and-lost tasks (idle
#: workers drain a live queue in milliseconds), so this recovery charges
#: the group's attempt budget exactly like an attributed crash; requeues
#: stay idempotent through the index dedupe.
_IDLE_REQUEUE_S = 2.0

#: Seconds an idle worker blocks on the task queue before checking that
#: its parent is still alive.
_PARENT_POLL_S = 0.5


class CampaignError(RuntimeError):
    """A work group exhausted its crash-retry budget."""


def _worker_main(campaign: Campaign, task_q, conn) -> None:
    """Persistent worker: pull groups until the ``None`` sentinel.

    Messages on the worker's own result pipe ``conn`` are
    ``(kind, group_key, payload)``: ``claim``/``done`` bracket a group,
    ``item`` carries one ``(index, result)``, ``error`` carries a
    deterministic exception (pre-checked picklable, else its traceback
    text). Every message is also a liveness heartbeat. Sends are
    synchronous and nobody else writes to the pipe, so a worker that
    dies mid-item can neither lose nor wedge another worker's messages.
    The worker exits on its own once its parent is gone, checking
    between items and while idle.
    """
    parent = multiprocessing.parent_process()
    while parent.is_alive():
        try:
            task = task_q.get(timeout=_PARENT_POLL_S)
        except queue.Empty:
            continue
        if task is None:
            return
        key, items = task
        conn.send(("claim", key, None))
        try:
            for item in items:
                if not parent.is_alive():
                    return
                result = campaign.run_item(item)
                conn.send(("item", key, (item.index, result)))
            conn.send(("done", key, None))
        except BaseException as exc:  # deterministic failure: report, stay alive
            if not parent.is_alive():  # e.g. a send that broke with the pipe
                return
            text = traceback.format_exc()
            try:
                pickle.dumps(exc)
                payload = (exc, text)
            except Exception:
                payload = (None, f"{exc!r}\n{text}")
            conn.send(("error", key, payload))


def _kill(proc) -> None:
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
        proc.kill()
        proc.join(timeout=2.0)


def run_stealing(
    campaign: Campaign,
    pending: Sequence[Any],
    workers: int,
    finish: Callable[[Any, Any], None],
    *,
    max_attempts: int = 3,
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    poll_s: float = DEFAULT_POLL_S,
    stats: Optional[Dict[str, int]] = None,
) -> None:
    """Run ``pending`` through persistent stealing workers.

    ``finish(item, result)`` is invoked in the parent exactly once per
    item (store write + progress accounting), in completion order.
    ``stats`` (if given) accumulates ``claims``/``requeues``/
    ``worker_deaths``/``replacements`` counters for tests and benches.
    """
    if stats is None:
        stats = {}
    for name in ("claims", "requeues", "worker_deaths", "replacements"):
        stats.setdefault(name, 0)

    groups: Dict[Hashable, List[Any]] = {}
    for item in pending:
        groups.setdefault(campaign.group_key(item), []).append(item)
    by_index = {item.index: item for item in pending}

    ctx = multiprocessing.get_context()
    task_q = ctx.Queue()
    for key, items in groups.items():
        task_q.put((key, items))

    unfinished = dict(groups)
    finished_indices: set = set()
    failures: Dict[Hashable, int] = {}
    procs: Dict[int, Any] = {}
    pipes: Dict[int, Any] = {}
    held: Dict[int, Optional[Hashable]] = {}
    last_seen: Dict[int, float] = {}
    next_id = 0

    def spawn() -> None:
        nonlocal next_id
        wid = next_id
        next_id += 1
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main, args=(campaign, task_q, writer), daemon=True
        )
        proc.start()
        # The worker now holds the only write end: its death reads as EOF.
        writer.close()
        procs[wid] = proc
        pipes[wid] = reader
        held[wid] = None
        last_seen[wid] = time.monotonic()

    def fail_worker(wid: int, why: str) -> None:
        _kill(procs.pop(wid))
        pipes.pop(wid).close()
        key = held.pop(wid)
        last_seen.pop(wid)
        stats["worker_deaths"] += 1
        if key is not None and key in unfinished:
            failures[key] = failures.get(key, 0) + 1
            if failures[key] >= max_attempts:
                raise CampaignError(
                    f"campaign {campaign.name!r}: group {key!r} {why} "
                    f"{max_attempts} time(s); giving up"
                )
            task_q.put((key, groups[key]))
            stats["requeues"] += 1
        spawn()
        stats["replacements"] += 1

    for _ in range(min(workers, max(1, len(groups)))):
        spawn()

    idle_since: Optional[float] = None
    try:
        while unfinished:
            by_pipe = {pipe: wid for wid, pipe in pipes.items()}
            ready = multiprocessing.connection.wait(list(by_pipe), timeout=poll_s)
            for pipe in ready:
                wid = by_pipe[pipe]
                if wid not in pipes:  # failed earlier in this batch
                    continue
                try:
                    kind, key, payload = pipe.recv()
                except (EOFError, OSError):
                    fail_worker(wid, "crashed its worker")
                    continue
                last_seen[wid] = time.monotonic()
                if kind == "claim":
                    held[wid] = key
                    stats["claims"] += 1
                elif kind == "item":
                    index, result = payload
                    # A requeued group can race its original worker;
                    # first completion wins (identical content anyway).
                    if index not in finished_indices:
                        finished_indices.add(index)
                        finish(by_index[index], result)
                elif kind == "done":
                    held[wid] = None
                    unfinished.pop(key, None)
                elif kind == "error":
                    exc, text = payload
                    if exc is not None:
                        raise exc
                    raise CampaignError(
                        f"campaign {campaign.name!r}: group {key!r} raised:\n{text}"
                    )
            if ready:
                idle_since = None
                continue

            now = time.monotonic()
            for wid in list(procs):
                if pipes[wid].poll():
                    continue  # read its last messages (or EOF) first
                if not procs[wid].is_alive():
                    fail_worker(wid, "crashed its worker")
                elif (
                    held[wid] is not None
                    and now - last_seen[wid] > heartbeat_timeout_s
                ):
                    fail_worker(wid, "hung past the heartbeat timeout")

            # Lost-task recovery: everyone idle yet groups outstanding
            # means a worker died between drawing a task and claiming it.
            if unfinished and all(held[wid] is None for wid in procs):
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > max(_IDLE_REQUEUE_S, 4 * poll_s):
                    for key in list(unfinished):
                        failures[key] = failures.get(key, 0) + 1
                        if failures[key] >= max_attempts:
                            raise CampaignError(
                                f"campaign {campaign.name!r}: group {key!r} "
                                f"was lost to dying workers {max_attempts} "
                                f"time(s); giving up"
                            )
                        task_q.put((key, groups[key]))
                        stats["requeues"] += 1
                    idle_since = None
            else:
                idle_since = None
    finally:
        for _ in procs:
            try:
                task_q.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        deadline = time.monotonic() + 2.0
        for proc in procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            _kill(proc)
        for pipe in pipes.values():
            pipe.close()
        task_q.cancel_join_thread()
