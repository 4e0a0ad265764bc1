"""The persistent worker pool: long-lived shard runners with warm starts.

This is the engine's only way to run shards in more than one process.
``run_campaign`` opens a throwaway pool for a one-off multi-worker
campaign; sweeps pass one in (``worker_pool=``) so worker start *and*
world builds are paid once per sweep instead of once per campaign:

* each worker slot owns a dedicated task queue and a dedicated outbound
  queue (heartbeats + results), so one crashed writer can never corrupt
  a channel other workers share;
* dispatch is deterministic round-robin — task *i* goes to slot
  ``i % workers`` — so repeated campaigns route the same shard to the
  same slot and its :class:`~repro.parallel.protocol.WorldImageCache`
  actually hits;
* workers warm-start deployed-campaign shards from cached
  :class:`~repro.fleet.WorldImage` captures instead of rebuilding the
  fleet (bit-identical results; see ``docs/performance.md``);
* a daemon thread in every worker emits
  :class:`~repro.parallel.protocol.Heartbeat` beacons; the coordinator
  detects a dead or wedged worker (process exit, stale heartbeat, or a
  per-task deadline) and **respawns the slot without losing the
  campaign** — outstanding tasks are requeued to the fresh worker, up
  to an attempts cap;
* a worker that exits with an error before announcing itself failed
  to start, so the pool raises :class:`PoolError` instead of respawning;
* Python exceptions raised inside a shard are *propagated*, never
  retried: the worlds are deterministic, so a deterministic failure
  would just fail again.

Start method: ``forkserver`` where available (clean template process,
no inherited locks), else ``fork``, else ``spawn`` — the worker entry
point imports everything it needs, so all three behave identically.
The forkserver preloads the engine, so each worker forks with
``repro`` already imported, however the coordinator found it
(:func:`_start_forkserver`).

The coordinator collects results as they arrive: when nothing is
readable it blocks on the outbound queue of a busy slot, for at most
one heartbeat interval, and checks its workers at least once per
interval while it waits.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import multiprocessing
from multiprocessing import forkserver

from repro.parallel.protocol import (
    Heartbeat,
    Shutdown,
    TaskRequest,
    TaskResult,
    WorkerHello,
    WorldImageCache,
)

#: How long a worker sleeps between heartbeats (seconds).
HEARTBEAT_INTERVAL = 0.25

#: Heartbeats a worker may miss before the coordinator declares it dead.
HEARTBEAT_GRACE = 40

#: How many times one task may be dispatched before the pool gives up.
MAX_TASK_ATTEMPTS = 3


class PoolError(RuntimeError):
    """The pool cannot make progress (start-up failure, retries exhausted)."""


class WorkerTaskError(RuntimeError):
    """A shard raised inside a worker; carries the worker traceback."""

    def __init__(self, task_id: int, worker: int, worker_traceback: str) -> None:
        super().__init__(
            f"task {task_id} raised in worker {worker}:\n{worker_traceback}"
        )
        self.task_id = task_id
        self.worker = worker
        self.worker_traceback = worker_traceback


def preferred_start_method() -> str:
    """``forkserver`` > ``fork`` > ``spawn``, whichever the platform has."""
    methods = multiprocessing.get_all_start_methods()
    return next(m for m in ("forkserver", "fork", "spawn") if m in methods)


def _start_forkserver() -> None:
    """Start the forkserver so that its preload can import ``repro``.

    The forkserver is a fresh interpreter that never sees the
    coordinator's ``sys.path``, so the directory holding this ``repro``
    goes first on its ``PYTHONPATH`` for that one start.  A forkserver
    that is already running is left alone.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + ([saved] if saved else [])
    )
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def task_overdue(
    busy_since: Optional[float], now: float, timeout: Optional[float]
) -> bool:
    """Has a worker been grinding without producing, past *timeout*?

    ``busy_since`` is coordinator-side bookkeeping: the moment the
    worker's current head-of-line task became its sole focus (first
    dispatch while idle, or the arrival of the previous result while
    more tasks were outstanding).  ``None`` means idle.  A ``None``
    timeout disables the deadline entirely — shards can legitimately
    run for minutes.
    """
    if timeout is None or busy_since is None:
        return False
    return (now - busy_since) > timeout


def _worker_main(
    slot: int,
    task_queue: Any,
    out_queue: Any,
    heartbeat_interval: float,
    cache_entries: int,
) -> None:
    """Worker process entry point: loop tasks until :class:`Shutdown`.

    Imports the engine lazily so the module graph stays acyclic
    (``engine`` imports this module for the pooled execution path) and
    the entry point works under every start method.
    """
    from repro.parallel.engine import run_shard

    cache = WorldImageCache(max_entries=cache_entries)
    out_queue.put(WorkerHello(worker=slot, pid=os.getpid()))

    stop = threading.Event()

    def beat() -> None:
        seq = 0
        while not stop.is_set():
            try:
                out_queue.put(Heartbeat(worker=slot, seq=seq))
            except Exception:  # pragma: no cover - queue torn down mid-exit
                return
            seq += 1
            stop.wait(heartbeat_interval)

    heartbeats = threading.Thread(target=beat, daemon=True)
    heartbeats.start()
    try:
        while True:
            message = task_queue.get()
            if isinstance(message, Shutdown):
                return
            result, error = None, None
            try:
                result = run_shard(message.spec, image_cache=cache)
            except BaseException:
                error = traceback.format_exc()
            out_queue.put(
                TaskResult(
                    task_id=message.task_id,
                    worker=slot,
                    result=result,
                    error=error,
                    cache=cache.stats(),
                )
            )
    finally:
        stop.set()


@dataclass
class _Slot:
    """Coordinator-side state for one worker slot."""

    index: int
    process: Any = None
    task_queue: Any = None
    out_queue: Any = None
    #: task_id -> TaskRequest, in dispatch order
    outstanding: Dict[int, TaskRequest] = field(default_factory=dict)
    busy_since: Optional[float] = None
    last_heartbeat: Optional[float] = None
    #: the current process has sent its :class:`WorkerHello`
    hello: bool = False
    cache_stats: Dict[str, int] = field(default_factory=dict)


class WorkerPool:
    """A fixed set of persistent shard-running worker processes.

    Usable as a context manager; :meth:`run` may be called repeatedly
    (that is the point — campaign sweeps reuse the workers *and* their
    world-image caches).  All coordinator bookkeeping uses its own
    monotonic clock; nothing compares clocks across processes.
    """

    def __init__(
        self,
        workers: int,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        task_timeout: Optional[float] = None,
        max_task_attempts: int = MAX_TASK_ATTEMPTS,
        cache_entries: int = 4,
        observer: Any = None,
    ) -> None:
        if workers < 1:
            raise PoolError("need at least one worker")
        self.workers = workers
        self.start_method = preferred_start_method()
        self.heartbeat_interval = heartbeat_interval
        self.task_timeout = task_timeout
        self.max_task_attempts = max_task_attempts
        self.cache_entries = cache_entries
        self._observer = observer
        self._context = multiprocessing.get_context(self.start_method)
        if self.start_method == "forkserver":
            self._context.set_forkserver_preload(["repro.parallel.engine"])
        self._slots: List[_Slot] = [_Slot(index=i) for i in range(workers)]
        self._started = False
        self._closed = False
        self._on_dispatch: Optional[Callable[[int, int], None]] = None
        # lifetime accounting
        self.respawns = 0
        self.tasks_completed = 0
        self.warm_starts = 0
        self.cold_builds = 0
        self.busy_seconds = 0.0
        self.run_wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def start(self) -> None:
        """Spawn every worker (idempotent)."""
        if self._closed:
            raise PoolError("pool is closed")
        if self._started:
            return
        if self.start_method == "forkserver":
            _start_forkserver()
        for slot in self._slots:
            self._spawn(slot)
        self._started = True

    def close(self) -> None:
        """Shut the workers down (join briefly, then terminate) and
        close their queues, so no feeder thread outlives the pool.

        Each worker's outbound queue is drained while it is joined: a
        worker flushes its queued heartbeats before it exits, and an
        idle pool's pipe may already be full.
        """
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.process is None:
                continue
            try:
                slot.task_queue.put(Shutdown())
            except Exception:  # pragma: no cover - queue already broken
                pass
        for slot in self._slots:
            if slot.process is None:
                continue
            self._join_draining(slot, timeout=2.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            for channel in (slot.task_queue, slot.out_queue):
                channel.close()
                channel.join_thread()

    @staticmethod
    def _join_draining(slot: _Slot, timeout: float) -> None:
        """Join *slot*'s worker, discarding what it still sends meanwhile."""
        deadline = time.monotonic() + timeout
        while slot.process.is_alive() and time.monotonic() < deadline:
            try:
                slot.out_queue.get(timeout=0.05)
            except queue_module.Empty:
                pass
            except (EOFError, OSError):  # pragma: no cover - torn pipe
                slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
                return

    def _spawn(self, slot: _Slot) -> None:
        """(Re)create the processes and queues behind one slot."""
        slot.task_queue = self._context.Queue()
        slot.out_queue = self._context.Queue()
        slot.process = self._context.Process(
            target=_worker_main,
            args=(
                slot.index,
                slot.task_queue,
                slot.out_queue,
                self.heartbeat_interval,
                self.cache_entries,
            ),
            daemon=True,
        )
        slot.process.start()
        slot.hello = False
        slot.busy_since = None
        slot.last_heartbeat = time.monotonic()

    # -- test hooks ----------------------------------------------------------

    def kill_worker(self, slot_index: int) -> None:
        """SIGKILL one worker process (crash-injection for tests)."""
        process = self._slots[slot_index].process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        specs: List[Any],
        on_dispatch: Optional[Callable[[int, int], None]] = None,
    ) -> List[Any]:
        """Run every spec, returning results in spec order.

        Dispatch is deterministic round-robin (spec *i* to slot
        ``i % workers``); *on_dispatch(task_id, slot_index)* fires after
        each enqueue (tests use it to kill a worker at a precise,
        reproducible moment).  Results are collected by ``task_id``, so
        neither completion order nor respawns can reorder them.
        """
        if self._closed:
            raise PoolError("pool is closed")
        if not specs:
            return []
        self.start()
        started = time.monotonic()
        attempts: Dict[int, int] = {}
        results: Dict[int, Any] = {}
        self._on_dispatch = on_dispatch
        try:
            for task_id, spec in enumerate(specs):
                slot = self._slots[task_id % self.workers]
                self._dispatch(
                    slot, TaskRequest(task_id=task_id, spec=spec), attempts
                )
            while len(results) < len(specs):
                if not self._drain(results):
                    self._check_workers(attempts, results)
                    self._await_message(results)
        finally:
            self._on_dispatch = None
            self.run_wall_seconds += time.monotonic() - started
        self._emit_run_metrics()
        return [results[task_id] for task_id in range(len(specs))]

    # -- internals -----------------------------------------------------------

    def _dispatch(
        self, slot: _Slot, request: TaskRequest, attempts: Dict[int, int]
    ) -> None:
        count = attempts.get(request.task_id, 0) + 1
        if count > self.max_task_attempts:
            raise PoolError(
                f"task {request.task_id} failed {self.max_task_attempts} "
                "dispatch attempts (worker kept dying)"
            )
        attempts[request.task_id] = count
        slot.outstanding[request.task_id] = request
        if slot.busy_since is None:
            slot.busy_since = time.monotonic()
        slot.task_queue.put(request)
        if self._on_dispatch is not None:
            self._on_dispatch(request.task_id, slot.index)

    def _drain(self, results: Dict[int, Any]) -> bool:
        """Collect everything currently readable; True if anything was."""
        progressed = False
        now = time.monotonic()
        for slot in self._slots:
            while True:
                try:
                    message = slot.out_queue.get_nowait()
                except queue_module.Empty:
                    break
                except (EOFError, OSError):  # pragma: no cover - torn pipe
                    break
                progressed = True
                self._receive(slot, message, results, now)
        return progressed

    def _await_message(self, results: Dict[int, Any]) -> None:
        """Block until a busy slot sends something, or one heartbeat
        interval passes.

        Every task is dispatched before the first wait, so waking on any
        one busy slot is enough: the run ends only once every slot has
        answered, and a silent or dead slot is caught by the worker
        check that follows the timeout.
        """
        slot = next(s for s in self._slots if s.outstanding)
        try:
            message = slot.out_queue.get(timeout=self.heartbeat_interval)
        except (queue_module.Empty, EOFError, OSError):  # nothing, or torn pipe
            return
        self._receive(slot, message, results, time.monotonic())

    def _receive(
        self, slot: _Slot, message: Any, results: Dict[int, Any], now: float
    ) -> None:
        if isinstance(message, WorkerHello):
            slot.hello = True
        if isinstance(message, (Heartbeat, WorkerHello)):
            slot.last_heartbeat = now
            return
        if isinstance(message, TaskResult):
            slot.last_heartbeat = now
            self._absorb(slot, message, results, now)

    def _absorb(
        self, slot: _Slot, message: TaskResult, results: Dict[int, Any], now: float
    ) -> None:
        slot.outstanding.pop(message.task_id, None)
        slot.busy_since = now if slot.outstanding else None
        slot.cache_stats = dict(message.cache)
        if message.error is not None:
            raise WorkerTaskError(message.task_id, slot.index, message.error)
        results[message.task_id] = message.result
        self.tasks_completed += 1
        result = message.result
        source = getattr(result, "world_source", "cold")
        if source == "warm":
            self.warm_starts += 1
        else:
            self.cold_builds += 1
        self.busy_seconds += getattr(result, "wall_seconds", 0.0)
        metrics = self._metrics()
        if metrics is not None:
            metrics.histogram("parallel.pool.world_seconds").observe(
                getattr(result, "world_seconds", 0.0)
            )
            metrics.counter("parallel.pool.tasks").inc(1, world=source)

    def _check_workers(
        self, attempts: Dict[int, int], results: Dict[int, Any]
    ) -> None:
        """Respawn any slot that is dead, silent, or past its deadline.

        A worker that exited with an error before its :class:`WorkerHello`
        never started; a fresh one would fail alike, so that raises.
        """
        now = time.monotonic()
        stale_after = self.heartbeat_interval * HEARTBEAT_GRACE
        for slot in self._slots:
            dead = slot.process is not None and not slot.process.is_alive()
            if dead and not slot.hello and slot.process.exitcode > 0:
                raise PoolError(
                    f"worker {slot.index} exited with code "
                    f"{slot.process.exitcode} before it started; likely "
                    "cause: the calling script has no "
                    "`if __name__ == \"__main__\":` guard, so every "
                    f"{self.start_method} worker re-runs it on import"
                )
            silent = (
                not dead
                and slot.outstanding
                and slot.last_heartbeat is not None
                and (now - slot.last_heartbeat) > stale_after
            )
            overdue = task_overdue(slot.busy_since, now, self.task_timeout)
            if not (dead or silent or overdue):
                continue
            self._respawn(slot, attempts, results)

    def _respawn(
        self, slot: _Slot, attempts: Dict[int, int], results: Dict[int, Any]
    ) -> None:
        """Replace a failed worker and requeue its outstanding tasks.

        The fresh worker starts with an empty world-image cache, so the
        requeued shards run cold — slower, but bit-identical (that
        equivalence is exactly what the warm-start tests pin down).
        """
        process = slot.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stubborn process
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=1.0)
        # Salvage results the worker managed to send before dying, then
        # requeue whatever never came back.  The old queues die with the
        # slot: a killed writer can hold a queue lock forever, so the
        # replacement worker gets fresh channels.
        self._drain(results)
        requeue = [slot.outstanding[task_id] for task_id in sorted(slot.outstanding)]
        slot.outstanding = {}
        self.respawns += 1
        self._spawn(slot)
        for request in requeue:
            self._dispatch(slot, request, attempts)

    def _metrics(self) -> Any:
        """The metrics registry behind *observer*, if any.

        Accepts either an :class:`~repro.obs.runtime.Observability`
        (uses its ``.metrics`` registry) or a bare
        :class:`~repro.obs.metrics.MetricsRegistry`.  These are
        *coordinator-side* pool metrics; they never enter the merged
        shard results, so pooled campaign output stays bit-identical
        to serial.
        """
        if self._observer is None:
            return None
        return getattr(self._observer, "metrics", self._observer)

    def _emit_run_metrics(self) -> None:
        metrics = self._metrics()
        if metrics is None:
            return
        metrics.gauge("parallel.pool.utilization").set(self.utilization)
        metrics.gauge("parallel.pool.respawns").set(self.respawns)

    # -- accounting ----------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds, 0..1."""
        available = self.workers * self.run_wall_seconds
        return (self.busy_seconds / available) if available > 0 else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-able pool accounting (reports, benchmarks, CLI)."""
        cache = {"entries": 0, "hits": 0, "misses": 0}
        for slot in self._slots:
            for key in cache:
                cache[key] += slot.cache_stats.get(key, 0)
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "tasks": self.tasks_completed,
            "warm_starts": self.warm_starts,
            "cold_builds": self.cold_builds,
            "respawns": self.respawns,
            "busy_seconds": self.busy_seconds,
            "run_wall_seconds": self.run_wall_seconds,
            "utilization": self.utilization,
            "image_cache": cache,
        }
