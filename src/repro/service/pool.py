"""Persistent worker-process pool with shared-snapshot catalog attach.

The pre-PR-7 ``run_batch(executor="process")`` built a fresh
``ProcessPoolExecutor`` per call and pickled the whole catalog into every
worker's initializer -- on few-core boxes the pickling dominated and the
"parallel" path was measurably *slower* than sequential (0.85x in
BENCH_intersection.json).  This module replaces that with a persistent
pool whose workers never receive a pickled catalog at all:

* **fork inheritance** -- catalogs registered before a worker starts are
  inherited copy-on-write through ``fork`` (zero serialization, zero
  copies until pages are written, which frozen catalogs never are);
* **snapshot attach** -- catalogs published after start are written once
  to a shared on-disk spool via the PR-6 snapshot tier
  (:func:`repro.storage.snapshot.save_catalog_snapshot`) and workers
  cold-start from the spool, keyed by the PR-5
  :meth:`~repro.tables.catalog.Catalog.fingerprint`.

Each worker keeps a small LRU of attached engines (one per catalog
fingerprint), so mutation-heavy serving degrades to "re-attach on
fingerprint change" rather than "re-pickle on every request".  The
parent talks to each worker over a dedicated duplex pipe driven by one
dispatcher thread per worker; worker death is detected on the pipe
(EOF/broken pipe) or via a job timeout, the process is respawned, and
the in-flight job is retried on the fresh worker up to
``PoolConfig.retries`` times before failing with a typed
:class:`~repro.exceptions.WorkerCrashedError` -- clients never hang on a
dead pipe.  A bounded pending queue sheds load with
:class:`~repro.exceptions.PoolBusyError` instead of queueing without
limit.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

import multiprocessing
import multiprocessing.connection

from repro.config import DEFAULT_CONFIG, PoolConfig, SynthesisConfig
from repro.exceptions import (
    PoolBusyError,
    SnapshotAttachError,
    WorkerCrashedError,
    WorkerPoolError,
)
from repro.tables.catalog import Catalog

__all__ = ["WorkerPool"]


# -- child-side plumbing (module level: importable under spawn) ---------------
#
# Catalogs a forked child should inherit.  The parent sets this (under
# ``_SPAWN_LOCK``) immediately around ``Process.start()`` so the fork
# snapshot carries exactly the pool's registered catalogs; under the
# spawn start method the re-imported module sees an empty dict and the
# worker falls back to the snapshot spool.
_FORK_INHERITED: Dict[str, Catalog] = {}
_SPAWN_LOCK = threading.Lock()


def _picklable_error(error: BaseException) -> BaseException:
    """``error`` if it survives pickling, else a repr-preserving stand-in."""
    try:
        pickle.dumps(error)
        return error
    except Exception:  # noqa: BLE001 -- any failure means "substitute"
        return WorkerPoolError(f"unpicklable worker error: {error!r}")


def _attach_engine(
    engines: "OrderedDict[str, Any]",
    inherited: Dict[str, Catalog],
    job: Dict[str, Any],
    language: str,
    config: SynthesisConfig,
    limit: int,
):
    """The worker's engine for ``job``'s fingerprint, attaching if needed.

    Resolution order: (1) the worker-local engine LRU, (2) a
    fork-inherited catalog, (3) a verified snapshot from the shared
    spool.  Nothing is ever unpickled from the request itself.
    """
    from repro.api.engine import Synthesizer
    from repro.storage.snapshot import load_catalog_snapshot

    fingerprint = job["fingerprint"]
    engine = engines.get(fingerprint)
    if engine is not None:
        engines.move_to_end(fingerprint)
        return engine
    catalog = inherited.get(fingerprint)
    if catalog is None:
        directory = job.get("snapshot_dir")
        if directory:
            loaded = load_catalog_snapshot(directory)
            if loaded is not None and loaded.fingerprint() == fingerprint:
                catalog = loaded
    if catalog is None:
        raise SnapshotAttachError(
            fingerprint,
            "not fork-inherited and no loadable snapshot in the spool",
        )
    engine = Synthesizer(catalog=catalog, language=language, config=config)
    engines[fingerprint] = engine
    while len(engines) > max(1, limit):
        engines.popitem(last=False)
    return engine


def _worker_main(
    conn: multiprocessing.connection.Connection,
    language: str,
    config: SynthesisConfig,
    engine_cache: int,
) -> None:
    """Worker loop: recv job dicts, send reply dicts, exit on ``None``/EOF."""
    from repro.api.engine import _result_to_payload

    inherited = dict(_FORK_INHERITED)
    engines: "OrderedDict[str, Any]" = OrderedDict()
    pid = os.getpid()
    jobs_done = 0
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        reply: Dict[str, Any] = {"ok": True, "pid": pid, "payload": None}
        try:
            kind = job["kind"]
            if kind == "invalidate":
                # Drop superseded engines; the next job for a live
                # fingerprint re-attaches from inheritance or the spool.
                for fp in job.get("fingerprints", ()):
                    engines.pop(fp, None)
            elif kind != "ping":
                engine = _attach_engine(
                    engines, inherited, job, language, config, engine_cache
                )
                if kind == "synthesize":
                    result = engine.synthesize(job["task"], k=job["k"])
                    reply["payload"] = _result_to_payload(result)
                elif kind == "fill":
                    from repro.engine.program import Program

                    program = Program.from_dict(
                        job["program"], catalog=engine.catalog
                    )
                    reply["payload"] = program.fill_aligned(job["rows"])
        except BaseException as error:  # noqa: BLE001 -- relayed to the parent
            reply = {"ok": False, "pid": pid, "error": _picklable_error(error)}
        jobs_done += 1
        reply["attached"] = list(engines.keys())
        reply["jobs"] = jobs_done
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# -- parent-side structures ---------------------------------------------------
class _WorkerDied(Exception):
    """Internal: the current worker process is gone (or wedged and killed)."""


class _Job:
    __slots__ = ("payload", "future", "retries_left")

    def __init__(self, payload: Dict[str, Any], future: Future, retries: int):
        self.payload = payload
        self.future = future
        self.retries_left = retries


class _Slot:
    """One worker seat: the live process/pipe plus its lifetime counters."""

    __slots__ = (
        "index", "process", "conn", "busy", "jobs", "respawns",
        "attached", "dead", "thread", "pending_invalidations",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        self.busy = False
        self.jobs = 0
        self.respawns = 0
        self.attached: List[str] = []
        self.dead = False
        self.thread: Optional[threading.Thread] = None
        self.pending_invalidations: set = set()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """A fixed-size pool of synthesis worker processes.

    The pool is bound to one ``(language, config)`` pair; catalogs vary
    per job, keyed by fingerprint.  ``catalogs`` given at construction
    are fork-inherited by every worker (and by respawns); catalogs first
    seen later are published once to the shared snapshot spool.

    Args:
        workers: pool size (>= 1).
        language: backend name, as for ``Synthesizer``.
        config: synthesis config shared by all workers.
        pool: lifecycle knobs (:class:`repro.config.PoolConfig`); its
            ``workers`` field is ignored in favor of the explicit arg.
        catalogs: catalogs to register for fork inheritance up front.
        spool_dir: shared snapshot spool directory; ``None`` creates a
            pool-owned temporary directory (removed on ``close``).
    """

    def __init__(
        self,
        workers: int,
        language: str = "semantic",
        config: SynthesisConfig = DEFAULT_CONFIG,
        pool: Optional[PoolConfig] = None,
        catalogs: Iterable[Catalog] = (),
        spool_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.language = language
        self.config = config
        self.pool_config = pool or PoolConfig()
        start_method = self.pool_config.start_method
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._ctx = multiprocessing.get_context(start_method)
        self._fork_start = self._ctx.get_start_method() == "fork"

        self._owned_spool: Optional[tempfile.TemporaryDirectory] = None
        if spool_dir is None:
            self._owned_spool = tempfile.TemporaryDirectory(prefix="repro-pool-")
            spool_dir = self._owned_spool.name
        self._spool = Path(spool_dir)
        self._spool.mkdir(parents=True, exist_ok=True)

        # Catalog bookkeeping (all under _publish_lock):
        #   _fork_catalogs: fingerprint -> catalog, inherited by (re)spawned
        #       workers under the fork start method;
        #   _published: fingerprint -> spool subdirectory (LRU, pruned to
        #       pool_config.spool_keep).
        self._publish_lock = threading.Lock()
        self._fork_catalogs: "OrderedDict[str, Catalog]" = OrderedDict()
        self._published: "OrderedDict[str, str]" = OrderedDict()
        self._initial_fps: List[str] = []
        for catalog in catalogs:
            self._register_catalog(catalog)

        self._cv = threading.Condition()
        self._jobs: "deque[_Job]" = deque()
        self._closing = False
        self._closed = False
        self._total_respawns = 0
        self._total_jobs = 0
        self._invalidations = 0

        self._slots = [_Slot(i) for i in range(workers)]
        started: List[_Slot] = []
        try:
            for slot in self._slots:
                self._start_worker(slot)
                started.append(slot)
            if self.pool_config.warmup and self._initial_fps:
                self._warm_started(started)
        except BaseException:
            for slot in started:
                self._kill_slot(slot)
            if self._owned_spool is not None:
                self._owned_spool.cleanup()
            raise
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"repro-pool-dispatch-{slot.index}",
                daemon=True,
            )
            slot.thread.start()

    # -- catalog registration / publication ------------------------------
    def _register_catalog(self, catalog: Catalog) -> str:
        """Record ``catalog`` for fork inheritance (pre-start fast path)."""
        if catalog.storage_backed:
            raise WorkerPoolError(
                "storage-backed catalogs cannot cross the pool boundary "
                "(live database handles do not survive fork); materialize "
                "first or serve in-process"
            )
        catalog.freeze()  # frozen snapshots are shared verbatim by workers
        fingerprint = catalog.fingerprint()
        with self._publish_lock:
            if fingerprint not in self._fork_catalogs:
                self._fork_catalogs[fingerprint] = catalog
                self._initial_fps.append(fingerprint)
        return fingerprint

    def publish(self, catalog: Catalog) -> Tuple[str, Optional[str]]:
        """Make ``catalog`` attachable by every worker; returns the spec.

        Idempotent per fingerprint: known catalogs return immediately.
        New ones are snapshotted once into the spool (and recorded for
        fork inheritance by future respawns).  Returns ``(fingerprint,
        snapshot_dir)`` where ``snapshot_dir`` is ``None`` when workers
        are expected to hold a fork-inherited copy already.
        """
        if catalog.storage_backed:
            raise WorkerPoolError(
                "storage-backed catalogs cannot cross the pool boundary"
            )
        catalog.freeze()
        fingerprint = catalog.fingerprint()
        with self._publish_lock:
            if fingerprint in self._published:
                self._published.move_to_end(fingerprint)
                return fingerprint, self._published[fingerprint]
            if self._fork_start and fingerprint in self._fork_catalogs:
                return fingerprint, None
        # Snapshot outside the lock: saving builds indexes and writes
        # blobs, and save_catalog_snapshot no-ops on a repeat fingerprint,
        # so a racing duplicate publish costs a cheap manifest check.
        from repro.storage.snapshot import save_catalog_snapshot

        directory = self._spool / fingerprint[:32]
        try:
            save_catalog_snapshot(directory, catalog)
        except Exception as error:  # noqa: BLE001 -- surfaced as pool-level
            raise WorkerPoolError(
                f"could not publish catalog snapshot to the pool spool: {error}"
            ) from error
        with self._publish_lock:
            self._published[fingerprint] = str(directory)
            self._fork_catalogs[fingerprint] = catalog
            keep = max(1, self.pool_config.spool_keep)
            while len(self._published) > keep:
                old_fp, old_dir = self._published.popitem(last=False)
                self._fork_catalogs.pop(old_fp, None)
                shutil.rmtree(old_dir, ignore_errors=True)
        return fingerprint, str(directory)

    def _attach_spec(self, catalog: Catalog) -> Tuple[str, Optional[str]]:
        """``(fingerprint, snapshot_dir)`` for a job, publishing if new."""
        fingerprint = catalog.fingerprint()
        with self._publish_lock:
            if fingerprint in self._published:
                self._published.move_to_end(fingerprint)
                return fingerprint, self._published[fingerprint]
            if self._fork_start and fingerprint in self._fork_catalogs:
                return fingerprint, None
        return self.publish(catalog)

    # -- worker lifecycle -------------------------------------------------
    def _start_worker(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        with self._publish_lock:
            fork_view = dict(self._fork_catalogs)
        global _FORK_INHERITED
        with _SPAWN_LOCK:
            _FORK_INHERITED = fork_view
            try:
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        self.language,
                        self.config,
                        self.pool_config.engine_cache,
                    ),
                    name=f"repro-pool-worker-{slot.index}",
                    daemon=True,
                )
                process.start()
            finally:
                _FORK_INHERITED = {}
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn

    def _kill_slot(self, slot: _Slot) -> None:
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        if slot.process is not None and slot.process.is_alive():
            slot.process.terminate()
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)

    def _respawn(self, slot: _Slot) -> bool:
        """Replace a dead worker; False when closing or start fails."""
        self._kill_slot(slot)
        if self._closing:
            return False
        try:
            self._start_worker(slot)
        except OSError:
            slot.dead = True
            return False
        slot.respawns += 1
        slot.attached = []
        with self._cv:
            self._total_respawns += 1
        return True

    def _warm_started(self, slots: List[_Slot]) -> None:
        """Pre-attach every initial catalog on every worker, in parallel.

        Jobs are written to all pipes first, then replies drained, so
        workers warm concurrently; a worker that fails warmup raises.
        """
        with self._publish_lock:
            specs = [
                {"kind": "attach", "fingerprint": fp,
                 "snapshot_dir": self._published.get(fp)}
                for fp in self._initial_fps
            ]
        for slot in slots:
            for spec in specs:
                slot.conn.send(spec)
        deadline = time.monotonic() + 120.0
        for slot in slots:
            for _ in specs:
                if not slot.conn.poll(max(0.1, deadline - time.monotonic())):
                    raise WorkerPoolError(
                        f"worker pid={slot.pid} did not finish warmup"
                    )
                reply = slot.conn.recv()
                if not reply.get("ok"):
                    raise reply["error"]
                slot.attached = list(reply.get("attached", ()))
                slot.jobs = int(reply.get("jobs", slot.jobs))

    # -- dispatch ---------------------------------------------------------
    def _dispatch_loop(self, slot: _Slot) -> None:
        while True:
            with self._cv:
                while not self._jobs and not self._closing:
                    self._cv.wait()
                if not self._jobs:
                    return  # closing and drained
                if slot.dead:
                    return  # unrespawnable seat: leave jobs to live slots
                job = self._jobs.popleft()
                slot.busy = True
                pending = list(slot.pending_invalidations)
                slot.pending_invalidations.clear()
            try:
                if pending:
                    self._flush_invalidations(slot, pending)
                self._run_job(slot, job)
            finally:
                slot.busy = False

    def _flush_invalidations(self, slot: _Slot, fingerprints: List[str]) -> None:
        """Drop superseded engines in the worker before its next job.

        A worker that dies mid-flush is respawned; the fresh process
        holds no engines at all, so the invalidation is moot for it.
        """
        try:
            reply = self._roundtrip(
                slot, {"kind": "invalidate", "fingerprints": fingerprints}
            )
            slot.attached = list(reply.get("attached", slot.attached))
            slot.jobs = int(reply.get("jobs", slot.jobs))
        except _WorkerDied:
            self._respawn(slot)

    def _run_job(self, slot: _Slot, job: _Job) -> None:
        while True:
            crashed_pid = slot.pid
            try:
                reply = self._roundtrip(slot, job.payload)
            except _WorkerDied as death:
                if self._respawn(slot) and job.retries_left > 0:
                    job.retries_left -= 1
                    continue
                job.future.set_exception(
                    WorkerCrashedError(crashed_pid, str(death))
                )
                return
            slot.jobs = int(reply.get("jobs", slot.jobs + 1))
            slot.attached = list(reply.get("attached", slot.attached))
            with self._cv:
                self._total_jobs += 1
            if reply.get("ok"):
                job.future.set_result(reply.get("payload"))
            else:
                job.future.set_exception(reply["error"])
            return

    def _roundtrip(self, slot: _Slot, payload: Dict[str, Any]) -> Dict[str, Any]:
        timeout = self.pool_config.job_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            slot.conn.send(payload)
            while True:
                if slot.conn.poll(0.2):
                    return slot.conn.recv()
                if not slot.process.is_alive():
                    # One last drain: the reply may have raced the exit.
                    if slot.conn.poll(0.05):
                        return slot.conn.recv()
                    raise _WorkerDied(
                        f"exit code {slot.process.exitcode}"
                    )
                if deadline is not None and time.monotonic() > deadline:
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
                    raise _WorkerDied(f"job timed out after {timeout:g}s")
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise _WorkerDied(str(error) or type(error).__name__) from error

    # -- public API -------------------------------------------------------
    def submit(self, catalog: Catalog, task, k: int = 5) -> Future:
        """Queue one synthesis job; the Future resolves to a result payload.

        The payload is the catalog-free wire form produced by
        ``repro.api.engine._result_to_payload``; rebuild it against the
        parent's catalog with ``Synthesizer.result_from_payload``.

        Raises:
            WorkerPoolError: the pool is closed or has no usable workers.
            PoolBusyError: the pending queue is at ``max_queue``.
        """
        spec_fp, spec_dir = self._attach_spec(catalog)
        payload = {
            "kind": "synthesize",
            "fingerprint": spec_fp,
            "snapshot_dir": spec_dir,
            "task": task,
            "k": k,
        }
        return self._enqueue(payload)

    def _enqueue(self, payload: Dict[str, Any]) -> Future:
        future: Future = Future()
        max_queue = self.pool_config.max_queue
        with self._cv:
            if self._closing or self._closed:
                raise WorkerPoolError("worker pool is closed")
            if all(slot.dead for slot in self._slots):
                raise WorkerPoolError("worker pool has no live workers")
            if max_queue is not None and len(self._jobs) >= max_queue:
                raise PoolBusyError(len(self._jobs), max_queue)
            self._jobs.append(_Job(payload, future, self.pool_config.retries))
            self._cv.notify()
        return future

    def synthesize(self, catalog: Catalog, task, k: int = 5,
                   timeout: Optional[float] = None) -> Dict[str, Any]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(catalog, task, k=k).result(timeout)

    def submit_fill(
        self, catalog: Catalog, program: Dict[str, Any], rows
    ) -> Future:
        """Queue one bulk fill; the Future resolves to the output list.

        ``program`` is the serialized ``Program.to_dict`` payload (live
        Program objects never cross the pipe); the worker rebuilds it
        against its attached copy of ``catalog`` and serves
        ``fill_aligned`` -- through its compiled plan when the pool
        config enables it -- so outputs match the parent's byte for
        byte.  Same backpressure/typed-error contract as :meth:`submit`.
        """
        spec_fp, spec_dir = self._attach_spec(catalog)
        payload = {
            "kind": "fill",
            "fingerprint": spec_fp,
            "snapshot_dir": spec_dir,
            "program": program,
            "rows": [list(row) for row in rows],
        }
        return self._enqueue(payload)

    def fill(self, catalog: Catalog, program: Dict[str, Any], rows,
             timeout: Optional[float] = None) -> List[Optional[str]]:
        """Blocking convenience wrapper around :meth:`submit_fill`."""
        return self.submit_fill(catalog, program, rows).result(timeout)

    def invalidate(self, fingerprints: Iterable[str]) -> None:
        """Mark engine-cache entries for eviction in every worker.

        Called by the serving layer when the changefeed supersedes a
        catalog fingerprint.  Enqueue-only and non-blocking: each
        worker's dispatcher flushes its pending set over the pipe
        immediately before the worker's next job, so mutation latency
        never pays a pool round-trip.  Invalidation is purely an
        eviction hint -- a fingerprint still referenced by an in-flight
        job simply re-attaches on its next use.
        """
        fps = [fp for fp in fingerprints if fp]
        if not fps:
            return
        with self._cv:
            if self._closing or self._closed:
                return
            for slot in self._slots:
                slot.pending_invalidations.update(fps)
            self._invalidations += len(fps)
            self._cv.notify_all()

    def ping(self) -> int:
        """Round-trip a no-op through the queue; returns the worker pid."""
        future: Future = Future()
        with self._cv:
            if self._closing or self._closed:
                raise WorkerPoolError("worker pool is closed")
            self._jobs.append(
                _Job({"kind": "ping"}, future, self.pool_config.retries)
            )
            self._cv.notify()
        future.result(timeout=30.0)
        return 1

    def alive_count(self) -> int:
        return sum(1 for slot in self._slots if slot.alive())

    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[Optional[int]]:
        return [slot.pid for slot in self._slots]

    def stats(self) -> Dict[str, Any]:
        """Pool health for ``/stats``: sizes, queue depth, per-worker info."""
        with self._cv:
            queue_depth = len(self._jobs)
            total_respawns = self._total_respawns
            total_jobs = self._total_jobs
            invalidations = self._invalidations
        workers = []
        busy = 0
        alive = 0
        for slot in self._slots:
            slot_alive = slot.alive()
            alive += 1 if slot_alive else 0
            busy += 1 if slot.busy else 0
            workers.append(
                {
                    "pid": slot.pid,
                    "alive": slot_alive,
                    "busy": slot.busy,
                    "jobs": slot.jobs,
                    "respawns": slot.respawns,
                    "attached": list(slot.attached),
                }
            )
        return {
            "size": len(self._slots),
            "alive": alive,
            "busy": busy,
            "idle": alive - busy,
            "queue_depth": queue_depth,
            "max_queue": self.pool_config.max_queue,
            "respawns": total_respawns,
            "jobs_done": total_jobs,
            "invalidations": invalidations,
            "start_method": self._ctx.get_start_method(),
            "spool_dir": str(self._spool),
            "published": len(self._published),
            "workers": workers,
        }

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the pool: optionally drain queued jobs, then reap workers.

        With ``drain`` (the default) queued jobs finish first; without it
        they fail fast with :class:`WorkerPoolError`.  Safe to call twice.
        """
        with self._cv:
            if self._closed:
                return
            self._closing = True
            if not drain:
                while self._jobs:
                    job = self._jobs.popleft()
                    job.future.set_exception(
                        WorkerPoolError("worker pool is closed")
                    )
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=max(0.1, deadline - time.monotonic()))
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=max(0.1, deadline - time.monotonic()))
            self._kill_slot(slot)
        self._closed = True
        if self._owned_spool is not None:
            try:
                self._owned_spool.cleanup()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover -- best-effort cleanup
        try:
            if not self._closed:
                self.close(drain=False, timeout=1.0)
        except Exception:  # noqa: BLE001
            pass
