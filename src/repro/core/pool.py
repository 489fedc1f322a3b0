"""The prover's one worker-process layer.

Every prover module that hands work to other processes does it through
the calls here, so the start method, the executor cache, the "share a big
object with the workers" mechanics, op-count bookkeeping, process-exit
teardown and what a worker does when its parent is killed are each
decided once:

* :func:`context` — the start method: ``fork`` where the platform has it
  (workers inherit the imported package and warm caches), else the
  platform default.  :class:`repro.serve.workers.WorkerPool` builds its
  crash-recovery executor on it;
* :func:`map_shared` — publish one large object to fresh workers, then map
  over small payloads: witness rows over a CSR snapshot, per-layer proofs
  over a split model.  The object rides the executor's ``initargs``, so
  under ``fork`` the workers inherit it copy-on-write and on other start
  methods it is pickled once per worker — one code path either way;
* :func:`shutdown` — tear the kept pool down (tests, process exit).

:func:`map_shared` submits every payload before returning and yields
results in payload order.  Each task runs under a fresh op-counter scope
and its whole :class:`~repro.field.counters.OpCounter` is merged into the
consumer's active counter as the result is read, so cost-model counts
match the sequential path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.field.counters import count_ops, global_counter

_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_key: Optional[Tuple[Hashable, int]] = None
_published: Any = None  # worker side: the object this worker's pool shares
_exit_hooked = False  # this process has shutdown() registered for its exit


def context():
    """The multiprocessing context every prover pool starts workers with."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _leave_with_parent(parent: int) -> None:
    """Worker initializer: exit once the process that started this worker
    is gone.

    A parent that is SIGKILLed dismisses nobody, and an idle pool worker
    blocks on its call queue forever — re-parented to init, holding its
    memory.  The pid the parent passes is compared with ``getppid()``,
    which changes as soon as the worker is re-parented.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _start_worker(shared: Any, parent: int) -> None:
    global _published
    _published = shared
    _leave_with_parent(parent)


def _executor(workers: int, shared: Any) -> ProcessPoolExecutor:
    global _exit_hooked
    if not _exit_hooked:
        # A process that exits while its pool workers sit idle must tell
        # them to leave first: multiprocessing joins every child on the way
        # out, *before* atexit hooks run — and a forked child (a serve
        # worker, a pool worker that maps again) never runs those at all —
        # so the join would wait on workers nobody dismissed.  Finalizers
        # run ahead of that join, in the main process (at interpreter
        # exit) and in children alike.  The priority puts this one before
        # the executors' own call queues close (multiprocessing.Queue
        # registers that at 10): once a queue's feeder thread has been told
        # to quit, the "no more work" sentinel is never written and the
        # worker reads forever.  A child's registry starts empty, hence
        # once per process (_forget_inherited re-arms it) rather than once
        # at import.
        multiprocessing.util.Finalize(None, shutdown, exitpriority=20)
        _exit_hooked = True
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=context(),
        initializer=_start_worker, initargs=(shared, os.getpid()),
    )


def _task(fn: Callable, payload: Any):
    with count_ops() as ops:
        result = fn(_published, payload)
    return result, ops


def _gather(
    futures: List[Future], owner: Optional[ProcessPoolExecutor] = None
) -> Iterator[Any]:
    try:
        for future in futures:
            result, ops = future.result()
            global_counter().merge(ops)
            yield result
    finally:
        if owner is not None:
            owner.shutdown(cancel_futures=True)


def map_shared(
    shared: Any,
    fn: Callable,
    payloads: Iterable[Any],
    workers: int,
    key: Optional[Hashable] = None,
) -> Iterator[Any]:
    """``fn(shared, payload)`` for every payload in workers started with
    ``shared`` already in place.

    ``key`` names the state of ``shared``: the pool is kept and reused
    while consecutive calls pass the same ``(key, workers)``, and replaced
    when either changes.  Without a key the pool serves this one call and
    is torn down when the results have been read.
    """
    global _shared_pool, _shared_key
    if key is None:
        executor = _executor(workers, shared)
        return _gather(
            [executor.submit(_task, fn, p) for p in payloads], executor
        )
    if _shared_key != (key, workers):
        if _shared_pool is not None:
            _shared_pool.shutdown(wait=False, cancel_futures=True)
        _shared_pool = _executor(workers, shared)
        _shared_key = (key, workers)
    return _gather([_shared_pool.submit(_task, fn, p) for p in payloads])


def shutdown() -> None:
    """Tear down the kept pool (tests / process exit); the next keyed
    call starts a fresh one.

    Waits for the workers to leave: at process exit a teardown still in
    flight would race the interpreter closing the queues it needs.
    """
    global _shared_pool, _shared_key
    executor, _shared_pool, _shared_key = _shared_pool, None, None
    if executor is not None:
        executor.shutdown(cancel_futures=True)


def _forget_inherited() -> None:
    # A forked child (a pool worker, a serve worker) inherits executor
    # objects whose management threads did not survive the fork; submitting
    # to one would hang.  Drop them so a nested map starts its own — and
    # hooks this process's own exit when it does.
    global _shared_pool, _shared_key, _exit_hooked
    _shared_pool = _shared_key = None
    _exit_hooked = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inherited)
