"""The prover's one worker-process layer.

Every prover module that hands work to other processes does it through
the two calls here, so the start method, the "share a big object with the
workers" mechanics, op-count bookkeeping, teardown and what a worker does
when its parent is killed are each decided once:

* :func:`context` — the start method: ``fork`` where the platform has it
  (workers inherit the imported package and warm caches), else the
  platform default.  :class:`repro.serve.workers.WorkerPool` builds its
  crash-recovery executor on it;
* :func:`map_shared` — publish one large object to fresh workers, then map
  over small payloads: per-layer proofs over a split model
  (:func:`repro.aggregate.prove_split`).  The object rides the executor's
  ``initargs``, so under ``fork`` the workers inherit it copy-on-write and
  on other start methods it is pickled once per worker — one code path
  either way.

:func:`map_shared` submits every payload before returning and yields
results in payload order.  Each task runs under a fresh op-counter scope
and its whole :class:`~repro.field.counters.OpCounter` is merged into the
consumer's active counter as the result is read, so cost-model counts
match the sequential path.

The pool lives as long as the iterator :func:`map_shared` returns:
exhausting it, an exception raised through it (a task's own, or
``BrokenProcessPool`` when a worker dies) and closing it early all cancel
what has not started and wait for the workers to leave.  Nothing is kept
between calls, so a forked child inherits no executor and no process
needs an exit hook (``tests/test_pool.py``: nested map, dead worker,
failing task, exit with the iterator still open).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, List

from repro.field.counters import count_ops, global_counter

_published: Any = None  # worker side: the object this worker's pool shares


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


def _task(fn: Callable, payload: Any):
    with count_ops() as ops:
        result = fn(_published, payload)
    return result, ops


def _gather(
    futures: List[Future], executor: ProcessPoolExecutor
) -> Iterator[Any]:
    try:
        for future in futures:
            result, ops = future.result()
            global_counter().merge(ops)
            yield result
    finally:
        executor.shutdown(cancel_futures=True)


def map_shared(
    shared: Any, fn: Callable, payloads: Iterable[Any], workers: int
) -> Iterator[Any]:
    """``fn(shared, payload)`` for every payload in workers started with
    ``shared`` already in place; the pool serves this one call and is torn
    down when the results have been read (or the iterator is dropped)."""
    executor = ProcessPoolExecutor(
        max_workers=workers, mp_context=context(),
        initializer=_start_worker, initargs=(shared, os.getpid()),
    )
    return _gather(
        [executor.submit(_task, fn, p) for p in payloads], executor
    )
