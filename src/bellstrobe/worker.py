"""The process's one worker thread, and the chunk map that shares work with it.

Every two-thread pattern of the package runs its second thread's work here:
the stages `sim.emit_events` hands off, and, through `map_chunks`, the
chunk loops of the tag reader and of the clock fit. The worker is one
ThreadPoolExecutor(1), started on first use and kept for the life of the
process, so no call starts a thread of its own or joins one. Callers keep
their own work, and every traced function, on their own thread.

A task submitted from the worker thread itself runs at once, inline, so no
worker task ever waits on a task queued behind it. A process whose pid
differs from the one that started the worker (a forked child) starts a
fresh worker instead of submitting to a thread it does not have.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence

_lock = threading.Lock()  # guards _pool and _pid
_pool: ThreadPoolExecutor | None = None
_pid: int | None = None
_on_worker = threading.local()  # .flag is True on the worker thread only


def _mark_worker() -> None:
    _on_worker.flag = True


def submit(fn: Callable, *args) -> Future:
    """fn(*args) on the process's worker thread, as a Future.

    On the worker thread itself fn runs before submit returns, and the
    future holds its result or its exception.
    """
    global _pool, _pid
    if getattr(_on_worker, "flag", False):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future
    with _lock:
        if _pool is None or _pid != os.getpid():
            _pool = ThreadPoolExecutor(
                1, thread_name_prefix="bellstrobe-worker", initializer=_mark_worker
            )
            _pid = os.getpid()
        return _pool.submit(fn, *args)


def map_chunks(
    fn: Callable[[int, int, object], object], n: int, size: int, scratch: Sequence
) -> list:
    """[fn(start, stop, buffers) for each chunk [start, stop) of range(n)
    holding `size` items], in chunk order.

    With more than one chunk, the caller and the worker thread take chunks
    in order from one shared queue; the caller hands fn scratch[0] and the
    worker scratch[1], buffers the caller allocated, so the worker allocates
    nothing chunk-sized if fn writes through them. One chunk runs on the
    caller alone. fn must not depend on which thread runs it, or on the
    other chunks: each result is then what a serial loop computes, and the
    results come back in chunk order, not in the order they finish.

    If fn raises, no chunk past the failing one is started, the ones before
    it are finished, and the exception of the lowest failing chunk is
    raised, the one a serial loop would raise.
    """
    starts = range(0, n, size)
    results = [None] * len(starts)
    errors: dict[int, Exception] = {}
    todo = iter(range(len(starts)))
    lock = threading.Lock()  # guards todo and errors

    def work(buffers) -> None:
        while True:
            with lock:
                i = next(todo, None)
                if i is None or (errors and i > min(errors)):
                    return
            try:
                results[i] = fn(starts[i], min(starts[i] + size, n), buffers)
            except Exception as exc:
                with lock:
                    errors[i] = exc

    if len(starts) > 1:
        done = submit(work, scratch[1])
        work(scratch[0])
        done.result()
    else:
        work(scratch[0])
    if errors:
        raise errors[min(errors)]
    return results
