"""The process's one worker thread, and the chunk map that splits work with it.

Every two-thread pattern of the package is a fixed split of work between
the caller and this thread: the stages `sim.emit_events` hands off, and,
through `map_chunks`, the later part of the tag reader's and the clock fit's
chunks, station B's trigger mask while the caller makes A's, the later half
of each station's pulse assignment, and the coincidence walks of the later
pulses. The worker is one ThreadPoolExecutor(1), started on first use and
kept for the life of the process, so no call starts a thread of its own or
joins one. Callers keep their own work, and every traced function, on their
own thread.

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

    With k >= 2 chunks the work is split once, at the chunk boundary nearest
    n/2: the caller loops over the first m chunks with scratch[0], the m in
    1..k-1 whose end m * size is nearest n/2 (the later one on a tie), and
    the worker thread over the rest with scratch[1]. So two chunks give each
    thread one. The buffers are the caller's, so the worker allocates
    nothing chunk-sized if fn writes through them. One chunk runs on the
    caller alone. fn must not depend on which thread runs it, or on the
    other chunks: each result is then what a serial loop computes.

    The caller waits for the worker's half before it returns or raises, as
    fn may write into the caller's arrays or read its file. Each half stops
    at its first failing chunk. The caller's exception wins, since its half
    holds the lower chunks, so the one raised is a serial loop's. The
    caller's failure does not cut the worker's half short: a file corrupt in
    its first half still has its later half read before the error is raised.
    """
    starts = range(0, n, size)

    def run(half: range, buffers) -> list:
        return [fn(start, min(start + size, n), buffers) for start in half]

    if len(starts) < 2:
        return run(starts, scratch[0])
    mid = min(max((n + size) // (2 * size), 1), len(starts) - 1)
    later = submit(run, starts[mid:], scratch[1])
    try:
        first = run(starts[:mid], scratch[0])
    finally:
        later.exception()  # waits for the worker's half; raises nothing
    return first + later.result()
