"""The process's one worker thread: a task submitted from the worker runs
inline, one worker is started however many threads use it first, and a
changed pid starts a fresh worker. `map_chunks` is a serial loop split in two
fixed halves, and waits for the worker's half."""

import io
import itertools
import math
import os
import threading
import time

import numpy as np
import pytest

from bellstrobe import worker
from bellstrobe.model import AngleSetting
from bellstrobe.sim import ClockModel, PulsePlan, SourceConfig, StationConfig, emit_events
from bellstrobe.tagfmt import CHUNK_RECORDS, TagFileHeader, read_tag_arrays, write_tags
from conftest import same_tags

TIMEOUT = 60  # seconds; a task that waits on a task queued behind it never ends

# both clocks jittered, so every stage emit_events hands off has work to do
EMIT_ARGS = (
    PulsePlan(),
    30_000,
    SourceConfig(pair_yield=0.3),
    (
        StationConfig(clock=ClockModel(offset=2e-4, jitter_sigma=3e-11)),
        StationConfig(clock=ClockModel(offset=1e-3, drift_rate=2e-5, jitter_sigma=2e-11)),
    ),
    AngleSetting(0, math.pi / 8),
    0.98,
    5,
)


def squares(start, stop, buffers):
    out = buffers[: stop - start]
    np.square(np.arange(start, stop), out=out)
    return int(out.sum()), threading.get_ident()


def test_map_chunks_run_as_a_task_on_the_worker_equals_a_caller_call():
    scratch = [np.empty(10, np.int64) for _ in range(2)]
    on_caller = worker.map_chunks(squares, 95, 10, scratch)
    on_worker = worker.submit(worker.map_chunks, squares, 95, 10, scratch).result(TIMEOUT)
    worker_ident = worker.submit(threading.get_ident).result(TIMEOUT)
    assert [s for s, _ in on_worker] == [s for s, _ in on_caller]
    assert [s for s, _ in on_caller] == [
        sum(k * k for k in range(i, min(i + 10, 95))) for i in range(0, 95, 10)
    ]
    # inline: every chunk ran on the worker thread
    assert {ident for _, ident in on_worker} == {worker_ident}


class ChunkError(Exception):
    """Raised by the chunk starting at args[0]."""


def serial_outcome(n, size, failing):
    """What a serial loop over the chunks of range(n) returns, or the args of
    the error it raises, for chunks that return (start, stop) and raise
    ChunkError at each start in `failing`."""
    starts = range(0, n, size)
    bad = [start for start in starts if start in failing]
    return ("raised", (bad[0],)) if bad else [(s, min(s + size, n)) for s in starts]


@pytest.mark.parametrize("k", range(6))
def test_map_chunks_is_a_serial_loop_split_in_two_fixed_halves(k):
    # every set of failing chunks: none, some in the caller's half, some in
    # the worker's, and some in both
    size = 3
    n = max(size * k - 1, 0)  # the last chunk is short
    half = -(-k // 2)
    idents = (threading.get_ident(), worker.submit(threading.get_ident).result(TIMEOUT))
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(k), r) for r in range(k + 1)
    )
    for failing in subsets:
        failing = {size * i for i in failing}
        ran = {}

        def fn(start, stop, buffers):
            ran[start // size] = (buffers, threading.get_ident())
            if start in failing:
                raise ChunkError(start)
            return start, stop

        try:
            got = worker.map_chunks(fn, n, size, ["first", "later"])
        except ChunkError as exc:
            got = ("raised", exc.args)
        assert got == serial_outcome(n, size, failing), failing
        # each half is a loop that stops at its first failure, on its own thread
        first_stop = min([i for i in range(half) if size * i in failing], default=half - 1)
        later_stop = min([i for i in range(half, k) if size * i in failing], default=k - 1)
        assert set(ran) == {*range(first_stop + 1), *range(half, later_stop + 1)}, failing
        for i, (buffers, ident) in ran.items():
            later = i >= half
            assert buffers == ("later" if later else "first") and ident == idents[later]


@pytest.mark.parametrize("failing", ["none", "caller", "worker", "both"])
def test_map_chunks_neither_returns_nor_raises_while_the_worker_s_half_runs(failing):
    # chunk 0 is the caller's, chunk 1 the worker's; the caller's half ends
    # while the worker's chunk is still running
    started, finished = threading.Event(), threading.Event()

    def fn(start, stop, buffers):
        if start == 0:
            assert started.wait(TIMEOUT)
            if failing in ("caller", "both"):
                raise ChunkError(start)
        else:
            started.set()
            time.sleep(0.2)
            finished.set()
            if failing in ("worker", "both"):
                raise ChunkError(start)
        return start

    try:
        assert worker.map_chunks(fn, 2, 1, [None, None]) == [0, 1]
        assert failing == "none"
    except ChunkError as exc:
        assert exc.args == ((1,) if failing == "worker" else (0,))
    assert finished.is_set()


def test_emit_events_run_as_a_task_on_the_worker_equals_a_caller_call():
    want = emit_events(*EMIT_ARGS)
    assert same_tags(worker.submit(emit_events, *EMIT_ARGS).result(TIMEOUT), want)


def test_a_task_on_the_worker_gets_its_inline_task_s_exception():
    def fail():
        raise KeyError("inline")

    future = worker.submit(worker.submit, fail).result(TIMEOUT)
    assert future.done() and isinstance(future.exception(), KeyError)


def test_threads_that_use_the_worker_first_all_get_one_worker(monkeypatch):
    monkeypatch.setattr(worker, "_pool", None)
    monkeypatch.setattr(worker, "_pid", None)
    start = threading.Barrier(8)
    idents = []

    def first_use():
        start.wait(TIMEOUT)
        idents.append(worker.submit(threading.get_ident).result(TIMEOUT))

    callers = [threading.Thread(target=first_use) for _ in range(8)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(TIMEOUT)
    try:
        assert not any(caller.is_alive() for caller in callers)
        assert len(idents) == 8 and len(set(idents)) == 1
    finally:
        worker._pool.shutdown(wait=True)


def test_a_new_pid_starts_a_fresh_worker_with_the_same_results(monkeypatch):
    n = 2 * CHUNK_RECORDS + 5  # three chunks: the reader uses the worker
    buf = io.BytesIO()
    write_tags(TagFileHeader(station_id=0, record_count=n),
               (np.full(n, 3, np.uint8), np.arange(n, dtype=np.int64) * 11), buf)
    raw = buf.getvalue()
    want = emit_events(*EMIT_ARGS), read_tag_arrays(raw)[1:]
    old_ident = worker.submit(threading.get_ident).result(TIMEOUT)
    old_pool = worker._pool

    monkeypatch.setattr(worker, "_pool", old_pool)
    monkeypatch.setattr(worker, "_pid", worker._pid)
    pid = os.getpid()
    monkeypatch.setattr(worker.os, "getpid", lambda: pid + 1)
    try:
        got = emit_events(*EMIT_ARGS), read_tag_arrays(raw)[1:]
        assert worker._pool is not old_pool and worker._pid == pid + 1
        assert worker.submit(threading.get_ident).result(TIMEOUT) != old_ident
    finally:
        if worker._pool is not old_pool:
            worker._pool.shutdown(wait=True)
    assert same_tags(got[0], want[0])
    assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))
