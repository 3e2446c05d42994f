"""The process's one worker thread: a task submitted from the worker runs
inline, one worker is started however many threads use it first, and a
changed pid starts a fresh worker. `map_chunks` is a serial loop split in two
fixed parts at the chunk boundary nearest n/2, and waits for the worker's
part. A session's analysis calls every function the benchmark traces on the
calling thread."""

import functools
import importlib.util
import io
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bellstrobe import worker
from bellstrobe.config import SessionPlan, desk_boosted
from bellstrobe.model import AngleSetting
from bellstrobe.session import run_session_in_memory
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


def caller_chunks(n, size):
    """The chunks map_chunks gives the caller: all of one or none, else the
    m in 1..k-1 whose end m * size is nearest n/2, the later on a tie."""
    k = -(-n // size)
    if k < 2:
        return k
    return min(range(1, k), key=lambda m: (abs(2 * m * size - n), -m))


@pytest.mark.parametrize("n, size, caller", [
    (350_000, 32_768, 5),  # a desk_boosted clock fit: 163,840 pairs, not 196,608
    (413_000, 65_536, 3),  # a tag file: 196,608 records, not 262,144
    (2, 1, 1), (3, 2, 1), (7, 4, 1), (9, 2, 2), (10, 2, 3),  # 10: a tie at 4 and 6
    (22, 3, 4),  # 8 chunks, the last of one item
])
def test_caller_takes_the_chunks_ending_nearest_half(n, size, caller):
    assert caller_chunks(n, size) == caller
    ran = []
    worker.map_chunks(lambda start, stop, half: ran.append((start, half)), n, size, [0, 1])
    assert sorted(ran) == [(start, int(start >= caller * size)) for start in range(0, n, size)]


@pytest.mark.parametrize("k", range(6))
def test_map_chunks_is_a_serial_loop_split_in_two_fixed_halves(k):
    # every set of failing chunks: none, some in the caller's half, some in
    # the worker's, and some in both; the last chunk holds 1, 2 or 3 items
    size = 3
    idents = (threading.get_ident(), worker.submit(threading.get_ident).result(TIMEOUT))
    cases = itertools.product(
        (1, 2, size),
        itertools.chain.from_iterable(itertools.combinations(range(k), r) for r in range(k + 1)),
    )
    for last, failing in cases:
        n = max(size * (k - 1) + last, 0)
        half = caller_chunks(n, size)
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
        assert got == serial_outcome(n, size, failing), (n, failing)
        # each half is a loop that stops at its first failure, on its own thread
        first_stop = min([i for i in range(half) if size * i in failing], default=half - 1)
        later_stop = min([i for i in range(half, k) if size * i in failing], default=k - 1)
        assert set(ran) == {*range(first_stop + 1), *range(half, later_stop + 1)}, (n, failing)
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


class ThreadRecorder:
    """Stands in for perfbench's Tracer: `wrap` records the thread of each
    call, by traced name."""

    def __init__(self):
        self.threads = defaultdict(set)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            self.threads[name].add(threading.get_ident())
            return fn(*args, **kwargs)

        return recorded


def test_every_traced_function_runs_on_the_calling_thread(monkeypatch):
    # perfbench's spans assume one thread: the worker may run private helpers
    # only, never a function the benchmark traces
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # unit.py imports its sibling spans
    spec = importlib.util.spec_from_file_location("perfbench_unit", bench / "unit.py")
    unit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unit)
    recorder = ThreadRecorder()
    for owner, attr, recorded in unit.traced_attributes(recorder):
        monkeypatch.setattr(owner, attr, recorded)

    config = replace(
        desk_boosted(seed=2),
        session=SessionPlan(run_duration=0.05, runs_per_experiment=4, dead_time=1.0),
    )
    assert run_session_in_memory(config).runs_used == 4
    assert {
        "sim.emit_events", "sync.extract_period_series", "sync.align_pulse_numbering",
        "sync.fit_clock_relation", "sync.assign_to_pulses", "coinc.match_coincidences",
        "analysis.bin_singles", "session.process_run",
    } <= set(recorder.threads)
    caller = threading.get_ident()
    assert {name for name, threads in recorder.threads.items() if threads != {caller}} == set()
