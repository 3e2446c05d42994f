"""Fault injectors for one run's tag streams: a trigger lost or fired twice
at either station, and a step in station B's clock. Each returns a new
stream, sorted by (timestamp, channel) as a tag file holds it, and leaves
the one it was given alone.

`inject` puts one of FAULTS into a run; a run with any of them no longer
follows one clock relation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bellstrobe.session import RunData
from bellstrobe.sim import CHANNEL_TRIGGER, TagStream

DOUBLE_FIRE_PS = 1000  # a trigger fired twice: the second tag 1 ns after the first
CLOCK_STEP_PS = 100_000  # B's clock offset jumps by 100 ns


def _trigger_at(stream: TagStream, k: int) -> int:
    """Stream position of the k-th trigger tag (from 0; negative from the end)."""
    return int(np.flatnonzero(stream.channels == CHANNEL_TRIGGER)[k])


def drop_trigger(stream: TagStream, k: int) -> TagStream:
    """`stream` without its k-th trigger tag."""
    at = _trigger_at(stream, k)
    return TagStream(np.delete(stream.channels, at), np.delete(stream.times_ps, at))


def duplicate_trigger(stream: TagStream, k: int) -> TagStream:
    """`stream` with a second trigger tag DOUBLE_FIRE_PS after its k-th. A
    trigger sorts after every tag of its timestamp, so it goes behind them."""
    t = stream.times_ps[_trigger_at(stream, k)] + DOUBLE_FIRE_PS
    at = int(np.searchsorted(stream.times_ps, t, side="right"))
    return TagStream(
        np.insert(stream.channels, at, CHANNEL_TRIGGER), np.insert(stream.times_ps, at, t)
    )


def step_clock(stream: TagStream, k: int, step_ps: int = CLOCK_STEP_PS) -> TagStream:
    """`stream` with every tag from its k-th trigger on `step_ps` (> 0)
    later: the station's clock offset jumps there."""
    times = stream.times_ps.copy()
    times[_trigger_at(stream, k) :] += step_ps
    return TagStream(stream.channels, times)


PLACES = ("start", "middle", "end")
# a trigger dropped or duplicated at either station in each place, and B's
# clock stepped in the middle
FAULTS = [
    f"{kind}_{station}_{place}"
    for kind in ("drop", "duplicate")
    for station in "ab"
    for place in PLACES
] + ["step_b_middle"]


def inject(run: RunData, fault: str) -> RunData:
    """`run` with `fault`, one of FAULTS, named kind_station_place: at the
    start is 100 triggers in, the middle is half way, and the end is 100
    triggers before the station's last."""
    kind, station, place = fault.split("_")
    key = f"tags_{station}"
    stream = getattr(run, key)
    n = int(np.count_nonzero(stream.channels == CHANNEL_TRIGGER))
    k = {"start": 100, "middle": n // 2, "end": n - 100}[place]
    injector = {"drop": drop_trigger, "duplicate": duplicate_trigger, "step": step_clock}[kind]
    return replace(run, **{key: injector(stream, k)})
