"""Metamorphic checks: input transforms the method must be blind to leave
the pipeline's counts unchanged. They compare the pipeline against itself on
one desk_boosted session, with no oracle and no tolerance."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from bellstrobe.config import desk_boosted
from bellstrobe.session import (
    RunData,
    analyze_session,
    process_run,
    run_session_in_memory,
    simulate_run,
    simulate_session,
)
from bellstrobe.sim import CHANNEL_TRIGGER, ClockModel, TagStream
from bellstrobe.sync import ALIGN_WINDOW
from conftest import same_tags


def count_arrays(counts) -> dict[str, np.ndarray]:
    """Every array of a SlotCounts, keyed by field name."""
    return {
        f.name: getattr(counts, f.name)
        for f in fields(counts)
        if isinstance(getattr(counts, f.name), np.ndarray)
    }


def assert_same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


@pytest.fixture(scope="module")
def boosted_counts():
    return run_session_in_memory(desk_boosted(1)).counts


@pytest.mark.parametrize("offset", [1e-3, 0.25e-3], ids=["1ms", "0.25ms"])
def test_station_b_clock_offset_leaves_counts_unchanged(boosted_counts, offset):
    # a whole-ps offset with no jitter moves every B tag by the same integer:
    # B's detections keep their place against B's own triggers
    config = desk_boosted(1)
    config = replace(
        config,
        station_b=replace(config.station_b, clock=ClockModel(offset=offset))
    )
    shifted = run_session_in_memory(config).counts
    assert boosted_counts.coincidences.sum() > 0
    assert shifted.grid == boosted_counts.grid
    assert_same_arrays(count_arrays(shifted), count_arrays(boosted_counts))


STATION_CHANGES = {
    "clock": {"clock": ClockModel(offset=1e-3, drift_rate=2e-5, jitter_sigma=2e-11)},
    "dark_rate": {"dark_rate": 5e3},
    "detector_jitter": {"detector_jitter_sigma": 0.0},
    "trigger_delay": {"trigger_delay": 80e-9},
}


@pytest.fixture(scope="module")
def boosted_run():
    return simulate_run(desk_boosted(1), 0)


@pytest.mark.parametrize("change", STATION_CHANGES)
@pytest.mark.parametrize("changed", [0, 1], ids=["A", "B"])
def test_one_station_leaves_the_other_stream_unchanged(boosted_run, change, changed):
    # each station draws from its own generators, so one station's setup
    # cannot reach the other's tags. Efficiency is left out: eta0, the larger
    # of the two efficiencies, scales the transient factors of both
    config = desk_boosted(1)
    name = ("station_a", "station_b")[changed]
    station = replace(getattr(config, name), **STATION_CHANGES[change])
    run = simulate_run(replace(config, **{name: station}), 0)
    streams, base = (run.tags_a, run.tags_b), (boosted_run.tags_a, boosted_run.tags_b)
    assert not same_tags(streams[changed], base[changed])
    assert same_tags(streams[1 - changed], base[1 - changed])


@pytest.mark.parametrize("k", [1, 1000, 4000])
def test_station_b_cut_at_a_trigger_keeps_the_records_from_that_pulse_on(boosted_run, k):
    # B's stream starts at its trigger k (every earlier B tag dropped): the
    # sync finds pulse offset k, and B's detections, renumbered into A's
    # pulse frame, match as in the whole run from pulse k on
    config = desk_boosted(1)
    tags = boosted_run.tags_b
    p = np.flatnonzero(tags.channels == CHANNEL_TRIGGER)[k]
    cut_b = TagStream(tags.channels[p:], tags.times_ps[p:])
    cut = process_run(RunData(0, boosted_run.setting_label, boosted_run.tags_a, cut_b), config)
    assert cut.report.fit.pulse_offset == k
    whole = process_run(boosted_run, config).records
    kept = whole.pulse_number >= k
    assert kept.any()
    assert_same_arrays(vars(cut.records), {name: a[kept] for name, a in vars(whole).items()})


def test_reversed_manifest_runs_leave_counts_and_plateau_unchanged(tmp_path):
    manifest_path = simulate_session(desk_boosted(1), tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["runs"].reverse()
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(manifest))

    npz = {}
    plateau = {}
    for name, path in (("forward", manifest_path), ("reversed", reversed_path)):
        summary = analyze_session(path)
        assert "plateau" in summary.blocks
        summary.counts.save(tmp_path / f"{name}.npz")
        with np.load(tmp_path / f"{name}.npz") as data:
            npz[name] = {key: data[key] for key in data.files}
        plateau[name] = json.dumps(summary.to_dict()["plateau"], sort_keys=True)
    assert_same_arrays(npz["forward"], npz["reversed"])
    assert plateau["forward"] == plateau["reversed"]


def test_cut_run_counts_sum_to_the_whole_run():
    # run 0 cut at one trigger index on both stations: each half syncs on its
    # own, and with no detection from one period before the cut to the
    # trigger delay after it, no pulse spans the cut and the halves' counts
    # add up to the whole run's. The pulse just after the cut has detections
    # on both stations, so the second half's first pulse is checked too.
    config = desk_boosted(1)
    run = simulate_run(config, 0)
    streams = (run.tags_a, run.tags_b)
    triggers = [np.flatnonzero(s.channels == CHANNEL_TRIGGER) for s in streams]
    assert triggers[0].size == triggers[1].size > 2 * (ALIGN_WINDOW + 1)

    good = True
    for tags, at, delay in zip(streams, triggers, config.trigger_delays_ps):
        detections = tags.times_ps[tags.channels != CHANNEL_TRIGGER]
        t = tags.times_ps[at]
        before, start, end = (
            np.searchsorted(detections, edge)
            for edge in (t - config.period_ps, t + delay, t + delay + config.period_ps)
        )
        good &= (before == start) & (end > start)
    middle = triggers[0].size // 2
    cut = middle + int(np.argmax(good[middle:]))
    assert good[cut]

    halves = ([], [])
    for tags, at in zip(streams, triggers):
        p = at[cut]
        halves[0].append(TagStream(tags.channels[:p], tags.times_ps[:p]))
        halves[1].append(TagStream(tags.channels[p:], tags.times_ps[p:]))
    parts = [process_run(RunData(run.index, run.setting_label, *h), config) for h in halves]
    assert all(len(part.records) > 0 and part.report.fit.pulse_offset == 0 for part in parts)
    assert_same_arrays(
        count_arrays(parts[0].counts + parts[1].counts),
        count_arrays(process_run(run, config).counts),
    )
