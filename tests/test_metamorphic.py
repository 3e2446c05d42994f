"""Metamorphic checks: input transforms the method must be blind to leave
the pipeline's counts unchanged. They compare the pipeline against itself on
one desk_boosted session, with no oracle and no tolerance."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from bellstrobe.config import desk_boosted
from bellstrobe.session import analyze_session, run_session_in_memory, simulate_session
from bellstrobe.sim import ClockModel


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
    config = config.replace(
        station_b=replace(config.station_b, clock=ClockModel(offset=offset))
    )
    shifted = run_session_in_memory(config).counts
    assert boosted_counts.coincidences.sum() > 0
    assert shifted.grid == boosted_counts.grid
    assert_same_arrays(count_arrays(shifted), count_arrays(boosted_counts))


def test_reversed_manifest_runs_leave_counts_and_plateau_unchanged(tmp_path):
    manifest_path = simulate_session(desk_boosted(1), tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["runs"].reverse()
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(manifest))

    npz = {}
    plateau = {}
    for name, path in (("forward", manifest_path), ("reversed", reversed_path)):
        summary, _ = analyze_session(path)
        assert summary.plateau is not None
        summary.counts.save(tmp_path / f"{name}.npz")
        with np.load(tmp_path / f"{name}.npz") as data:
            npz[name] = {key: data[key] for key in data.files}
        plateau[name] = json.dumps(summary.to_dict()["plateau"], sort_keys=True)
    assert_same_arrays(npz["forward"], npz["reversed"])
    assert plateau["forward"] == plateau["reversed"]
