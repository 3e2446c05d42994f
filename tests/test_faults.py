"""A run whose triggers do not follow one clock relation is skipped with its
cause: every fault of `faults.FAULTS` skips exactly its own run, names
the residual in summary.json, and leaves the session's counts those of the
intact runs."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from bellstrobe import sync
from bellstrobe.config import desk_boosted
from bellstrobe.session import (
    _expected_residual, _run_session, plan_runs, process_run, simulate_run, write_summary_json
)
from bellstrobe.sim import ClockModel
from faults import FAULTS, inject

N_RUNS = 8
COUNT_FIELDS = ("singles", "coincidences", "off_grid", "delta_t_counts")


@pytest.fixture(scope="module")
def intact():
    """desk_boosted(5) over N_RUNS runs: its config, run records, runs and
    the summary of all of them."""
    config = desk_boosted(seed=5)
    config = replace(config, session=replace(config.session, runs_per_experiment=N_RUNS))
    records = plan_runs(config)
    assert all(meta["status"] == "ok" for meta in records)
    runs = [simulate_run(config, meta["index"]) for meta in records]
    summary = _run_session(records, lambda meta: runs[meta["index"]], config)
    return config, records, runs, summary


def with_fault(intact, faulted_index, fault):
    """The intact session with `fault` injected into run `faulted_index`."""
    config, records, runs, _ = intact

    def load(meta):
        run = runs[meta["index"]]
        return inject(run, fault) if meta["index"] == faulted_index else run

    return _run_session(records, load, config)


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_skips_exactly_its_run_with_the_residual_in_summary_json(
    intact, tmp_path, fault
):
    config, records, runs, whole = intact
    index = FAULTS.index(fault) % N_RUNS  # every run is faulted by some case
    summary = with_fault(intact, index, fault)
    write_summary_json(summary, tmp_path / "summary.json")
    data = json.loads((tmp_path / "summary.json").read_text())

    assert data["degraded"] is True
    assert data["runs"]["total"] == N_RUNS and data["runs"]["used"] == N_RUNS - 1
    (skipped,) = data["runs"]["skipped"]
    assert skipped["run"] == index
    assert "clock fit residual_rms" in skipped["reason"]
    expected = f"{_expected_residual(config):.3g} s"
    assert expected in skipped["reason"]
    assert [r["run"] for r in data["sync"]] == [i for i in range(N_RUNS) if i != index]
    assert not whole.degraded


def test_a_session_with_one_faulted_run_counts_the_intact_runs_alone(intact):
    config, records, runs, whole = intact
    index = 5
    summary = with_fault(intact, index, "drop_b_middle")
    lost = process_run(runs[index], config).counts

    assert summary.degraded and summary.runs_used == N_RUNS - 1
    for name in COUNT_FIELDS:
        got = getattr(summary.counts, name)
        want = getattr(whole.counts, name) - getattr(lost, name)
        assert np.array_equal(got, want), name
    assert [r.to_dict() for r in summary.sync_reports] == [
        r.to_dict() for r in whole.sync_reports if r.run_index != index
    ]


def test_the_gate_lets_every_intact_run_through_at_its_expected_residual(intact):
    # ideal clocks match to 0 ps; jittered clocks at both stations (the CI
    # session's) give the quadrature sum of their jitters within 1 %
    config, records, runs, whole = intact
    assert whole.runs_used == N_RUNS
    assert all(r.fit.residual_rms == 0.0 for r in whole.sync_reports)
    jittered = replace(
        config,
        station_a=replace(config.station_a, clock=ClockModel(offset=2e-4, jitter_sigma=3e-11)),
        station_b=replace(
            config.station_b,
            clock=ClockModel(offset=1e-3, drift_rate=2e-5, jitter_sigma=2e-11),
        ),
    )
    fit = process_run(simulate_run(jittered, 0), jittered).report.fit
    expected = _expected_residual(jittered)
    assert expected == pytest.approx(math.hypot(3e-11, 2e-11), rel=1e-3)
    assert fit.residual_rms == pytest.approx(expected, rel=0.01)
    assert fit.residual_rms < sync.MAX_RESIDUAL_RATIO * expected
