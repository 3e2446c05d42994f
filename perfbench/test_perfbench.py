"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import run
import spans
import unit

ROOT = Path(__file__).resolve().parent.parent


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert run.tail(values) == (90, 90.0, 100)

    value, pct, n = run.tail([float(v) for v in range(35)])
    assert sum(v > value for v in range(35)) == 10
    assert (value, n) == (24.0, 35)
    assert pct == pytest.approx(100 * 25 / 35)


def test_tail_falls_back_to_median_when_too_few_samples():
    assert run.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 3)
    assert run.tail([float(v) for v in range(19)]) == (9.0, 50.0, 19)


def test_phase_time_is_scaled_by_the_reference_kernel():
    unit_result = {"times": {"simulate": 2.0, "analyze": 1.0},
                   "ref": {"simulate": 2 * run.REF_NOMINAL_S, "analyze": run.REF_NOMINAL_S}}
    assert run.scaled(unit_result, "simulate") == pytest.approx(1.0)
    assert run.unit_seconds(unit_result) == pytest.approx(2.0)


def test_self_time_subtracts_nested_child_spans():
    # outer [0, 10] > mid [1, 4] > leaf [1.5, 2]; outer > other [5, 6]
    ticks = iter([0.0, 1.0, 1.5, 2.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    other = tracer.wrap("other", lambda: None)

    def body():
        mid()
        other()
        return "done"

    assert tracer.wrap("outer", body)() == "done"
    assert [s["parent"] for s in tracer.spans] == [None, 0, 1, 0]
    times = spans.layer_times(tracer.spans)
    assert times["outer"] == (10.0, 6.0)
    assert times["mid"] == (3.0, 2.5)
    assert times["leaf"] == (0.5, 0.5)
    assert times["other"] == (1.0, 1.0)


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0]["end"] is not None
    assert tracer.wrap("next", lambda: 1)() == 1
    assert tracer.spans[1]["parent"] is None


def test_unit_that_raises_is_counted_failed_and_run_continues():
    def fake(index, traced):
        time.sleep(0.01)
        if index == 1:
            raise RuntimeError("unit broke")
        return {"digest": f"d{index}", "times": {}}

    plain, traced, attempted, failed = run.measure(fake, seconds=0.1, trace=False)
    assert failed == 1
    assert attempted == len(plain) + 1 >= 3
    assert [u["index"] for u in plain][:2] == [0, 2]
    assert traced == []


def test_traced_unit_with_other_digest_is_failed():
    def fake(index, traced):
        return {"digest": "traced" if traced and index == 0 else "same", "times": {}}

    plain, traced, attempted, failed = run.measure(fake, seconds=0.0, trace=True)
    assert (attempted, failed, len(plain), len(traced)) == (2, 1, 1, 0)


def test_module_attributes_are_restored_after_a_traced_run():
    tracer = spans.Tracer()
    table = unit.traced_attributes(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in table]
    with pytest.raises(RuntimeError):
        with spans.patched(table):
            assert all(getattr(owner, attr) is wrapper for owner, attr, wrapper in table)
            raise RuntimeError("unit failed mid-trace")
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.STEPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
