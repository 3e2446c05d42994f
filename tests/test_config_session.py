import csv
import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bellstrobe.analysis import AnalysisError
from bellstrobe.config import (
    MAX_SLOTS,
    AnalysisParams,
    ConfigError,
    ExperimentConfig,
    SessionPlan,
    apply_overrides,
    desk_boosted,
    desk_default,
    desk_transient,
    to_ps,
)
from bellstrobe.model import TransientModel
from bellstrobe import session as session_module
from bellstrobe.sim import CHANNEL_TRIGGER, TagStream
from bellstrobe.session import (
    analyze_products,
    analyze_session,
    process_run,
    run_session_in_memory,
    simulate_run,
    simulate_session,
    summary_from_counts,
    write_report_bundle,
    write_slots_csv,
    write_summary_json,
)
from bellstrobe.tagfmt import read_tag_arrays, write_tags


def tiny_config(seed=5, **session_kwargs):
    kwargs = dict(run_duration=0.04, runs_per_experiment=4, dead_time=1.0)
    kwargs.update(session_kwargs)
    return replace(desk_boosted(seed=seed), session=SessionPlan(**kwargs))


def glitched_config():
    """seed 9 glitches runs 4 and 6 while keeping every setting covered"""
    return tiny_config(seed=9, runs_per_experiment=8, glitch_probability=0.25)


def float_fields(node, prefix=""):
    """Dotted path of every float leaf of a config dict."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from float_fields(value, f"{prefix}{key}.")
        elif isinstance(value, float):
            yield prefix + key


def config_dict_with(path, value):
    """ExperimentConfig().to_dict() with the dotted `path` set to `value`."""
    data = ExperimentConfig().to_dict()
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        node = node[key]
    node[leaf] = value
    return data


INT_FIELDS = [
    "pulses.fm_pulses_per_bit",
    "session.runs_per_experiment",
    "session.scan_points",
    "analysis.min_coincidences",
    "master_seed",
]
BLOCKS = [
    "geometry", "pulses", "source", "source.transient", "station_a",
    "station_a.clock", "station_b", "station_b.clock", "session", "analysis", "quad",
]

NON_FINITE_OVERRIDES = [
    f"{path}={value}"
    for path in [*float_fields(ExperimentConfig().to_dict()), "source.transient.osc_period"]
    for value in ("NaN", "Infinity")
]


class TestConfig:
    @pytest.mark.parametrize("seconds", [9.3e6, -9.3e6, 1e308, math.inf, math.nan])
    def test_to_ps_refuses_times_beyond_int64_picoseconds(self, seconds):
        with pytest.raises(ConfigError, match=r"^analysis\.window .* int64 picoseconds$"):
            to_ps(seconds, "analysis.window")

    def test_to_ps_takes_times_up_to_int64_picoseconds(self):
        assert to_ps(9.2e6, "x") == 9_200_000 * 10**12
        assert to_ps(-9.2e6, "x") == -9_200_000 * 10**12

    def test_defaults_match_headline_values(self):
        c = ExperimentConfig()
        assert c.geometry.distance_straight_line == 24.0
        assert c.pulses.base_period == pytest.approx(2e-6)  # 500 kHz
        assert c.pulses.pulse_duration == pytest.approx(500e-9)
        assert c.analysis.slot_width == pytest.approx(4e-9)
        assert c.analysis.window == pytest.approx(4e-9)
        assert c.session.run_duration == 30.0
        assert c.session.runs_per_experiment == 32
        assert c.station_a.dark_rate == 200.0
        assert c.station_a.trigger_delay == pytest.approx(57e-9)

    def test_times_must_be_whole_picoseconds(self):
        with pytest.raises(ConfigError, match="slot_width"):
            AnalysisParams(slot_width=4.0005e-9)
        with pytest.raises(ConfigError, match="window"):
            AnalysisParams(window=4.0005e-9)
        with pytest.raises(ConfigError, match="base_period"):
            apply_overrides(ExperimentConfig(), {"pulses.base_period": 2.0000005e-6})
        assert (AnalysisParams(slot_width=20e-9).slot_ps, AnalysisParams().window_ps) == (
            20_000, 4000
        )

    def test_slot_grid_is_bounded_in_chsh_4_mode(self):
        # 4 ns slots: MAX_SLOTS of them in a base period pass, one more does not
        period = {n: n * 4e-9 for n in (MAX_SLOTS, MAX_SLOTS + 1)}
        assert apply_overrides(ExperimentConfig(), {"pulses.base_period": period[MAX_SLOTS]})
        with pytest.raises(ConfigError) as err:
            apply_overrides(ExperimentConfig(), {"pulses.base_period": period[MAX_SLOTS + 1]})
        assert str(err.value) == (
            f"analysis.slot_width (4000 ps) cuts pulses.base_period ({(MAX_SLOTS + 1) * 4000} ps) "
            f"into {MAX_SLOTS + 1} slots, more than {MAX_SLOTS}"
        )
        # scan_34 bins one slot per base period
        scan = {"session.mode": "scan_34", "session.runs_per_experiment": 34}
        assert apply_overrides(
            ExperimentConfig(), {**scan, "pulses.base_period": period[MAX_SLOTS + 1]}
        )

    @pytest.mark.parametrize("station", ["station_a", "station_b"])
    def test_trigger_delay_must_be_whole_picoseconds(self, station):
        with pytest.raises(ConfigError, match=f"{station}.trigger_delay"):
            apply_overrides(ExperimentConfig(), {f"{station}.trigger_delay": 57.0004e-9})
        assert ExperimentConfig().trigger_delays_ps == (57_000, 57_000)

    @pytest.mark.parametrize(
        "c", [desk_boosted(seed=9), desk_transient("oscillatory", 3)], ids=["boosted", "osc"]
    )
    def test_json_roundtrip(self, tmp_path, c):
        p = tmp_path / "config.json"
        c.to_json(p)
        back = ExperimentConfig.from_json(p)
        assert back == c
        assert back.session_id() == c.session_id()

    def test_roundtrip_with_transient(self):
        c = desk_boosted(
            seed=3, transient=TransientModel(mode="monotone", tau=8e-8, theta=8e-8)
        )
        assert ExperimentConfig.from_dict(c.to_dict()) == c

    def test_missing_fields_and_blocks_take_their_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        for block in BLOCKS:
            assert ExperimentConfig.from_dict(config_dict_with(block, {})) == ExperimentConfig()

    @pytest.mark.parametrize("path", ["master_sed", "session.bogus", "station_a.clock.ofset"])
    def test_unknown_key_rejected_with_its_path(self, path):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config field '{path}'")):
            ExperimentConfig.from_dict(config_dict_with(path, 5))

    @pytest.mark.parametrize("value", [4.0, True, "4"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("path", INT_FIELDS)
    def test_int_field_rejects_other_types_with_its_path(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be an integer")):
            ExperimentConfig.from_dict(config_dict_with(path, value))

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("path", INT_FIELDS)
    def test_int_field_outside_int64_rejected_with_its_path(self, path, value):
        message = f"bad config value: {path} {value} is outside int64"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(config_dict_with(path, value))

    def test_master_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match=r"^master_seed must be non-negative, got -1$"):
            ExperimentConfig(master_seed=-1)
        assert ExperimentConfig(master_seed=2**63 - 1).master_seed == 2**63 - 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["ahead", "behind"])
    @pytest.mark.parametrize("station", ["station_a", "station_b"])
    def test_local_times_must_fit_the_tag_key(self, station, sign):
        # the simulator's int64 sort key holds a local time within 2**61 ps,
        # 2305843.009 s; a default 30 s run spans at most 30.6 s of true time
        def config(path, value):
            return ExperimentConfig.from_dict(config_dict_with(f"{station}.{path}", value))

        assert config("clock.offset", sign * 2305812.0)
        with pytest.raises(ConfigError, match=rf"^{station}\.clock\.offset -?2\.30581e\+06 s"):
            config("clock.offset", sign * 2305813.0)
        assert config("clock.jitter_sigma", 230581.0)
        with pytest.raises(ConfigError, match=rf"^{station}\.clock\.offset 0 s, .* 230582 s"):
            config("clock.jitter_sigma", 230582.0)
        with pytest.raises(ConfigError, match=r"over a run's 2\.306e\+06 s of true time"):
            config("trigger_delay", sign * 2305813.0)

    @pytest.mark.parametrize("value", [10, 1e20, 1e308])
    def test_pair_yield_must_be_below_ten(self, value):
        # from 10 numpy draws a Poisson count by another method, and from
        # about 9.2e18 it refuses the yield
        message = f"bad config value: source.pair_yield must be below 10, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(config_dict_with("source.pair_yield", value))
        data = config_dict_with("source.pair_yield", 9.99)
        assert ExperimentConfig.from_dict(data).source.pair_yield == 9.99

    @pytest.mark.parametrize("points", [-1, 0, 1, 2])
    def test_scan_needs_three_points(self, points):
        message = f"session.scan_points must be at least 3 in scan_34 mode, got {points}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SessionPlan(mode="scan_34", scan_points=points, runs_per_experiment=6)
        assert SessionPlan(mode="scan_34", scan_points=3, runs_per_experiment=6)

    @pytest.mark.parametrize(
        "path, value, kind",
        [
            pytest.param(path, value, "a number", id=f"{path}-{value_id}")
            for path in ("visibility", "session.run_duration", "station_a.clock.offset")
            for value, value_id in (("abc", "str"), (True, "bool"), (None, "null"))
        ]
        + [
            # a field whose default is null takes null or a number
            pytest.param(
                "source.transient.osc_period", value, "a number or null",
                id=f"source.transient.osc_period-{value_id}",
            )
            for value, value_id in (("abc", "str"), (True, "bool"))
        ],
    )
    def test_float_field_rejects_other_types_with_its_path(self, path, value, kind):
        message = f"bad config value: {path} must be {kind}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict(config_dict_with(path, value))

    @pytest.mark.parametrize("value", [5, [], None, "x"])
    def test_block_that_is_not_an_object_rejected(self, value):
        with pytest.raises(ConfigError, match="station_a is not an object"):
            ExperimentConfig.from_dict(config_dict_with("station_a", value))
        with pytest.raises(ConfigError, match="config is not an object"):
            ExperimentConfig.from_dict(value)

    def test_docs_config_example_is_the_default_config(self):
        docs = Path(__file__).resolve().parents[1] / "docs" / "output-schemas.md"
        section = docs.read_text().split("## `config.json` schema", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(example) == ExperimentConfig().to_dict()

    def test_pulse_duration_must_cover_5_tau(self):
        from bellstrobe.model import Geometry

        with pytest.raises(ConfigError):
            ExperimentConfig(geometry=Geometry(75.0))

    def test_runs_must_be_multiple_of_settings(self):
        with pytest.raises(ConfigError):
            SessionPlan(runs_per_experiment=6)

    def test_overrides(self):
        c = apply_overrides(
            desk_default(), {"session.run_duration": 0.1, "master_seed": 77}
        )
        assert c.session.run_duration == 0.1
        assert c.master_seed == 77

    def test_unknown_override_path_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(desk_default(), {"session.bogus": 1})

    def test_settings_cycle(self):
        c = tiny_config()
        assert c.run_settings() == ["ab", "ab'", "a'b", "a'b'"]
        c8 = desk_default()
        assert c8.run_settings() == ["ab", "ab'", "a'b", "a'b'"] * 2

    def test_scan_mode_settings(self):
        c = replace(
            desk_default(),
            session=SessionPlan(run_duration=0.02, runs_per_experiment=34,
                                mode="scan_34")
        )
        labels = c.setting_labels()
        assert len(labels) == 34
        angles = c.setting_angles()
        betas = [angles[lab][1] for lab in labels]
        assert betas[0] == 0.0
        assert betas[17] == pytest.approx(math.pi / 2)

    def test_session_id_depends_on_seed_and_config(self):
        a, b = desk_default(seed=1), desk_default(seed=2)
        assert a.session_id() != b.session_id()
        assert a.session_id() == desk_default(seed=1).session_id()


class TestSimulateSession:
    def test_manifest_and_files(self, tmp_path):
        c = tiny_config()
        manifest_path = simulate_session(c, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["session_id"] == c.session_id()
        assert len(manifest["runs"]) == 4
        for meta in manifest["runs"]:
            assert (tmp_path / meta["file_a"]).exists()
            assert (tmp_path / meta["file_b"]).exists()
            assert meta["status"] == "ok"
        # exactly two tag files per run, plus the manifest, nothing else
        assert len(list(tmp_path.glob("*.tags"))) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.json"]
            + [m["file_a"] for m in manifest["runs"]]
            + [m["file_b"] for m in manifest["runs"]]
        )

    def test_byte_determinism(self, tmp_path):
        c = tiny_config()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        simulate_session(c, d1)
        simulate_session(c, d2)
        for name in ("manifest.json", "run000_A.tags", "run003_B.tags"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_glitch_injection(self, tmp_path):
        c = tiny_config(glitch_probability=0.99)
        manifest = json.loads(simulate_session(c, tmp_path).read_text())
        statuses = [m["status"] for m in manifest["runs"]]
        assert "glitched" in statuses


class TestAnalyzeSession:
    def test_file_roundtrip_matches_in_memory(self, tmp_path):
        # the in-memory session follows the same run plan and glitches
        for name, c in [("plain", tiny_config()), ("glitched", glitched_config())]:
            summary_file = analyze_session(simulate_session(c, tmp_path / name))
            summary_mem = run_session_in_memory(c)
            # json.dumps spells NaN alike on both sides; NaN != NaN in a dict
            assert json.dumps(summary_file.to_dict(), sort_keys=True) == json.dumps(
                summary_mem.to_dict(), sort_keys=True
            ), name
            assert np.array_equal(summary_file.counts.coincidences,
                                  summary_mem.counts.coincidences)
            assert np.array_equal(summary_file.counts.singles, summary_mem.counts.singles)
        assert summary_mem.runs_glitched == 2 and summary_mem.runs_used == 6

    def test_in_memory_run_without_triggers_skips_only_that_run(self, monkeypatch):
        # run 1's station B keeps its detections but loses every trigger tag
        c = tiny_config(runs_per_experiment=8)
        simulate = session_module.simulate_run

        def without_b_triggers(config, run_index):
            run = simulate(config, run_index)
            if run_index == 1:
                keep = run.tags_b.channels != CHANNEL_TRIGGER
                run.tags_b = TagStream(run.tags_b.channels[keep], run.tags_b.times_ps[keep])
            return run

        monkeypatch.setattr(session_module, "simulate_run", without_b_triggers)
        summary = run_session_in_memory(c)
        runs = summary.to_dict()["runs"]
        assert runs["skipped"] == [
            {"run": 1, "reason": "need at least 2 trigger tags, got 0"}
        ]
        assert runs["used"] == 7 and runs["total"] == 8
        assert summary.degraded
        assert [r.run_index for r in summary.sync_reports] == [0, 2, 3, 4, 5, 6, 7]

    def test_session_memory_does_not_grow_with_its_runs(self, monkeypatch):
        # analyze_products folds each run as it is processed: what stays from
        # a run is its sync report, not its tags, records or per-run counts
        c = tiny_config(seed=3, run_duration=0.05, runs_per_experiment=16)
        simulate = session_module.simulate_run
        held, tag_bytes = [], []

        def traced(config, run_index):
            held.append(tracemalloc.get_traced_memory()[0])
            run = simulate(config, run_index)
            streams = (run.tags_a, run.tags_b)
            tag_bytes.append(sum(s.channels.nbytes + s.times_ps.nbytes for s in streams))
            return run

        monkeypatch.setattr(session_module, "simulate_run", traced)
        tracemalloc.start()
        try:
            summary = run_session_in_memory(c)
        finally:
            tracemalloc.stop()
        assert summary.runs_used == 16
        # about 2 KiB a run here; a list of every run's products added 120 KiB a run
        assert held[15] - held[1] < min(tag_bytes) / 4

    def test_analyze_products_folds_a_generator_as_a_list(self):
        c = tiny_config()
        products = [process_run(simulate_run(c, i), c) for i in range(4)]
        from_list = analyze_products(products, c).to_dict()
        from_iter = analyze_products(iter(products), c).to_dict()
        # json.dumps spells NaN alike on both sides; NaN != NaN in a dict
        assert json.dumps(from_iter, sort_keys=True) == json.dumps(from_list, sort_keys=True)
        assert [s["run"] for s in from_list["sync"]] == [0, 1, 2, 3]
        with pytest.raises(AnalysisError, match="no usable runs"):
            analyze_products(iter(()), c)

    def test_glitched_runs_excluded(self, tmp_path):
        c = glitched_config()
        manifest_path = simulate_session(c, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        n_glitched = sum(m["status"] == "glitched" for m in manifest["runs"])
        assert n_glitched == 2
        summary = analyze_session(manifest_path)
        assert summary.runs_glitched == 2
        assert summary.runs_used == 6
        assert not summary.degraded

    def test_corrupt_run_degrades(self, tmp_path):
        c = tiny_config(runs_per_experiment=8)
        manifest_path = simulate_session(c, tmp_path)
        victim = tmp_path / "run001_A.tags"
        victim.write_bytes(victim.read_bytes()[:-7])  # truncate mid-record
        summary = analyze_session(manifest_path)
        assert summary.degraded
        assert summary.runs_skipped == [{"run": 1, "reason": mock.ANY}]
        assert summary.runs_skipped[0]["reason"].startswith("run001_A.tags: truncated record")
        assert summary.runs_used == 7

    def test_wrapped_timestamp_skips_only_that_run(self, tmp_path):
        # a last record of 2**63 + 5 ps would read back as a negative int64
        c = tiny_config(runs_per_experiment=8)
        manifest_path = simulate_session(c, tmp_path)
        victim = tmp_path / "run001_B.tags"
        raw = bytearray(victim.read_bytes())
        raw[-8:] = (2**63 + 5).to_bytes(8, "little")
        victim.write_bytes(bytes(raw))
        n = (len(raw) - 40) // 16
        summary = analyze_session(manifest_path)
        assert summary.runs_skipped == [{
            "run": 1,
            "reason": f"run001_B.tags: timestamp {2**63 + 5} outside 0..2**63 - 1 ps "
                      f"(record index {n - 1})",
        }]
        assert summary.runs_used == 7

    def test_swapped_station_files_skip_only_that_run(self, tmp_path):
        # run 1's manifest record lists its B file as file_a and its A file
        # as file_b: read as they stand, A's and B's rows would be exchanged
        c = tiny_config(runs_per_experiment=8)
        manifest_path = simulate_session(c, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        run = manifest["runs"][1]
        run["file_a"], run["file_b"] = run["file_b"], run["file_a"]
        manifest_path.write_text(json.dumps(manifest))
        summary = analyze_session(manifest_path)
        assert summary.runs_skipped == [{"run": 1, "reason": mock.ANY}]
        assert summary.runs_skipped[0]["reason"].startswith("run001_B.tags: station_id 1")
        assert summary.runs_used == 7

    def test_clock_fit_failure_skips_only_that_run(self, tmp_path):
        # rescaling run 1's B timestamps by 1.002 fakes a clock running 2000 ppm
        # fast: its clock fit fails, the other runs are still analysed
        c = tiny_config(runs_per_experiment=8)
        manifest_path = simulate_session(c, tmp_path)
        victim = tmp_path / "run001_B.tags"
        header, channels, times = read_tag_arrays(victim)
        scaled = np.rint(times * 1.002).astype(np.uint64)
        write_tags(header, (channels, scaled), victim)
        summary = analyze_session(manifest_path)
        runs = summary.to_dict()["runs"]
        assert runs["skipped"] == [{"run": 1, "reason": mock.ANY}]
        assert "rate_ratio" in runs["skipped"][0]["reason"]
        assert runs["used"] == 7
        assert summary.to_dict()["degraded"] is True

    def test_missing_trigger_channel_skips_only_that_run(self, tmp_path):
        # run 1's B file keeps its detections but loses every trigger tag
        c = tiny_config(runs_per_experiment=8)
        manifest_path = simulate_session(c, tmp_path)
        victim = tmp_path / "run001_B.tags"
        header, channels, times = read_tag_arrays(victim)
        detections = channels != CHANNEL_TRIGGER
        write_tags(header, (channels[detections], times[detections].astype(np.uint64)), victim)
        summary = analyze_session(manifest_path)
        write_summary_json(summary, tmp_path / "summary.json")
        runs = json.loads((tmp_path / "summary.json").read_text())["runs"]
        assert runs["skipped"] == [
            {"run": 1, "reason": "need at least 2 trigger tags, got 0"}
        ]
        assert runs["used"] == 7
        assert [r.run_index for r in summary.sync_reports] == [0, 2, 3, 4, 5, 6, 7]

    def test_all_runs_unusable_errors(self, tmp_path):
        c = tiny_config(glitch_probability=0.999999)
        manifest_path = simulate_session(c, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert all(m["status"] == "glitched" for m in manifest["runs"])
        with pytest.raises(AnalysisError):
            analyze_session(manifest_path)

    def test_sync_reports_present(self, tmp_path):
        c = tiny_config()
        summary = analyze_session(simulate_session(c, tmp_path))
        assert len(summary.sync_reports) == 4
        for rep in summary.sync_reports:
            assert rep.fit.pulse_offset == 0
            assert abs(rep.fit.rate_ratio - 1.0) < 1e-6


class TestScanSession:
    def test_scan_34_fits(self):
        c = replace(
            desk_boosted(seed=8),
            session=SessionPlan(run_duration=0.03, runs_per_experiment=34,
                                mode="scan_34", dead_time=0.5),
            visibility=0.95,
        )
        summary = run_session_in_memory(c)
        assert summary.blocks["mode"] == "scan_34"
        assert summary.series is None
        assert "plateau" not in summary.blocks and "transient" not in summary.blocks
        fits = summary.blocks["scan_fits"]
        assert set(fits) == {"++", "+-", "-+", "--"}
        for fit in fits.values():
            assert fit["visibility"] == pytest.approx(0.95, abs=0.05)


class TestOutputs:
    def test_summary_json_deterministic(self, tmp_path):
        c = tiny_config()
        s = run_session_in_memory(c)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(s, p1)
        write_summary_json(run_session_in_memory(c), p2)
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert "generated_at" not in data
        write_summary_json(s, p1, stamp="2026-01-01T00:00:00Z")
        assert json.loads(p1.read_text())["generated_at"] == "2026-01-01T00:00:00Z"

    def test_slots_csv_shape(self, tmp_path):
        s = run_session_in_memory(tiny_config())
        path = tmp_path / "slots.csv"
        write_slots_csv(s.series, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + s.counts.grid.n_slots  # comment + header + rows
        header = lines[1].split(",")
        assert "S" in header and "sigma_S" in header and "eta_A+" in header

    def test_report_bundle(self, tmp_path):
        s = run_session_in_memory(tiny_config())
        written = write_report_bundle(s, tmp_path)
        names = {p.name for p in written}
        assert {"s_chsh_full.csv", "s_chsh_zoom.csv", "eta_Aplus_full.csv",
                "product_Aplus_full.csv", "coincidences_16types.csv",
                "plateau_vs_expected.txt"} <= names
        # zoom covers the first 100 ns: 5 slots at 20 ns
        zoom = (tmp_path / "s_chsh_zoom.csv").read_text().splitlines()
        assert len(zoom) == 1 + 5
        grid16 = (tmp_path / "coincidences_16types.csv").read_text().splitlines()
        assert len(grid16) == 1 + 16 * s.counts.grid.n_slots
        # all 16 coincidence series carry counts for a 4-setting session
        totals = {}
        for line in grid16[1:]:
            setting, outcome, _slot, _t, counts = line.split(",")
            key = (setting, outcome)
            totals[key] = totals.get(key, 0) + int(counts)
        assert len(totals) == 16
        assert all(v > 0 for v in totals.values())
        # each series file is three slots.csv columns under new headers, and
        # its zoom file the leading rows whose slot starts before 100 ns
        write_slots_csv(s.series, tmp_path / "slots.csv")
        with open(tmp_path / "slots.csv", newline="") as fh:
            next(fh)  # the version comment
            slots = list(csv.DictReader(fh))
        n_zoom = sum(float(row["t_start_ns"]) < 100.0 for row in slots)
        for stem, header, column in (
            ("s_chsh", "S", "S"), ("eta_Aplus", "eta", "eta_A+"),
            ("product_Aplus", "product", "product_A+"),
        ):
            rows = [[r["t_center_ns"], r[column], r[f"sigma_{column}"]] for r in slots]
            for tag, expected in (("full", rows), ("zoom", rows[:n_zoom])):
                with open(tmp_path / f"{stem}_{tag}.csv", newline="") as fh:
                    table = list(csv.reader(fh))
                assert table[0] == ["t_center_ns", header, "sigma"]
                assert table[1:] == expected, f"{stem}_{tag}"

    def test_report_errors_without_inputs(self, tmp_path, capsys):
        from bellstrobe.cli import main

        missing = tmp_path / "empty" / "summary.json"
        assert main(["report", str(missing)]) == 2
        # summary present but no counts.npz next to it
        (tmp_path / "summary.json").write_text("{}")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "summary.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(tmp_path / "counts.npz") in err[0]


def scan_config():
    return replace(
        desk_boosted(seed=8),
        session=SessionPlan(run_duration=0.03, runs_per_experiment=34,
                            mode="scan_34", dead_time=0.5),
    )


class TestReportFromCounts:
    """`report` rebuilds its bundle from counts.npz and summary.json alone."""

    def _error_line(self, capsys, argv):
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    @pytest.mark.parametrize("config", [tiny_config(), scan_config()],
                             ids=["chsh_4", "scan_34"])
    def test_report_reads_no_tag_file_or_manifest(self, tmp_path, config):
        from bellstrobe.cli import main

        sdir, ref = tmp_path / "s", tmp_path / "ref"
        manifest_path = simulate_session(config, sdir)
        assert main(["analyze", str(manifest_path)]) == 0
        expected = write_report_bundle(analyze_session(manifest_path), ref)
        for path in [manifest_path, *sdir.glob("*.tags")]:
            path.unlink()
        assert main(["report", str(sdir / "summary.json")]) == 0
        written = sorted((sdir / "report").iterdir())
        assert [p.name for p in written] == sorted(p.name for p in expected)
        for path in written:
            assert path.read_bytes() == (ref / path.name).read_bytes(), path.name

    def test_report_after_analyze_output(self, tmp_path):
        from bellstrobe.cli import main

        manifest_path = simulate_session(tiny_config(), tmp_path / "s")
        out = tmp_path / "elsewhere"
        assert main(["analyze", str(manifest_path), "--output", str(out)]) == 0
        assert main(["report", str(out / "summary.json")]) == 0
        assert (out / "report" / "s_chsh_full.csv").exists()

    def test_missing_foreign_or_stale_counts_error(self, tmp_path, capsys):
        from bellstrobe.cli import main

        dirs = []
        for seed in (5, 6):
            manifest_path = simulate_session(tiny_config(seed=seed), tmp_path / str(seed))
            assert main(["analyze", str(manifest_path)]) == 0
            dirs.append(manifest_path.parent)
        counts_path, summary_path = dirs[0] / "counts.npz", dirs[0] / "summary.json"
        own = counts_path.read_bytes()
        argv = ["report", str(summary_path)]

        counts_path.unlink()
        assert str(counts_path) in self._error_line(capsys, argv)

        counts_path.write_bytes((dirs[1] / "counts.npz").read_bytes())
        assert str(counts_path) in self._error_line(capsys, argv)

        counts_path.write_bytes(own[:100])
        assert str(counts_path) in self._error_line(capsys, argv)

        counts_path.write_bytes(b"")  # np.load raised EOFError
        assert str(counts_path) in self._error_line(capsys, argv)

        counts_path.write_bytes(own)
        with np.load(counts_path) as npz:
            arrays = dict(npz)
        np.savez(counts_path, mode="chsh_4", **{k: arrays[k] for k in arrays if k != "off_grid"})
        assert str(counts_path) in self._error_line(capsys, argv)  # another layout

        seconds = {k: arrays[k] for k in arrays if k != "slot_ps"}
        np.savez(counts_path, slot_width=arrays["slot_ps"] / 1e12, **seconds)
        assert str(counts_path) in self._error_line(capsys, argv)  # slot width in seconds

        arrays["coincidences"][0, 10, 0] += 1
        np.savez(counts_path, **arrays)
        assert str(counts_path) in self._error_line(capsys, argv)
        assert not (dirs[0] / "report").exists()

    # edits of the expectations block: each makes it differ from the rebuild
    ETA0 = {"A+": 0.9, "A-": 0.9, "B+": 0.9, "B-": 0.9}
    BAD_EXPECTATIONS = {
        "empty_expectations": {},
        "partial_expectations": {"s_ideal": 2.77, "eta0": {"A+": 0.9, "B+": 0.9}},
        "s_ideal_text": {"s_ideal": "x", "eta0": ETA0},
        "eta0_null_and_bool": {"s_ideal": 2.77, "eta0": {**ETA0, "A+": None, "B-": True}},
    }

    @pytest.mark.parametrize(
        "drop",
        ["mode", "session_id", "expectations", "config", *BAD_EXPECTATIONS, None, "not_json"],
        ids=[
            "mode", "session_id", "expectations", "config", *BAD_EXPECTATIONS,
            "json_list", "not_json",
        ],
    )
    def test_malformed_summary_errors(self, tmp_path, capsys, drop):
        from bellstrobe.cli import main

        manifest_path = simulate_session(tiny_config(), tmp_path)
        assert main(["analyze", str(manifest_path)]) == 0
        summary_path = tmp_path / "summary.json"
        data = json.loads(summary_path.read_text())
        differ = "differ from their rebuild from " + str(tmp_path / "counts.npz")
        if drop is None:  # a JSON list, not an object
            data, problem = list(data), "missing key(s) config"
        elif drop in self.BAD_EXPECTATIONS:
            data["expectations"] = self.BAD_EXPECTATIONS[drop]
            problem = f"block(s) expectations {differ}"
        elif drop == "config":
            del data[drop]
            problem = "missing key(s) config"
        elif drop != "not_json":
            del data[drop]
            problem = f"block(s) {drop} {differ}"
        summary_path.write_text(json.dumps(data))
        if drop == "not_json":
            summary_path.write_text("{")
            problem = (
                "not valid JSON (Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1))"
            )
        line = self._error_line(capsys, ["report", str(summary_path)])
        assert line == f"error: {summary_path}: {problem}"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "config",
        [
            tiny_config(),
            apply_overrides(desk_default(7), {"session.run_duration": 0.7}),
            scan_config(),
        ],
        ids=["chsh_4", "seed7_default", "scan_34"],
    )
    def test_rebuild_equals_the_summary(self, tmp_path, config):
        summary = run_session_in_memory(config)
        write_summary_json(summary, tmp_path / "summary.json")
        summary.counts.save(tmp_path / "counts.npz")
        written = json.loads((tmp_path / "summary.json").read_text())
        # through JSON as summary.json holds it: a tuple reads back as a list
        rebuilt = json.loads(json.dumps(
            session_module._json_safe(summary_from_counts(tmp_path / "summary.json").to_dict())
        ))
        for data in (written, rebuilt):
            for key in ("runs", "sync", "degraded"):
                del data[key]
        assert rebuilt == written
        assert {"config", "expectations"} <= written.keys()
        assert ("transient" in written) == (config.session.mode == "chsh_4")

    # one edited value in each block report rebuilds, by dotted path
    EDITS = {
        "transient.verdict": lambda v: "deviation" if v != "deviation" else "none",
        "flatness.chi2_reduced": lambda v: v * 1.001,
        "eq1.bound_respected": lambda v: not v,
        "significance.n_significant_slots": lambda v: v + 1,
        "plateau.all_data_s": lambda v: v + 1e-6,
        "tables.ab.++": lambda v: v + 1,
        "expectations.s_ideal": lambda v: v + 1e-6,
        "config.visibility": lambda v: v - 1e-6,
    }

    @pytest.mark.parametrize("path", list(EDITS))
    def test_summary_with_an_edited_block_is_refused(self, tmp_path, capsys, analyzed, path):
        (tmp_path / "counts.npz").write_bytes((analyzed / "counts.npz").read_bytes())
        data = json.loads((analyzed / "summary.json").read_text())
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = self.EDITS[path](node[leaf])
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(data))
        line = self._error_line(capsys, ["report", str(summary_path)])
        block = parents[0]
        if block == "config":  # another config is another session
            other = ExperimentConfig.from_dict(data["config"]).session_id()
            assert line == (
                f"error: {tmp_path / 'counts.npz'}: counts of session {data['session_id']}, "
                f"not of {other}, the session of the config in {summary_path}"
            )
        else:
            assert line == (
                f"error: {summary_path}: block(s) {block} differ from their rebuild "
                f"from {tmp_path / 'counts.npz'}"
            )
        assert not (tmp_path / "report").exists()

    def test_summary_whose_config_does_not_decode_is_refused(self, tmp_path, capsys, analyzed):
        (tmp_path / "counts.npz").write_bytes((analyzed / "counts.npz").read_bytes())
        data = json.loads((analyzed / "summary.json").read_text())
        data["config"]["session"]["mode"] = "x"
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(data))
        line = self._error_line(capsys, ["report", str(summary_path)])
        assert line == (
            f"error: {summary_path}: config: bad config value: session: "
            "unknown session mode 'x'"
        )
        assert not (tmp_path / "report").exists()

    @pytest.fixture(scope="class")
    def analyzed(self, tmp_path_factory):
        """A tiny session's directory after `analyze`."""
        from bellstrobe.cli import main

        manifest_path = simulate_session(tiny_config(), tmp_path_factory.mktemp("analyzed"))
        assert main(["analyze", str(manifest_path)]) == 0
        return manifest_path.parent

    @pytest.mark.parametrize(
        "name", ["setting_angles", "singles", "coincidences", "off_grid", "delta_t_counts"]
    )
    def test_counts_array_of_the_wrong_shape_errors(self, tmp_path, capsys, analyzed, name):
        summary_path, counts_path = tmp_path / "summary.json", tmp_path / "counts.npz"
        summary_path.write_bytes((analyzed / "summary.json").read_bytes())
        with np.load(analyzed / "counts.npz") as npz:
            arrays = dict(npz)
        arrays[name] = arrays[name][..., 1:]  # one entry short on the last axis
        np.savez(counts_path, **arrays)
        line = self._error_line(capsys, ["report", str(summary_path)])
        assert line.startswith(f"error: {counts_path}: unreadable counts ({name} has shape")
        assert not (tmp_path / "report").exists()

    # counts of the right session whose layout is not the config's, each
    # edited consistently, so that SlotCounts.load accepts them
    LAYOUT_EDITS = {
        "grid": lambda a: {  # the first half of the slots
            **a, "n_slots": a["n_slots"] // 2, "singles": a["singles"][:, : a["n_slots"] // 2],
            "coincidences": a["coincidences"][:, : a["n_slots"] // 2],
        },
        "setting_labels": lambda a: {**a, "setting_labels": a["setting_labels"][::-1]},
        "setting_angles": lambda a: {**a, "setting_angles": a["setting_angles"] + 1e-9},
        "delta_t_edges": lambda a: {**a, "delta_t_edges": a["delta_t_edges"] + 1},
    }
    LAYOUT_NAMES = {
        "grid": "slot grid",
        "setting_labels": "setting labels",
        "setting_angles": "setting angles",
        "delta_t_edges": "delta_t edges",
    }

    @pytest.mark.parametrize("name", list(LAYOUT_EDITS))
    def test_counts_whose_layout_is_not_the_config_s_are_refused(
        self, tmp_path, capsys, analyzed, name
    ):
        summary_path, counts_path = tmp_path / "summary.json", tmp_path / "counts.npz"
        summary_path.write_bytes((analyzed / "summary.json").read_bytes())
        with np.load(analyzed / "counts.npz") as npz:
            arrays = dict(npz)
        np.savez(counts_path, **self.LAYOUT_EDITS[name](arrays))
        line = self._error_line(capsys, ["report", str(summary_path)])
        assert line == (
            f"error: {counts_path}: the config in {summary_path} gives another "
            f"{self.LAYOUT_NAMES[name]}"
        )
        assert not (tmp_path / "report").exists()

    def test_counts_round_trip(self, tmp_path):
        summary = analyze_session(simulate_session(tiny_config(), tmp_path))
        counts = summary.counts
        counts.save(tmp_path / "counts.npz")
        with np.load(tmp_path / "counts.npz") as npz:
            assert str(npz["session_id"]) == summary.session_id
            assert "mode" not in npz.files
            assert int(npz["slot_ps"]) == counts.grid.slot_ps == 20_000
            assert int(npz["n_slots"]) == counts.grid.n_slots
            assert npz["delta_t_edges"].dtype == np.int64
            assert tuple(npz["setting_labels"]) == counts.setting_labels
            singles, coincidences = npz["singles"], npz["coincidences"]
        assert singles.dtype == coincidences.dtype == np.int64
        assert np.array_equal(singles, counts.singles)  # rows A+, A-, B+, B-
        assert np.array_equal(coincidences, counts.coincidences)


class TestCli:
    def test_simulate_analyze_report(self, tmp_path, capsys):
        from bellstrobe.cli import main

        cfg_path = tmp_path / "config.json"
        tiny_config().to_json(cfg_path)
        assert main([
            "simulate", "--config", str(cfg_path), "--name", "demo",
            "--output", str(tmp_path),
        ]) == 0
        assert main(["analyze", str(tmp_path / "demo" / "manifest.json")]) == 0
        assert (tmp_path / "demo" / "summary.json").exists()
        assert (tmp_path / "demo" / "slots.csv").exists()
        assert (tmp_path / "demo" / "delta_t_hist.csv").exists()
        data = json.loads((tmp_path / "demo" / "summary.json").read_text())
        assert set(data["tables"]) == {"ab", "ab'", "a'b", "a'b'"}
        assert main(["report", str(tmp_path / "demo" / "summary.json")]) == 0
        assert (tmp_path / "demo" / "report" / "s_chsh_full.csv").exists()

    def test_set_overrides_reach_config(self, tmp_path):
        from bellstrobe.cli import main

        cfg_path = tmp_path / "config.json"
        tiny_config().to_json(cfg_path)
        assert main([
            "simulate", "--config", str(cfg_path), "--name", "s",
            "--output", str(tmp_path), "--seed", "99",
            "--set", "session.run_duration=0.02",
        ]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 99
        assert manifest["config"]["session"]["run_duration"] == 0.02

    def test_missing_config_errors(self, tmp_path, capsys):
        from bellstrobe.cli import main

        missing, invalid = tmp_path / "nope.json", tmp_path / "invalid.json"
        invalid.write_text('{"master_seed": ')
        for path in (missing, invalid):
            capsys.readouterr()
            argv = ["simulate", "--config", str(path), "--name", "s", "--output", str(tmp_path)]
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
            assert not (tmp_path / "s").exists()

    def test_unknown_config_key_errors_before_writing(self, tmp_path, capsys):
        from bellstrobe.cli import main

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"master_sed": 5}))
        capsys.readouterr()
        argv = ["simulate", "--config", str(cfg_path), "--name", "s", "--output", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config field 'master_sed'"
        ]
        assert not (tmp_path / "s").exists()

    def test_analyze_on_a_directory_errors(self, tmp_path, capsys):
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]

    def test_analyze_takes_one_manifest(self, tmp_path, capsys):
        from bellstrobe.cli import main

        manifest = str(simulate_session(tiny_config(), tmp_path))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", manifest, manifest])
        assert exit_.value.code == 2
        err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err) == 1 and manifest in err[0]

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        from bellstrobe.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["selftest"])
        assert exit_.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "station_a.detector_efficiency=2",
        "source.pair_yield=-1",
        "source.pair_yield=10",  # numpy's Poisson draw changes method at 10
        "pulses.fm_pulses_per_bit=0",
        "pulses.fm_pulses_per_bit=1.5",
        "session.runs_per_experiment=4.0",
        "pulses.fm_lengthen_fraction=1.5",
        "pulses.pulse_duration=3e-6",
        "pulses.fall_time=-1e-7",  # photons emitted after the pulse had ended
        "session.dead_time=-1000",  # negative session times
        "analysis.slot_width=3e-9",  # does not divide the 2 us period
        "session.run_duration=abc",
        "station_b.dark_rate=true",
        *NON_FINITE_OVERRIDES,
    ])
    def test_invalid_config_value_errors_before_writing(self, tmp_path, capsys, override):
        from bellstrobe.cli import main

        capsys.readouterr()
        argv = ["simulate", "--name", "bad", "--output", str(tmp_path), "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        path = override.split("=")[0]
        if override in NON_FINITE_OVERRIDES:
            # a NaN or infinite value is named by its dotted field; the
            # top-level visibility by its own range check
            assert f"bad config value: {path} must be finite" in err[0] or (
                err[0] == "error: visibility must be in [0, 1]"
            )
        else:
            # the message names the block ("station_a: ..." or
            # "analysis.slot_width ...") and the field as the config spells it
            block, leaf = path.split(".")
            assert re.search(rf"\b{block}[.:]", err[0])
            assert re.search(rf"\b{leaf}\b", err[0])
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("override", [
        "analysis.window=1e308",
        "analysis.slot_width=1e308",
        "station_a.trigger_delay=1.2e21",
        "station_b.trigger_delay=-2e7",
        "pulses.base_period=1e308",
    ])
    def test_time_beyond_int64_picoseconds_errors_before_writing(
        self, tmp_path, capsys, override
    ):
        # the picoseconds overflowed to a traceback (window) or reached the
        # simulator as an unbounded int (trigger delay), which wrote a session
        from bellstrobe.cli import main

        capsys.readouterr()
        argv = ["simulate", "--name", "big", "--output", str(tmp_path), "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        path = override.split("=")[0]
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{path} " in err[0] and err[0].endswith("int64 picoseconds")
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("override, line", [
        (
            "analysis.window=1e308",
            "error: bad config value: analysis.window 1e+308 s is not a finite time "
            "within int64 picoseconds",
        ),
        (
            "analysis.slot_width=3e-13",
            "error: bad config value: analysis.slot_width 3e-13 s is not a whole "
            "number of picoseconds",
        ),
        ('session.mode="x"', "error: bad config value: session: unknown session mode 'x'"),
    ])
    def test_config_error_names_its_path_once(self, tmp_path, capsys, override, line):
        from bellstrobe.cli import main

        capsys.readouterr()
        argv = ["simulate", "--name", "bad", "--output", str(tmp_path), "--set", override]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "bad").exists()

    def test_slot_grid_above_the_bound_errors_before_writing(self, tmp_path, capsys):
        # 5 s periods of 4 ns slots asked numpy for a (4, 1.25e9) int64 array
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main([
            "simulate", "--name", "big", "--output", str(tmp_path),
            "--set", "pulses.base_period=5", "--set", "pulses.pulse_duration=1e-6",
        ]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: analysis.slot_width (4000 ps) cuts pulses.base_period "
            "(5000000000000 ps) into 1250000000 slots, more than 65536"
        ]
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("args, line", [
        (["--seed", "-1"], "error: master_seed must be non-negative, got -1"),
        (
            ["--set", "session.mode=scan_34", "--set", "session.scan_points=0"],
            "error: bad config value: session.scan_points must be at least 3 in scan_34 "
            "mode, got 0",
        ),
        (
            ["--set", "session.mode=scan_34", "--set", "session.scan_points=2",
             "--set", "session.runs_per_experiment=4", "--set", "session.run_duration=0.01"],
            "error: bad config value: session.scan_points must be at least 3 in scan_34 "
            "mode, got 2",
        ),
        (
            ["--set", f"pulses.fm_pulses_per_bit={2**70}"],
            f"error: bad config value: pulses.fm_pulses_per_bit {2**70} is outside int64",
        ),
        (
            ["--set", "source.pair_yield=1e20"],
            "error: bad config value: source.pair_yield must be below 10, got 1e+20",
        ),
        (
            ["--set", "source.pair_yield=1e308"],
            "error: bad config value: source.pair_yield must be below 10, got 1e+308",
        ),
        (
            ["--set", "pulses.fm_pulses_per_bit=1000000000000",
             "--set", "session.run_duration=0.05"],
            "error: a run of 25000 pulses at pulses.fm_pulses_per_bit 1000000000000 "
            "cannot be aligned: trigger intervals are constant to within 0.5%; "
            "no FM pattern to align on",
        ),
        (
            ["--set", "pulses.rise_time=-1e-7", "--set", "session.run_duration=0.05"],
            "error: bad config value: pulses: rise_time and fall_time must be >= 0",
        ),
        (
            ["--set", "station_b.clock.drift_rate=2e-3"],
            "error: station_a.clock.drift_rate 0 and station_b.clock.drift_rate 0.002 give "
            "a clock rate ratio of 1.002, 0.001 or more from 1, which the clock fit refuses",
        ),
        (
            ["--set", "station_b.clock.drift_rate=-1"],
            "error: bad config value: station_b.clock: drift_rate must be above -1, got -1",
        ),
        (
            ["--set", "quad.a=1e308"],
            "error: bad config value: quad: analyzer angles must be within [-2 pi, 2 pi] rad",
        ),
        (
            ["--set", "session.run_duration=1e308"],
            "error: bad config value: session: run_duration must be positive and within "
            "int64 picoseconds",
        ),
        (
            ["--set", "station_a.dark_rate=1e308"],
            "error: bad config value: station_a: dark_rate must be below one per "
            "picosecond, got 1e+308",
        ),
        *(
            (
                ["--set", f"{station}.clock.offset={offset}", "--set", "session.run_duration=0.05"],
                f"error: {station}.clock.offset {offset:g} s, drift_rate 0 and jitter_sigma 0 s "
                f"over a run's 0.051 s of true time put its local times up to {abs(offset):g} s "
                "from 0, beyond the 2.306e+06 s the simulator's int64 tag key holds",
            )
            for station, offset in [("station_a", 1e7), ("station_b", -1e7), ("station_a", 4e6)]
        ),
    ], ids=["negative_seed", "no_scan_points", "two_scan_points", "fm_bit_beyond_int64",
            "pair_yield_1e20", "pair_yield_1e308", "fm_bit_beyond_the_run",
            "negative_rise_time", "clock_rate_beyond_the_fit", "clock_stopped",
            "angle_1e308", "run_duration_1e308", "dark_rate_1e308",
            "clock_a_offset_1e7", "clock_b_offset_minus_1e7", "clock_a_offset_4e6"])
    def test_config_value_that_raised_errors_before_writing(self, tmp_path, capsys, args, line):
        # a traceback each: SeedSequence refused the seed, the runs check took
        # a modulo by 0 scan points, np.repeat overflowed a C long, numpy's
        # poisson refused the pair yields and the dark rate as too large, the
        # doubled angle's cosine and the run's pulse count overflowed; 2 scan points
        # simulated a session whose fringe fit analyze then refused, and an
        # FM bit longer than the run one whose every run analyze then skipped;
        # a negative rise time raised in the transient model, and a clock
        # drift the clock fit refuses simulated a session analyze skipped
        # every run of; a clock offset beyond the simulator's int64 tag key
        # wrapped every tag of a station to t = 0 (1e7 s ahead, or behind at
        # station B, whose runs analyze then skipped), or below 0 (4e6 s)
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main(["simulate", "--name", "bad", "--output", str(tmp_path), *args]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "bad").exists()

    def _assert_one_line_error(self, capsys, argv):
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main(argv) == 2
        # per-run skip warnings may precede it; the error itself is one line
        err_lines = capsys.readouterr().err.splitlines()
        assert [line for line in err_lines if not line.startswith("WARNING")] == [
            err_lines[-1]
        ]
        assert err_lines[-1].startswith("error: ")

    def test_manifest_missing_keys_errors(self, tmp_path, capsys):
        from bellstrobe.cli import main

        path = tmp_path / "manifest.json"
        run = {"index": 0, "status": "ok"}
        for manifest, key in [
            ({"session_id": "x"}, "config"),
            ({"session_id": "x", "config": {}, "runs": [run]}, "runs[0].setting"),
            ({"session_id": "x", "config": {}, "runs": 5}, "runs is not a list"),
            (
                {"session_id": "x", "config": 5,
                 "runs": [{**run, "setting": "ab", "file_a": "a", "file_b": "b"}]},
                "config is not an object",
            ),
        ]:
            path.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert main(["analyze", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert str(path) in err[0] and key in err[0]

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda cfg: cfg.update(visibility=2), "visibility must be in [0, 1]"),
            (
                lambda cfg: cfg["station_a"]["clock"].update(drift_rate="x"),
                "station_a.clock.drift_rate must be a number, got 'x'",
            ),
        ],
    )
    def test_manifest_config_error_names_the_manifest(self, tmp_path, capsys, edit, problem):
        from bellstrobe.cli import main

        manifest_path = simulate_session(tiny_config(), tmp_path / "s")
        manifest = json.loads(manifest_path.read_text())
        edit(manifest["config"])
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", str(manifest_path), "--output", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {manifest_path}: config: ")
        assert err[0].endswith(problem)
        assert not (tmp_path / "a").exists()

    # edits of a tiny session's run records, and the error each gives
    BAD_RUN_RECORDS = {
        "duplicated": (
            lambda runs: runs.append(dict(runs[0])), "runs[4].index 0 repeats runs[0].index"
        ),
        "index_text": (
            lambda runs: runs[1].update(index="x"), "runs[1].index is not an integer"
        ),
        "index_bool": (
            lambda runs: runs[1].update(index=True), "runs[1].index is not an integer"
        ),
        "status_weird": (
            lambda runs: runs[1].update(status="weird"),
            "runs[1].status is 'weird', not 'ok' or 'glitched'",
        ),
        "setting_null": (
            lambda runs: runs[1].update(setting=None), "runs[1].setting is not a string"
        ),
        "file_a_number": (
            lambda runs: runs[1].update(file_a=5), "runs[1].file_a is not a string"
        ),
        # checked against the config before any run is read
        "setting_unknown": (
            lambda runs: runs[1].update(setting="zz"),
            f"runs[1].setting 'zz' is not one of {list(tiny_config().quad.labels)}",
        ),
    }

    @pytest.mark.parametrize("case", list(BAD_RUN_RECORDS))
    def test_malformed_run_record_errors(self, tmp_path, capsys, case):
        from bellstrobe.cli import main

        manifest_path = simulate_session(tiny_config(), tmp_path / "s")
        manifest = json.loads(manifest_path.read_text())
        edit, problem = self.BAD_RUN_RECORDS[case]
        edit(manifest["runs"])
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", str(manifest_path), "--output", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest_path}: {problem}"]
        assert not (tmp_path / "a").exists()

    def test_all_glitched_manifest_errors(self, tmp_path, capsys):
        manifest_path = simulate_session(tiny_config(glitch_probability=0.999999), tmp_path)
        self._assert_one_line_error(capsys, ["analyze", str(manifest_path)])

    def test_invalid_manifest_json_errors(self, tmp_path, capsys):
        from bellstrobe.cli import main

        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text('{"session_id": ')
        capsys.readouterr()
        assert main(["analyze", str(manifest_path), "--output", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest_path}: not valid JSON "
            "(Expecting value: line 1 column 16 (char 15))"
        ]
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "override", ["station_b.clock.jitter_sigma=2e-11", "station_b.clock.offset=-1e-3"]
    )
    def test_negative_local_timestamp_errors_before_writing_the_run(
        self, tmp_path, capsys, override
    ):
        # the first trigger sits at t = 0: jitter or a negative offset moves it
        # below zero (with seed 1 the jitter does so in run 2, after runs 0
        # and 1 were written; they are removed with the directory)
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main([
            "simulate", "--name", "neg", "--output", str(tmp_path), "--seed", "1",
            "--set", "session.run_duration=0.02", "--set", override,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run ")
        assert "station B has a negative local timestamp" in err[0]
        assert "station_b.clock.offset" in err[0]
        assert not (tmp_path / "neg").exists()

    def test_failed_simulate_removes_the_output_root_it_created(self, tmp_path, capsys):
        # the session directory was removed, and its new parents left behind
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main([
            "simulate", "--name", "neg", "--output", str(tmp_path / "new" / "root"),
            "--set", "session.run_duration=0.02", "--set", "station_b.clock.offset=-1",
        ]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_drifting_clock_session_errors(self, tmp_path, capsys):
        # simulate refuses a drift the clock fit would refuse; tags whose
        # clock runs that fast anyway have every run skipped by analyze
        cfg_path = tmp_path / "config.json"
        tiny_config().to_json(cfg_path)
        from bellstrobe.cli import main

        capsys.readouterr()
        assert main([
            "simulate", "--config", str(cfg_path), "--name", "drift",
            "--output", str(tmp_path), "--set", "station_b.clock.drift_rate=0.002",
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "which the clock fit refuses" in err[0]
        assert not (tmp_path / "drift").exists()
        manifest_path = simulate_session(tiny_config(), tmp_path / "fast")
        for path in (tmp_path / "fast").glob("run*_B.tags"):
            header, channels, times = read_tag_arrays(path)
            write_tags(header, (channels, np.rint(times * 1.002).astype(np.int64)), path)
        self._assert_one_line_error(capsys, ["analyze", str(manifest_path)])


# --- the fixed point: a short file-based session -----------------------------

SEED7_NUMPY = "2.4.6"  # the files are pinned on this numpy only
# sha256 of every file of `simulate --seed 7 --set session.run_duration=0.7`
# (the session named "det"), then `analyze` into out/ and `report`; np.savez
# stamps the time into counts.npz, so it is pinned array by array instead
SEED7_FILES = {
    "det/manifest.json": "3c29897d99ca4146e8a00cabb326e172898fb560890b222098412dd3e602c948",
    "det/run000_A.tags": "f00865e60345aa454f56dc7d379c31567ae4b4a612042e5c8f5b5513df22f9dc",
    "det/run000_B.tags": "3cdf38845bffa926d4488930deb530d998b9460e273335c2347f380974af2b85",
    "det/run001_A.tags": "b136c2edc09621c0099da5e2b74c908180f6605afc62fadd9f9d9143454c4ab9",
    "det/run001_B.tags": "42caecae460febc88a5583050a6caa1d0b442763f11bf495bb7e8ff1180527ab",
    "det/run002_A.tags": "a8825cbc09aabba3b5a20ae92aa26c4331a02747b9f962546267e8f8ed62dd60",
    "det/run002_B.tags": "93bdec0e8913adabd64ef1bd48b41aaa9adbf416ed300b17c8580faf1e464b8e",
    "det/run003_A.tags": "7330cecbcc99af86088a237c6167fd890859dbacc319d264774dd7010abf581b",
    "det/run003_B.tags": "e808744752920a2f20ba56f2722b2d6363c40a01ee7a00884de28802b3345b9f",
    "det/run004_A.tags": "46ef63c1f78df368f645946b97c3cdd6a577dba5f2dcf9d9036b041aa580a108",
    "det/run004_B.tags": "61a8707a604d17a2874664473b68ad809581584db0c684c5661b4dbf067d1d00",
    "det/run005_A.tags": "f4aca52851e6d2b3a1db8e5aceb7c923fca2043f1219638491b9965ef0b9178a",
    "det/run005_B.tags": "76823f25542141b2b13d52b0166dc7c8f6244991f5b1eb1a2c6e696020509805",
    "det/run006_A.tags": "be47d23138d2c1d9aeeacd94cfe9eb5d90f05fef21e17a5921a38f658746edba",
    "det/run006_B.tags": "94ac7aa4b8588cac6eb5b1eb8c3a8c4f3f03dab235ea46a29ad99700949ae5f0",
    "det/run007_A.tags": "2cd21fe6676374554229e9610453af60482360122e7ce0df40802d7646c3d76c",
    "det/run007_B.tags": "bcaa6a48cf305e224bdc4dd1d7ce23a69c4a3f1fccef134a8efbf33d510a2df8",
    "out/summary.json": "4c3e62f443372e2c8e86023df5b5e8df52562fdac6a9ca584543e8a75302f7f7",
    "out/slots.csv": "eb32e747e792861d55a0abae97295ac32d2bd756886bb3126f8835032b980db7",
    "out/delta_t_hist.csv": "fcbd607a2ca4ebfb60ede8fd4bff3902710d93d8f11848b35b75a52afe8807b3",
    "out/report/coincidences_16types.csv":
        "f9eeb35c62059a566e07c74b7c7129a1ad43f9cf483220eb1544ac7a057985b2",
    "out/report/eta_Aplus_full.csv":
        "d535861436e35b7b27fde5bce45ea67cd5564949dc37bd8fc9ae19be71fbc428",
    "out/report/eta_Aplus_zoom.csv":
        "f62002daef3e9f01589618c264a0c015e59189212e48e878d1f76171351eb804",
    "out/report/plateau_vs_expected.txt":
        "07f018989fba3c1e2f64073f1c5ca5e3b09fb8fbd4a23aa2f4ffd0209f341edc",
    "out/report/product_Aplus_full.csv":
        "3c976207fb9ca929fe93a9b2f413d808645be9a644a691b6d123a5140f213f17",
    "out/report/product_Aplus_zoom.csv":
        "ca81b17327fadfdb405649bb27ef1c22d6b1f85cd095298083154e91d6a2870b",
    "out/report/s_chsh_full.csv":
        "2409116acfc22355b93ea543f6ed37d7325a55085186cdf1d570b4065908b9d2",
    "out/report/s_chsh_zoom.csv":
        "ea697eee2b6a37f31ed2db74a6b2ae24b58fce3c32bc9632756bfb4bdaed1acb",
}
# sha256 of the bytes of each integer counts.npz array, on every numpy
SEED7_COUNTS = {
    "slot_ps": "6fff9aef0d88c32b1e16a50833d2698afd0363ad3495673f8f92adfc4caad4f7",
    "n_slots": "cf5cb2f4d37db6ef4456abfbcdc112844e93c25fec167470d3f2e51a57c5d166",
    "singles": "660b68e2264cd2267e7edbb4b960ce44275cfdddafdac98bbdf4d533f344ac5d",
    "coincidences": "f386cecdcb714c9330c245e171b4d876ac1bcc27a7b65e6804547defaa01a584",
    "off_grid": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
    "delta_t_edges": "175697e883752b41e841bde2938079a551107f8c668115f3594e8ade304bb6e4",
    "delta_t_counts": "dc3b96400ca1d35a98cc988e5ea70058055659e8b2e60b0f123ebafe0fba7203",
}


class TestSeed7Session:
    """The seed-7 default session (`seed7_default` above) through the CLI,
    file by file: any change to a draw, a float operation or a writer moves
    a hash. A PR that moves an output on purpose updates these values."""

    @pytest.fixture(scope="class")
    def session_dir(self, tmp_path_factory):
        from bellstrobe.cli import main

        root = tmp_path_factory.mktemp("seed7")
        assert main([
            "simulate", "--seed", "7", "--set", "session.run_duration=0.7",
            "--name", "det", "--output", str(root),
        ]) == 0
        assert main(["analyze", str(root / "det" / "manifest.json"), "--output",
                     str(root / "out")]) == 0
        assert main(["report", str(root / "out" / "summary.json")]) == 0
        return root

    def test_integer_counts_are_pinned(self, session_dir):
        with np.load(session_dir / "out" / "counts.npz") as npz:
            arrays = dict(npz)
        assert {
            k: hashlib.sha256(v.tobytes()).hexdigest()
            for k, v in arrays.items() if v.dtype.kind == "i"
        } == SEED7_COUNTS

    @pytest.mark.skipif(
        np.__version__ != SEED7_NUMPY, reason=f"files are pinned on numpy {SEED7_NUMPY} only"
    )
    def test_files_are_pinned(self, session_dir):
        files = {
            p.relative_to(session_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in session_dir.rglob("*") if p.is_file() and p.name != "counts.npz"
        }
        assert files == SEED7_FILES


def rounded(obj, digits=12):
    """`obj` with every float rounded to `digits` significant digits."""
    if isinstance(obj, dict):
        return {k: rounded(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v, digits) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    return obj


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of scan_curves.csv of the seed-1 scan_34 session below, on every numpy
SCAN34_CURVES = "d8f1193c4aa37ddc4f3595b47e1027aca0206407f6d0ff87b5438ecc66f1d997"
# json_digest of its summary.json's `runs` block and the integer fields of
# each `sync` entry, on every numpy
SCAN34_INTEGERS = "f12c4627adc01e3f3bce51db2a5bb0693871bb4779c53b216f624afc889588e9"
# json_digest of its whole summary.json with floats rounded to 12 significant
# digits, on SEED7_NUMPY only: the fringe fits run np.linalg.lstsq in the
# bundled BLAS, whose kernels depend on the CPU whatever numpy's dispatch
SCAN34_SUMMARY = "8b1f61f48b899a7353a73ec4a4b45874fae742924c11594d5ad23368e7a44ee6"


class TestScan34Session:
    """The seed-1 scan_34 session through the CLI: `simulate --set
    session.mode=scan_34 --set session.runs_per_experiment=34 --set
    session.run_duration=0.03 --set session.dead_time=0.5`, then `analyze`
    and `report`. It pins the `scan_fits` block, which no chsh_4 pin covers."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        from bellstrobe.cli import main

        root = tmp_path_factory.mktemp("scan34")
        assert main([
            "simulate", "--seed", "1", "--set", "session.mode=scan_34",
            "--set", "session.runs_per_experiment=34", "--set", "session.run_duration=0.03",
            "--set", "session.dead_time=0.5", "--name", "scan", "--output", str(root),
        ]) == 0
        assert main(["analyze", str(root / "scan" / "manifest.json"), "--output",
                     str(root / "out")]) == 0
        assert main(["report", str(root / "out" / "summary.json")]) == 0
        return root / "out"

    def test_scan_curves_are_pinned(self, out):
        data = (out / "report" / "scan_curves.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SCAN34_CURVES

    def test_integer_blocks_are_pinned(self, out):
        summary = json.loads((out / "summary.json").read_text())
        integers = {
            "runs": summary["runs"],
            "sync": [{k: v for k, v in r.items() if type(v) is int} for r in summary["sync"]],
        }
        assert json_digest(integers) == SCAN34_INTEGERS

    @pytest.mark.skipif(
        np.__version__ != SEED7_NUMPY, reason=f"floats are pinned on numpy {SEED7_NUMPY} only"
    )
    def test_summary_is_pinned(self, out):
        summary = json.loads((out / "summary.json").read_text())
        assert json_digest(rounded(summary)) == SCAN34_SUMMARY
