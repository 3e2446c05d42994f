import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellstrobe.analysis import SlotGrid, bin_coincidences
from bellstrobe.coinc import (
    Coincidences,
    SessionMixError,
    accidental_estimate,
    build_tables,
    delta_t_histogram,
    match_coincidences,
)
from bellstrobe.config import desk_boosted
from bellstrobe.session import process_run, simulate_run
from bellstrobe.sync import Detections


def detections(station, rows):
    """rows: list of (detector, pulse, intra_time)."""
    rows = sorted(rows, key=lambda r: (r[1], r[2]))
    return Detections(
        station=station,
        detector=np.array([r[0] for r in rows], np.int8),
        pulse_number=np.array([r[1] for r in rows], np.int64),
        intra_time=np.array([r[2] for r in rows], np.float64),
    )


class TestMatching:
    def test_basic_pair(self):
        a = detections("A", [(1, 7, 100e-9)])
        b = detections("B", [(-1, 7, 101e-9)])
        rec = match_coincidences(a, b)
        assert len(rec) == 1
        assert (rec.oa[0], rec.ob[0]) == (1, -1)
        assert rec.delta_t[0] == pytest.approx(1e-9)
        assert rec.intra_time[0] == pytest.approx(100e-9)
        assert rec.pulse_number[0] == 7

    def test_pulse_number_gate(self):
        a = detections("A", [(1, 7, 100e-9)])
        b = detections("B", [(1, 8, 100e-9)])
        assert len(match_coincidences(a, b)) == 0

    def test_window_gate(self):
        a = detections("A", [(1, 7, 100e-9)])
        b = detections("B", [(1, 7, 105e-9)])
        assert len(match_coincidences(a, b, window=4e-9)) == 0
        assert len(match_coincidences(a, b, window=6e-9)) == 1

    def test_greedy_earliest_first(self):
        # two A and two B in one pulse; earliest pair with earliest
        a = detections("A", [(1, 3, 100e-9), (-1, 3, 102e-9)])
        b = detections("B", [(1, 3, 101e-9), (-1, 3, 103e-9)])
        rec = match_coincidences(a, b)
        assert len(rec) == 2
        assert list(rec.oa) == [1, -1]
        assert list(rec.ob) == [1, -1]

    def test_each_detection_used_once(self):
        a = detections("A", [(1, 3, 100e-9)])
        b = detections("B", [(1, 3, 101e-9), (1, 3, 102e-9)])
        assert len(match_coincidences(a, b)) == 1

    def test_record_count_bounded_per_pulse(self, rng):
        rows_a = [(1, int(p), float(t)) for p, t in
                  zip(rng.integers(0, 40, 300), rng.uniform(0, 500e-9, 300))]
        rows_b = [(1, int(p), float(t)) for p, t in
                  zip(rng.integers(0, 40, 200), rng.uniform(0, 500e-9, 200))]
        a, b = detections("A", rows_a), detections("B", rows_b)
        rec = match_coincidences(a, b, window=500e-9)
        for pulse in range(40):
            na = np.sum(a.pulse_number == pulse)
            nb = np.sum(b.pulse_number == pulse)
            assert np.sum(rec.pulse_number == pulse) <= min(na, nb)

    def test_symmetric_under_station_exchange(self, rng):
        rows_a = [(int(d), int(p), float(t)) for d, p, t in
                  zip(rng.choice([-1, 1], 200), rng.integers(0, 30, 200),
                      rng.uniform(0, 500e-9, 200))]
        rows_b = [(int(d), int(p), float(t)) for d, p, t in
                  zip(rng.choice([-1, 1], 180), rng.integers(0, 30, 180),
                      rng.uniform(0, 500e-9, 180))]
        a, b = detections("A", rows_a), detections("B", rows_b)
        fwd = match_coincidences(a, b, window=6e-9)
        rev = match_coincidences(b, a, window=6e-9)
        assert len(fwd) == len(rev)
        key_f = sorted(zip(fwd.pulse_number, fwd.oa, fwd.ob, np.round(fwd.delta_t, 15)))
        key_r = sorted(zip(rev.pulse_number, rev.ob, rev.oa, np.round(-rev.delta_t, 15)))
        assert key_f == key_r


def greedy_pairs(ta, tb, window):
    """Earliest-first pairing of two sorted time lists within one pulse."""
    out = []
    i = j = 0
    while i < len(ta) and j < len(tb):
        dt = tb[j] - ta[i]
        if abs(dt) <= window:
            out.append((i, j))
            i += 1
            j += 1
        elif dt > 0:
            i += 1  # this A detection can never match a later B
        else:
            j += 1
    return out


def oracle_records(a, b, window):
    """Reference matcher: greedy_pairs applied pulse by pulse, in pure Python.
    Rows are (pulse, oa, ob, A's time, B minus A) in pulse order, then in
    A's order within the pulse."""
    def groups(pulses):
        out = {}
        for k, pulse in enumerate(pulses.tolist()):
            out.setdefault(pulse, []).append(k)
        return out

    ga, gb = groups(a.pulse_number), groups(b.pulse_number)
    ta, tb = a.intra_time.tolist(), b.intra_time.tolist()
    da, db = a.detector.tolist(), b.detector.tolist()
    rows = []
    for pulse in sorted(ga.keys() & gb.keys()):
        ia, ib = ga[pulse], gb[pulse]
        for i, j in greedy_pairs([ta[k] for k in ia], [tb[k] for k in ib], window):
            ka, kb = ia[i], ib[j]
            rows.append((pulse, da[ka], db[kb], ta[ka], tb[kb] - ta[ka]))
    return rows


def record_rows(rec):
    return list(zip(
        rec.pulse_number.tolist(), rec.oa.tolist(), rec.ob.tolist(),
        rec.intra_time.tolist(), rec.delta_t.tolist(),
    ))


# Times on a binary grid, so equal times and |dt| == window occur exactly.
TICK = 2.0**-30
pulse_detections = st.dictionaries(
    st.integers(0, 6),
    st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(0, 12)), min_size=1, max_size=8),
    max_size=5,
)


def detections_from(station, by_pulse):
    return detections(
        station, [(d, p, tick * TICK) for p, rows in by_pulse.items() for d, tick in rows]
    )


class TestMatchingOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows_a=pulse_detections, rows_b=pulse_detections,
           window_ticks=st.sampled_from([0, 1, 2, 4]))
    def test_same_records_as_greedy_loop(self, rows_a, rows_b, window_ticks):
        a, b = detections_from("A", rows_a), detections_from("B", rows_b)
        window = window_ticks * TICK
        assert record_rows(match_coincidences(a, b, window)) == oracle_records(a, b, window)

    def test_same_records_on_a_boosted_run(self):
        config = desk_boosted(seed=3)
        products = process_run(simulate_run(config, 0), config)
        rec = products.records
        # multi-pair pulses are present, so the lockstep walk takes several passes
        assert np.any(np.diff(rec.pulse_number) == 0)
        assert record_rows(rec) == oracle_records(
            products.detections_a, products.detections_b, config.analysis.window
        )


class TestAccidentals:
    def test_paper_numbers(self):
        assert accidental_estimate(200, 200, 4e-9, 30) == pytest.approx(4.8e-3)

    def test_zero_rate(self):
        assert accidental_estimate(0, 12345, 4e-9, 30) == 0.0

    def test_direct_product(self):
        assert accidental_estimate(1000, 1000, 1e-9, 1) == pytest.approx(1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            accidental_estimate(-1, 1, 1, 1)


def one_record(oa, ob, pulse=0, intra=100e-9):
    return Coincidences(
        pulse_number=np.array([pulse], np.int64),
        oa=np.array([oa], np.int8),
        ob=np.array([ob], np.int8),
        intra_time=np.array([intra], np.float64),
        delta_t=np.array([0.0]),
    )


class TestTables:
    def test_single_record(self):
        tables = build_tables({0: one_record(1, 1)}, {0: "ab"})
        assert tables["ab"].as_dict() == {"++": 1, "+-": 0, "-+": 0, "--": 0}
        assert tables["ab"].total == 1

    def test_outcome_index_order(self):
        for (oa, ob), expect in zip([(1, 1), (1, -1), (-1, 1), (-1, -1)], range(4)):
            assert one_record(oa, ob).outcome_index()[0] == expect

    def test_session_mixing_rejected(self):
        records = {0: one_record(1, 1), 1: one_record(1, 1)}
        with pytest.raises(SessionMixError):
            build_tables(
                records,
                {0: "ab", 1: "ab"},
                session_of_run={0: "s1", 1: "s2"},
            )

    def test_same_session_accumulates(self):
        records = {0: one_record(1, 1), 1: one_record(-1, -1)}
        tables = build_tables(
            records, {0: "ab", 1: "ab"}, session_of_run={0: "s1", 1: "s1"}
        )
        assert tables["ab"].total == 2

    def test_unlabeled_run_rejected(self):
        with pytest.raises(KeyError):
            build_tables({0: one_record(1, 1)}, {})

    def test_four_settings_symmetric_totals(self):
        records = {i: one_record(1, -1, pulse=i) for i in range(8)}
        labels = {i: ["ab", "ab'", "a'b", "a'b'"][i % 4] for i in range(8)}
        tables = build_tables(records, labels)
        assert all(t.total == 2 for t in tables.values())

    def test_slot_counts_sum_to_totals(self, rng):
        n = 500
        rec = Coincidences(
            pulse_number=np.arange(n, dtype=np.int64),
            oa=rng.choice([-1, 1], n).astype(np.int8),
            ob=rng.choice([-1, 1], n).astype(np.int8),
            intra_time=rng.uniform(0, 2e-6, n),
            delta_t=np.zeros(n),
        )
        tables = build_tables({0: rec}, {0: "ab"})
        slots = bin_coincidences(rec, SlotGrid.for_period(4e-9, 2e-6))
        assert np.array_equal(slots.sum(axis=0), tables["ab"].counts)

    def test_slot_overflow_kept_in_totals_only(self):
        rec = one_record(1, 1, intra=3e-6)  # beyond the 2 us grid
        tables = build_tables({0: rec}, {0: "ab"})
        assert tables["ab"].total == 1
        assert bin_coincidences(rec, SlotGrid.for_period(4e-9, 2e-6)).sum() == 0


class TestOutOfPulseCoincidences:
    def test_accidentals_only_outside_pulses(self, default_session):
        # out-of-pulse slots (well past the pulse tail) should hold at most a
        # couple of chance coincidences, consistent with the accidental rate
        series = default_session.series
        out = series.coincidences[:, 130:, :].sum()  # slots from 520 ns on
        duration = 0.8 * 8  # run_duration x runs in the desk default session
        # both detectors contribute to each station's dark rate
        expected = accidental_estimate(400.0, 400.0, 4e-9, duration)
        assert expected < 0.1
        assert out <= 2


class TestDeltaHistogram:
    def test_spread_matches_quadrature_jitter(self):
        # simulated pairs with 2 ns detector jitter on both stations: the
        # delta_t spread is sqrt(2) x 2 ns (window widened so nothing truncates)
        from bellstrobe.model import AngleSetting, QmStateModel
        from bellstrobe.sim import PulsePlan, SourceConfig, StationConfig, emit_events
        from bellstrobe.sync import assign_to_pulses

        st = StationConfig(detector_efficiency=1.0, dark_rate=0.0,
                           detector_jitter_sigma=2e-9)
        plan = PulsePlan(n_pulses=60_000)
        a, b = emit_events(plan, SourceConfig(pair_yield=0.2), (st, st),
                           AngleSetting(0, 0), QmStateModel(1.0), 17)
        (trig_a, dets_a), (trig_b, dets_b) = a.split_triggers(), b.split_triggers()
        det_a = assign_to_pulses(dets_a, trig_a, st.trigger_delay, "A")
        det_b = assign_to_pulses(dets_b, trig_b, st.trigger_delay, "B")
        rec = match_coincidences(det_a, det_b, window=20e-9)
        assert len(rec) > 5000
        assert np.std(rec.delta_t) == pytest.approx(2e-9 * math.sqrt(2), rel=0.10)
        edges, hist = delta_t_histogram(rec, bin_width=1e-9, half_range=20e-9)
        assert hist.sum() <= len(rec)
        assert edges.size == hist.size + 1
