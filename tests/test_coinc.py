import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellstrobe import coinc
from bellstrobe.analysis import AnalysisError, SessionMixError, SlotCounts, SlotGrid
from bellstrobe.coinc import (
    Coincidences,
    accidental_estimate,
    delta_t_edges,
    delta_t_histogram,
    match_coincidences,
)
from bellstrobe.config import SessionPlan, desk_boosted, to_ps
from bellstrobe.model import OUTCOME_LABELS, OUTCOME_ORDER
from bellstrobe.session import analyze_products, process_run, simulate_run
from bellstrobe.sync import Detections


WINDOW_PS = 4000  # the configured 4 ns coincidence window


def detections(rows):
    """rows: list of (minus, pulse, intra_ps); minus is 1 for the - detector."""
    rows = sorted(rows, key=lambda r: (r[1], r[2]))
    return Detections(
        minus=np.array([r[0] for r in rows], np.uint8),
        pulse_number=np.array([r[1] for r in rows], np.int64),
        intra_ps=np.array([r[2] for r in rows], np.int64),
    )


class TestMatching:
    def test_basic_pair(self):
        a = detections([(0, 7, 100_000)])
        b = detections([(1, 7, 101_000)])
        rec = match_coincidences(a, b, WINDOW_PS)
        assert len(rec) == 1
        assert rec.outcome[0] == OUTCOME_LABELS.index("+-")
        assert rec.delta_t_ps[0] == 1000
        assert rec.intra_ps[0] == 100_000
        assert rec.pulse_number[0] == 7

    def test_pulse_number_gate(self):
        a = detections([(0, 7, 100_000)])
        b = detections([(0, 8, 100_000)])
        assert len(match_coincidences(a, b, WINDOW_PS)) == 0

    def test_window_gate(self):
        a = detections([(0, 7, 100_000)])
        b = detections([(0, 7, 105_000)])
        assert len(match_coincidences(a, b, 4000)) == 0
        assert len(match_coincidences(a, b, 6000)) == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pair_at_the_window_edge_matched_at_every_a_time(self, sign):
        # one pair per pulse, |B - A| exactly one window, A every 7 ps over
        # the whole 2 us period
        ta = np.arange(0, 2_000_000, 7, dtype=np.int64)
        pulses = np.arange(ta.size, dtype=np.int64)
        plus = np.zeros(ta.size, np.uint8)
        a = Detections(plus, pulses, ta)
        b = Detections(plus, pulses, ta + sign * WINDOW_PS)
        rec = match_coincidences(a, b, WINDOW_PS)
        assert len(rec) == ta.size
        assert np.all(rec.delta_t_ps == sign * WINDOW_PS)
        assert len(match_coincidences(a, b, WINDOW_PS - 1)) == 0

    def test_greedy_earliest_first(self):
        # two A and two B in one pulse; earliest pair with earliest
        a = detections([(0, 3, 100_000), (1, 3, 102_000)])
        b = detections([(0, 3, 101_000), (1, 3, 103_000)])
        rec = match_coincidences(a, b, WINDOW_PS)
        assert len(rec) == 2
        assert [OUTCOME_LABELS[o] for o in rec.outcome] == ["++", "--"]

    def test_each_detection_used_once(self):
        a = detections([(0, 3, 100_000)])
        b = detections([(0, 3, 101_000), (0, 3, 102_000)])
        assert len(match_coincidences(a, b, WINDOW_PS)) == 1

    def test_record_count_bounded_per_pulse(self, rng):
        rows_a = [(0, int(p), int(t)) for p, t in
                  zip(rng.integers(0, 40, 300), rng.integers(0, 500_000, 300))]
        rows_b = [(0, int(p), int(t)) for p, t in
                  zip(rng.integers(0, 40, 200), rng.integers(0, 500_000, 200))]
        a, b = detections(rows_a), detections(rows_b)
        rec = match_coincidences(a, b, 500_000)
        for pulse in range(40):
            na = np.sum(a.pulse_number == pulse)
            nb = np.sum(b.pulse_number == pulse)
            assert np.sum(rec.pulse_number == pulse) <= min(na, nb)

    def test_symmetric_under_station_exchange(self, rng):
        rows_a = [(int(d), int(p), int(t)) for d, p, t in
                  zip(rng.choice([0, 1], 200), rng.integers(0, 30, 200),
                      rng.integers(0, 500_000, 200))]
        rows_b = [(int(d), int(p), int(t)) for d, p, t in
                  zip(rng.choice([0, 1], 180), rng.integers(0, 30, 180),
                      rng.integers(0, 500_000, 180))]
        a, b = detections(rows_a), detections(rows_b)
        fwd = match_coincidences(a, b, 6000)
        rev = match_coincidences(b, a, 6000)
        assert len(fwd) == len(rev)
        # exchanging the stations swaps the two minus bits of each outcome
        swapped = 2 * (rev.outcome % 2) + rev.outcome // 2
        key_f = sorted(zip(fwd.pulse_number, fwd.outcome, fwd.delta_t_ps))
        key_r = sorted(zip(rev.pulse_number, swapped, -rev.delta_t_ps))
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
    Rows are (pulse, outcome, A's time, B minus A) in pulse order, then in
    A's order within the pulse; the outcome is 2 * A's minus bit + B's."""
    def groups(pulses):
        out = {}
        for k, pulse in enumerate(pulses.tolist()):
            out.setdefault(pulse, []).append(k)
        return out

    ga, gb = groups(a.pulse_number), groups(b.pulse_number)
    ta, tb = a.intra_ps.tolist(), b.intra_ps.tolist()
    ma, mb = a.minus.tolist(), b.minus.tolist()
    rows = []
    for pulse in sorted(ga.keys() & gb.keys()):
        ia, ib = ga[pulse], gb[pulse]
        for i, j in greedy_pairs([ta[k] for k in ia], [tb[k] for k in ib], window):
            ka, kb = ia[i], ib[j]
            rows.append((pulse, 2 * ma[ka] + mb[kb], ta[ka], tb[kb] - ta[ka]))
    return rows


def record_rows(rec):
    return list(zip(
        rec.pulse_number.tolist(), rec.outcome.tolist(),
        rec.intra_ps.tolist(), rec.delta_t_ps.tolist(),
    ))


# Intra-pulse times of a few picoseconds, so equal times and |dt| == window
# are common.
pulse_detections = st.dictionaries(
    st.integers(0, 6),
    st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(0, 12)), min_size=1, max_size=8),
    max_size=5,
)


def detections_from(by_pulse):
    return detections([(m, p, t) for p, rows in by_pulse.items() for m, t in rows])


class TestMatchingOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows_a=pulse_detections, rows_b=pulse_detections,
           window_ps=st.sampled_from([0, 1, 2, 4]))
    def test_same_records_as_greedy_loop(self, rows_a, rows_b, window_ps):
        a, b = detections_from(rows_a), detections_from(rows_b)
        rec = match_coincidences(a, b, window_ps)
        assert record_rows(rec) == oracle_records(a, b, window_ps)

    def test_same_records_on_a_boosted_run(self, monkeypatch):
        config = desk_boosted(seed=3)
        seen = []  # the detections process_run matches

        def match(a, b, window_ps):
            seen.append((a, b))
            return match_coincidences(a, b, window_ps)

        monkeypatch.setattr(coinc, "match_coincidences", match)
        rec = process_run(simulate_run(config, 0), config).records
        # multi-pair pulses are present, so the lockstep walk takes several passes
        assert np.any(np.diff(rec.pulse_number) == 0)
        assert record_rows(rec) == oracle_records(*seen[0], config.analysis.window_ps)


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


def one_record(label, pulse=0, intra_ps=100_000):
    return Coincidences(
        pulse_number=np.array([pulse], np.int64),
        outcome=np.array([OUTCOME_LABELS.index(label)], np.uint8),
        intra_ps=np.array([intra_ps], np.int64),
        delta_t_ps=np.array([0], np.int64),
    )


QUAD = ("ab", "ab'", "a'b", "a'b'")


def session_counts(runs, session="s1"):
    """Counts of [(setting, records), ...] runs, binned run by run and summed."""
    grid, edges = SlotGrid.for_period(4000, 2_000_000), delta_t_edges(WINDOW_PS)

    def zeros():
        return SlotCounts.zeros(session, grid, QUAD, [(0.0, 0.0)] * 4, edges)

    total = zeros()
    for setting, rec in runs:
        run = zeros()
        run.add_run(setting, (), rec)
        total = total + run
    return total


class TestTables:
    def test_single_record(self):
        counts = session_counts([("ab", one_record("++"))])
        assert counts.totals()[0].tolist() == [1, 0, 0, 0]
        assert counts.totals().sum() == 1

    def test_outcome_index_order(self):
        # a matched pair's outcome is its index in OUTCOME_ORDER
        for expect, (oa, ob) in enumerate(OUTCOME_ORDER):
            a = detections([(int(oa < 0), 0, 100_000)])
            b = detections([(int(ob < 0), 0, 100_000)])
            assert match_coincidences(a, b, WINDOW_PS).outcome.tolist() == [expect]

    def test_session_mixing_rejected(self):
        one = session_counts([("ab", one_record("++"))], session="s1")
        two = session_counts([("ab", one_record("++"))], session="s2")
        with pytest.raises(SessionMixError):
            one + two

    def test_same_session_accumulates(self):
        counts = session_counts([("ab", one_record("++")), ("ab", one_record("--"))])
        assert counts.totals()[0].tolist() == [1, 0, 0, 1]

    def test_unlabeled_run_rejected(self):
        config = replace(
            desk_boosted(seed=3),
            session=SessionPlan(run_duration=0.04, runs_per_experiment=4, dead_time=1.0)
        )
        run = simulate_run(config, 0)
        run.setting_label = "zz"  # a setting this session does not have
        with pytest.raises(AnalysisError, match="zz"):
            process_run(run, config)
        run.setting_label = "ab"
        products = [process_run(run, config)]
        scan = replace(
            config,
            session=replace(config.session, mode="scan_34", runs_per_experiment=34)
        )
        # the run's setting "ab" is unknown to a scan session's counts
        with pytest.raises(SessionMixError, match="scan00"):
            analyze_products(products, scan)

    def test_four_settings_symmetric_totals(self):
        runs = [(QUAD[i % 4], one_record("+-", pulse=i)) for i in range(8)]
        assert session_counts(runs).totals().sum(axis=1).tolist() == [2, 2, 2, 2]

    def test_slot_counts_sum_to_totals(self, rng):
        n = 500
        rec = Coincidences(
            pulse_number=np.arange(n, dtype=np.int64),
            outcome=rng.integers(0, 4, n).astype(np.uint8),
            intra_ps=rng.integers(0, 2_000_000, n),
            delta_t_ps=np.zeros(n, np.int64),
        )
        counts = session_counts([("ab", rec)])
        assert not counts.off_grid.any()
        assert np.array_equal(
            counts.coincidences[0].sum(axis=0), np.bincount(rec.outcome, minlength=4)
        )

    def test_slot_overflow_kept_in_totals_only(self):
        counts = session_counts([("ab", one_record("++", intra_ps=3_000_000))])  # past 2 us
        assert counts.coincidences.sum() == 0
        assert counts.off_grid[0].tolist() == [1, 0, 0, 0]
        assert counts.totals().sum() == 1


class TestOutOfPulseCoincidences:
    def test_accidentals_only_outside_pulses(self, default_session):
        # out-of-pulse slots (well past the pulse tail) should hold at most a
        # couple of chance coincidences, consistent with the accidental rate
        out = default_session.counts.coincidences[:, 130:, :].sum()  # slots from 520 ns on
        duration = 0.8 * 8  # run_duration x runs in the desk default session
        # both detectors contribute to each station's dark rate
        expected = accidental_estimate(400.0, 400.0, 4e-9, duration)
        assert expected < 0.1
        assert out <= 2


class TestDeltaHistogram:
    def test_spread_matches_quadrature_jitter(self):
        # simulated pairs with 2 ns detector jitter on both stations: the
        # delta_t spread is sqrt(2) x 2 ns (window widened so nothing truncates)
        from bellstrobe.model import AngleSetting
        from bellstrobe.sim import (
            CHANNEL_TRIGGER, PulsePlan, SourceConfig, StationConfig, emit_events,
        )
        from bellstrobe.sync import assign_to_pulses

        st = StationConfig(detector_efficiency=1.0, dark_rate=0.0,
                           detector_jitter_sigma=2e-9)
        plan, n_pulses = PulsePlan(), 60_000
        a, b = emit_events(plan, n_pulses, SourceConfig(pair_yield=0.2), (st, st),
                           AngleSetting(0, 0), 1.0, 17)
        delay_ps = to_ps(st.trigger_delay, "trigger_delay")
        det_a, det_b = (
            assign_to_pulses(s, s.times_ps[s.channels == CHANNEL_TRIGGER], delay_ps)
            for s in (a, b)
        )
        rec = match_coincidences(det_a, det_b, 20_000)
        assert len(rec) > 5000
        assert np.std(rec.delta_t_ps) == pytest.approx(2000 * math.sqrt(2), rel=0.10)
        edges = np.arange(-20_000, 20_001, 1000)
        hist = delta_t_histogram(rec, edges)
        assert hist.sum() <= len(rec)
        assert edges.size == hist.size + 1
