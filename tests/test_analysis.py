import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellstrobe.analysis import (
    DETECTOR_KEYS,
    DETECTOR_OUTCOMES,
    SEARCH_TAUS,
    AnalysisError,
    SlotCounts,
    SlotGrid,
    SlotSeries,
    angle_scan_curves,
    bin_coincidences,
    bin_singles,
    chi_square_vs_constant,
    correlator_series,
    detect_transient,
    efficiency_series,
    in_pulse_slots,
    plateau_summary,
    product_series,
    reconstruct,
    significance_mask,
)
from bellstrobe.coinc import Coincidences, delta_t_edges, delta_t_histogram
from bellstrobe.model import TSIRELSON, OUTCOME_LABELS, OUTCOME_ORDER, OUTCOME_PARITY
from bellstrobe.sim import TagStream
from bellstrobe.sync import Detections, assign_to_pulses

PERIOD_PS = 2_000_000  # the 2 us base period
DELAY_PS = 57_000  # the default trigger delay
GRIDS = {"chsh_4": SlotGrid.for_period(4000, PERIOD_PS), "scan_34": SlotGrid(PERIOD_PS, 1)}
# Intra-pulse times on a boundary of both grids, up to 1.5 periods.
on_boundary = st.integers(0, 750).map(lambda k: k * 4000)


class TestSlotGrid:
    def test_default_grid(self):
        grid = SlotGrid.for_period(4000, PERIOD_PS)
        assert grid.n_slots == 500
        assert grid.slot_ps * grid.n_slots == PERIOD_PS

    def test_non_dividing_width_rejected(self):
        with pytest.raises(ValueError):
            SlotGrid.for_period(3000, PERIOD_PS)


def make_detections(intra_ps, minus=None, pulses=None):
    n = len(intra_ps)
    order = np.argsort(intra_ps, kind="stable")
    return Detections(
        minus=np.asarray(minus if minus is not None else [0] * n, np.uint8)[order],
        pulse_number=np.asarray(pulses if pulses is not None else [0] * n, np.int64)[order],
        intra_ps=np.asarray(intra_ps, np.int64)[order],
    )


def assigned_tags(offsets_ps):
    """Detections of tags at trigger + delay + offset in the first pulse of
    an FM-lengthened (2.04 us) train."""
    triggers = np.arange(3, dtype=np.int64) * 2_040_000
    times = np.sort(np.asarray(offsets_ps, np.int64)) + DELAY_PS
    tags = TagStream(np.ones(times.size, np.uint8), times)
    return assign_to_pulses(tags, triggers, DELAY_PS)


class TestBinning:
    def test_slot_indexing(self):
        grid = SlotGrid.for_period(4000, PERIOD_PS)
        det = make_detections([0, 123_000])
        singles = bin_singles(det, grid)
        assert singles.shape == (2, 500)
        assert singles[0, 0] == 1
        assert singles[0, 30] == 1  # floor(123/4)
        assert singles[0].sum() == 2 and singles[1].sum() == 0

    @pytest.mark.parametrize("slot_ps", [4000, 20_000])
    def test_tag_on_a_slot_boundary_starts_that_slot(self, slot_ps):
        grid = SlotGrid.for_period(slot_ps, PERIOD_PS)
        det = assigned_tags(np.arange(grid.n_slots) * slot_ps)
        assert np.array_equal(det.intra_ps, np.arange(grid.n_slots) * slot_ps)
        assert bin_singles(det, grid)[0].tolist() == [1] * grid.n_slots

    def test_one_full_period_is_off_grid(self):
        det = assigned_tags([PERIOD_PS])
        assert det.intra_ps.tolist() == [PERIOD_PS]
        for grid in GRIDS.values():
            assert bin_singles(det, grid)[0].sum() == 0

    @settings(max_examples=100, deadline=None)
    @given(intra_ps=st.lists(st.one_of(st.integers(-8000, 3_000_000), on_boundary), max_size=50),
           mode=st.sampled_from(sorted(GRIDS)))
    def test_slot_is_exact_integer_division(self, intra_ps, mode):
        grid = GRIDS[mode]
        expected = [0] * grid.n_slots
        for t in intra_ps:
            if 0 <= t // grid.slot_ps < grid.n_slots:
                expected[t // grid.slot_ps] += 1
        assert bin_singles(make_detections(intra_ps), grid)[0].tolist() == expected

    def test_uniform_pulse_occupies_first_125_slots(self, rng):
        grid = SlotGrid.for_period(4000, PERIOD_PS)
        det = make_detections(rng.integers(0, 500_000, 50_000))
        singles = bin_singles(det, grid)[0]
        assert np.all(singles[:125] > 0)
        assert np.all(singles[125:] == 0)

    def test_beyond_grid_dropped(self):
        grid = SlotGrid.for_period(4000, PERIOD_PS)
        det = make_detections([2_500_000])
        assert bin_singles(det, grid)[0].sum() == 0

    def test_coincidences_share_the_singles_slots(self):
        grid = SlotGrid.for_period(4000, PERIOD_PS)
        intra = [0, 123_000, 123_000, -1000, 2_500_000]
        rec = Coincidences(
            pulse_number=np.arange(5, dtype=np.int64),
            outcome=np.array([0, 1, 3, 0, 0], np.uint8),
            intra_ps=np.array(intra, np.int64),
            delta_t_ps=np.zeros(5, np.int64),
        )
        counts = bin_coincidences(rec, grid)
        assert counts.shape == (500, 4)
        assert counts[0].tolist() == [1, 0, 0, 0]
        assert counts[30].tolist() == [0, 1, 0, 1]  # floor(123/4), +- and --
        assert counts.sum() == 3  # before the pulse start and beyond the grid: dropped
        singles = bin_singles(make_detections(intra), grid)[0]
        assert np.array_equal(singles, counts.sum(axis=1))


SETTINGS = ("ab", "ab'", "a'b", "a'b'")
EDGES = delta_t_edges(4000)  # 500 ps bins over +-6 ns

# One coincidence per row: (A's minus bit, B's minus bit, A's intra_ps,
# delta_t_ps); a minus bit is 1 where the - detector fired. Times run past
# the 2 us grid, so some records fall off it; about half the times sit on a
# slot boundary (one full period among them), and about half the differences
# on a histogram bin edge.
record_rows = st.lists(
    st.tuples(
        st.sampled_from([0, 1]),
        st.sampled_from([0, 1]),
        st.one_of(st.integers(0, 3_000_000), on_boundary),
        st.one_of(st.integers(-8000, 8000), st.integers(-16, 16).map(lambda k: k * 500)),
    ),
    max_size=40,
)
runs_of_rows = st.lists(
    st.tuples(st.sampled_from(SETTINGS), record_rows), min_size=1, max_size=6
)


def rows_to_run(rows):
    """(A detections, B detections, records) of coincidence rows."""
    ma, mb, intra, dt = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    pulse = np.arange(ma.size, dtype=np.int64)
    records = Coincidences(pulse, (2 * ma + mb).astype(np.uint8), intra, dt)
    det_a = Detections(ma.astype(np.uint8), pulse, intra)
    det_b = Detections(mb.astype(np.uint8), pulse, intra + dt)
    return det_a, det_b, records


def zero_counts(mode):
    angles = [(0.0, 0.1 * i) for i in range(4)]
    return SlotCounts.zeros("s", GRIDS[mode], SETTINGS, angles, EDGES)


def run_counts(mode, setting, rows):
    counts = zero_counts(mode)
    det_a, det_b, records = rows_to_run(rows)
    counts.add_run(setting, (det_a, det_b), records)
    return counts


def sum_of_runs(mode, runs):
    return sum((run_counts(mode, lab, rows) for lab, rows in runs), zero_counts(mode))


def session_counts(singles, tables, slot_ps=4000):
    """chsh_4 counts holding (4, n_slots) singles and (4, n_slots, 4) tables."""
    grid = SlotGrid(slot_ps=slot_ps, n_slots=tables.shape[1])
    angles = [(0.0, 0.1 * i) for i in range(4)]
    zeros = SlotCounts.zeros("s", grid, SETTINGS, angles, EDGES)
    return replace(zeros, singles=np.asarray(singles), coincidences=np.asarray(tables))


def assert_counts_equal(x, y):
    assert x.session_id == y.session_id and x.grid == y.grid
    assert x.setting_labels == y.setting_labels
    for name in ("setting_angles", "singles", "coincidences", "off_grid",
                 "delta_t_edges", "delta_t_counts"):
        assert np.array_equal(getattr(x, name), getattr(y, name)), name


class TestSlotCounts:
    @settings(max_examples=60, deadline=None)
    @given(runs=runs_of_rows, mode=st.sampled_from(sorted(GRIDS)))
    def test_sum_of_runs_equals_binning_at_once(self, runs, mode):
        summed = sum_of_runs(mode, runs)
        at_once = zero_counts(mode)
        for lab in SETTINGS:
            rows = [row for run_lab, run_rows in runs if run_lab == lab for row in run_rows]
            det_a, det_b, records = rows_to_run(rows)
            at_once.add_run(lab, (det_a, det_b), records)
        assert_counts_equal(summed, at_once)

    @settings(max_examples=60, deadline=None)
    @given(runs=runs_of_rows, mode=st.sampled_from(sorted(GRIDS)))
    def test_grid_plus_off_grid_is_every_outcome(self, runs, mode):
        counts = sum_of_runs(mode, runs)
        expected = np.zeros((4, 4), dtype=np.int64)
        for lab, rows in runs:
            expected[SETTINGS.index(lab)] += np.bincount(
                rows_to_run(rows)[2].outcome, minlength=4
            )
        assert np.array_equal(counts.coincidences.sum(axis=1) + counts.off_grid, expected)
        assert np.array_equal(counts.totals(), expected)

    def test_off_grid_holds_records_past_the_period(self):
        rows = [(0, 0, 1_000_000, 0), (0, 1, 2_200_000, 0), (1, 1, PERIOD_PS, 0)]
        for mode in GRIDS:
            counts = run_counts(mode, "ab", rows)
            assert counts.off_grid[0].tolist() == [0, 1, 0, 1]
            assert counts.coincidences.sum(axis=(0, 1)).tolist() == [1, 0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(runs=runs_of_rows)
    def test_summed_delta_t_histograms_match_concatenation(self, runs):
        counts = sum_of_runs("chsh_4", runs)
        records = rows_to_run([row for _, rows in runs for row in rows])[2]
        assert np.array_equal(counts.delta_t_edges, EDGES)
        assert np.array_equal(counts.delta_t_counts, delta_t_histogram(records, EDGES))

    @settings(max_examples=20, deadline=None)
    @given(runs=runs_of_rows, mode=st.sampled_from(sorted(GRIDS)))
    def test_save_load_round_trip(self, runs, mode):
        counts = sum_of_runs(mode, runs)
        with tempfile.TemporaryDirectory() as tmp:
            counts.save(Path(tmp) / "counts.npz")
            assert_counts_equal(SlotCounts.load(Path(tmp) / "counts.npz"), counts)


# One detection per entry: (minus bit, intra_ps).
detection_rows = st.lists(
    st.tuples(st.sampled_from([0, 1]), st.one_of(st.integers(-8000, 3_000_000), on_boundary)),
    max_size=40,
)


def bincount_on_grid(intra_ps, grid):
    """Oracle slot histogram: times inside [0, one period) only."""
    t = np.asarray(intra_ps, dtype=np.int64)
    t = t[(t >= 0) & (t < grid.slot_ps * grid.n_slots)]
    return np.bincount(t // grid.slot_ps, minlength=grid.n_slots)


class TestDetectorRows:
    def test_constants_follow_outcome_order(self):
        for o, (oa, ob) in enumerate(OUTCOME_ORDER):
            assert o == 2 * (oa < 0) + (ob < 0)  # the Coincidences.outcome index
            assert OUTCOME_PARITY[o] == oa * ob
            fired = {"A" + "+-"[oa < 0], "B" + "+-"[ob < 0]}
            assert [DETECTOR_OUTCOMES[d, o] for d in range(4)] == [
                int(key in fired) for key in DETECTOR_KEYS
            ]

    @settings(max_examples=60, deadline=None)
    @given(a=detection_rows, b=detection_rows, rows=record_rows)
    def test_singles_and_eta_rows_match_a_per_detector_oracle(self, a, b, rows):
        grid = GRIDS["chsh_4"]
        counts = zero_counts("chsh_4")
        stations = [np.array(a, np.int64).reshape(-1, 2), np.array(b, np.int64).reshape(-1, 2)]
        detections = [make_detections(x[:, 1], x[:, 0]) for x in stations]
        counts.add_run("ab", detections, rows_to_run(rows)[2])
        series = SlotSeries(counts)

        rec = np.array(rows, np.int64).reshape(-1, 4)
        for d, key in enumerate(DETECTOR_KEYS):
            k, minus = "AB".index(key[0]), "+-".index(key[1])
            singles = bincount_on_grid(stations[k][stations[k][:, 0] == minus, 1], grid)
            assert np.array_equal(counts.singles[d], singles), key
            coinc = bincount_on_grid(rec[rec[:, k] == minus, 2], grid).astype(float)
            eta = np.full(grid.n_slots, np.nan)
            eta[singles > 0] = coinc[singles > 0] / singles[singles > 0]
            np.testing.assert_array_equal(series.eta[d], eta, err_msg=key)


class TestCorrelator:
    def test_perfect_correlation(self):
        e, sig = correlator_series([50, 0, 0, 50])
        assert e == 1.0 and sig == 0.0

    def test_null_correlation(self):
        e, sig = correlator_series([25, 25, 25, 25])
        assert e == 0.0
        assert sig == pytest.approx(0.1)  # sqrt(1/100)

    def test_chsh_like_counts(self):
        e, sig = correlator_series([427, 73, 73, 427])
        assert e == pytest.approx(0.708)
        assert sig == pytest.approx(math.sqrt((1 - 0.708**2) / 1000), abs=1e-9)

    def test_empty_is_undefined_not_fatal(self):
        e, sig = correlator_series([0, 0, 0, 0])
        assert math.isnan(e) and math.isnan(sig)

    def test_bounds_property(self, rng):
        counts = rng.integers(0, 1000, (200, 4))
        e, _ = correlator_series(counts)
        ok = ~np.isnan(e)
        assert np.all(e[ok] >= -1) and np.all(e[ok] <= 1)


def ideal_slot_counts(visibility, n_each_slot, n_slots=25):
    """Noise-free per-slot counts for the 4 quad settings (rounded)."""
    from bellstrobe.model import SettingsQuad, qm_joint_probs

    tables = np.zeros((4, n_slots, 4), dtype=np.int64)
    for i, setting in enumerate(SettingsQuad().settings()):
        probs = qm_joint_probs(setting, visibility)
        tables[i, :, :] = np.round(probs * n_each_slot).astype(np.int64)
    return tables


def s_from_slot_series(tables):
    """|S| per slot from (4, n_slots, 4) counts, derived by SlotSeries."""
    series = SlotSeries(session_counts(np.zeros((4, tables.shape[1]), np.int64), tables))
    return series.s, series.sigma_s


class TestChshSeries:
    def test_ideal_counts_reach_tsirelson(self):
        s, sig = s_from_slot_series(ideal_slot_counts(1.0, 4000))
        assert np.allclose(s, TSIRELSON, atol=1e-3)

    def test_reduced_visibility(self):
        s, _ = s_from_slot_series(ideal_slot_counts(0.980198, 200_000))
        assert np.allclose(s, 2.7724, atol=1e-3)

    def test_undefined_slot_propagates(self):
        tables = ideal_slot_counts(1.0, 1000)
        tables[2, 7, :] = 0  # one setting empty in slot 7
        s, sig = s_from_slot_series(tables)
        assert math.isnan(s[7]) and math.isnan(sig[7])
        assert not math.isnan(s[6])

    def test_s_bounded_by_four(self, rng):
        tables = rng.integers(0, 50, (4, 80, 4))
        s, _ = s_from_slot_series(tables)
        ok = ~np.isnan(s)
        assert np.all(s[ok] >= 0) and np.all(s[ok] <= 4)


class TestEfficiency:
    def test_rate_of_coincidences_over_singles(self):
        eta, sig = efficiency_series(np.array([104]), np.array([1000]))
        assert eta[0] == pytest.approx(0.104)
        assert sig[0] == pytest.approx(math.sqrt(0.104 * 0.896 / 1000))

    def test_zero_coincidences(self):
        eta, _ = efficiency_series(np.array([0]), np.array([500]))
        assert eta[0] == 0.0

    def test_zero_singles_undefined(self):
        eta, sig = efficiency_series(np.array([0]), np.array([0]))
        assert math.isnan(eta[0]) and math.isnan(sig[0])


class TestProduct:
    def test_values(self):
        p, _ = product_series(
            np.array([2.77]), np.array([0.01]), np.array([0.1]), np.array([0.001])
        )
        assert p[0] == pytest.approx(0.277)

    def test_ideal_product_exceeds_classical_bound(self):
        p, _ = product_series(
            np.array([TSIRELSON]), np.array([0.0]), np.array([1.0]), np.array([0.0])
        )
        assert p[0] > 2.0

    def test_undefined_propagates(self):
        p, sig = product_series(
            np.array([np.nan]), np.array([np.nan]), np.array([0.1]), np.array([0.01])
        )
        assert math.isnan(p[0]) and math.isnan(sig[0])


class TestSignificance:
    def test_threshold(self):
        tables = np.zeros((4, 3, 4), dtype=np.int64)
        tables[:, 0, :] = 300  # total 1200 per setting
        tables[:, 1, :] = 300
        tables[0, 1, :] = [999, 0, 0, 0]  # one setting dips to 999
        mask = significance_mask(tables, min_coincidences=1000)
        assert mask.tolist() == [True, False, False]

    def test_total_counts_not_per_type(self):
        # individual outcome types below 1000 are fine if the total passes
        tables = np.zeros((4, 1, 4), dtype=np.int64)
        tables[:, 0, :] = [700, 150, 150, 700]  # per-type < 1000, total 1700
        assert significance_mask(tables, 1000).tolist() == [True]


class TestDetectTransient:
    SLOT = 4e-9
    TAU = 80e-9  # min_run = 20 slots, search window = first 40 slots

    def _series(self, n=200, value=2.77, sigma=0.04):
        values = np.full(n, value)
        sigmas = np.full(n, sigma)
        significant = np.ones(n, dtype=bool)
        return values, sigmas, significant

    def test_flat_series_is_none(self):
        v, s, sig = self._series()
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict["verdict"] == "none"

    def test_floor_transient_detected(self):
        v, s, sig = self._series()
        v[:25] = 2.0  # 25 consecutive early slots far below the plateau
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict["verdict"] == "deviation"
        assert verdict["direction"] == -1
        lo, hi = verdict["slot_range"]
        assert lo == 0 and hi >= 25
        assert hi <= 40  # inside the first 2*tau
        assert verdict["max_sigma"] > 3
        assert verdict["plateau_reference"] == pytest.approx(2.77)

    def test_short_dip_rejected_by_persistence(self):
        v, s, sig = self._series()
        v[5:8] = 2.77 - 5 * 0.04  # 3-slot 5 sigma dip only
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict == {
            "verdict": "none",
            "slot_range": None,
            "direction": 0,
            "max_sigma": 0.0,
            "plateau_reference": verdict["plateau_reference"],
        }

    def test_direction_must_be_consistent(self):
        v, s, sig = self._series()
        # alternate up/down excursions never build a same-direction run
        v[:30:2] = 2.77 + 10 * 0.04
        v[1:30:2] = 2.77 - 10 * 0.04
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict["verdict"] == "none"

    def test_upward_deviation_also_flagged(self):
        v, s, sig = self._series()
        v[:22] = 2.77 + 8 * 0.04
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict["verdict"] == "deviation" and verdict["direction"] == 1

    def test_insignificant_slots_break_runs(self):
        v, s, sig = self._series()
        v[:30] = 2.0
        sig[10] = False  # splits the run into 10 + 19 slots, both < 20
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict["verdict"] == "none"

    def test_too_few_significant_slots(self):
        v, s, sig = self._series()
        sig[:40] = False
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict == {
            "verdict": "not_testable",
            "reason": "only 0 significant slots in the first 160 ns; need 20 to test persistence",
        }

    def test_no_significant_plateau_slot_is_not_testable(self):
        v, s, sig = self._series()
        sig[40:] = False  # the plateau reference starts at slot 40, 2 * tau
        verdict = detect_transient(v, s, sig, self.TAU, self.SLOT)
        assert verdict == {
            "verdict": "not_testable",
            "reason": "no significant slots beyond 2*tau for the plateau",
        }

    N = 16  # slots in the oracle's series

    @given(
        min_run=st.integers(1, 6),
        dev=st.lists(st.sampled_from([-6.0, -4.0, -2.0, 0.0, 3.5, 5.0]), min_size=N, max_size=N),
        significant=st.lists(st.booleans(), min_size=N, max_size=N),
    )
    @example(min_run=2, dev=[-4.0, -4.0, 5.0, 5.0] + [0.0] * (N - 4), significant=[True] * N)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_state_machine(self, min_run, dev, significant):
        # slot width 1 and tau = min_run: the search covers the first
        # 2 * min_run slots, and the plateau of exactly 1 the slots after them
        sigmas = np.full(self.N, 0.5)
        values = 1.0 + sigmas * np.array(dev)
        values[2 * min_run :] = 1.0
        args = (values, sigmas, np.array(significant), float(min_run), 1.0)
        assert detect_transient(*args) == reference_transient(*args)


def reference_transient(values, sigmas, significant, tau, slot_width, k_sigma=3.0):
    """`detect_transient` as a per-slot state machine that walks the search
    window once and keeps the first of the longest same-sign runs; returns
    the same `transient` block."""
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(sigmas, dtype=np.float64)
    sig = np.asarray(significant, dtype=bool) & np.isfinite(v) & np.isfinite(s) & (s > 0)
    min_run = math.ceil(tau / slot_width)
    n_search = min(v.size, int(math.floor(SEARCH_TAUS * tau / slot_width + 1e-9)))

    ref_slots = sig & (np.arange(v.size) * slot_width >= 2.0 * tau)
    if not ref_slots.any():
        return {
            "verdict": "not_testable",
            "reason": "no significant slots beyond 2*tau for the plateau",
        }
    w = 1.0 / s[ref_slots] ** 2
    plateau_reference = float(np.sum(w * v[ref_slots]) / np.sum(w))
    tested = sig[:n_search]
    if int(tested.sum()) < min_run:
        return {"verdict": "not_testable", "reason": (
            f"only {int(tested.sum())} significant slots in the first "
            f"{SEARCH_TAUS * tau * 1e9:.0f} ns; need {min_run} to test persistence"
        )}

    dev = np.zeros(n_search)
    dev[tested] = (v[:n_search][tested] - plateau_reference) / s[:n_search][tested]
    best = None  # start, stop, direction, max|dev|
    run_start = None
    run_sign = 0
    for i in range(n_search + 1):
        sign = 0
        if i < n_search and tested[i] and abs(dev[i]) > k_sigma:
            sign = 1 if dev[i] > 0 else -1
        if sign != 0 and sign == run_sign:
            continue
        if run_sign != 0 and run_start is not None:
            length = i - run_start
            if length >= min_run:
                peak = float(np.max(np.abs(dev[run_start:i])))
                if best is None or length > best[1] - best[0]:
                    best = (run_start, i, run_sign, peak)
        run_start = i if sign != 0 else None
        run_sign = sign

    if best is None:
        return {"verdict": "none", "slot_range": None, "direction": 0, "max_sigma": 0.0,
                "plateau_reference": plateau_reference}
    return {"verdict": "deviation", "slot_range": list(best[:2]), "direction": best[2],
            "max_sigma": best[3], "plateau_reference": plateau_reference}


def build_series(e_plus=0.7, n_each_slot=1000, n_slots=100, in_pulse=25,
                 singles_in=1000, singles_out=2):
    """Synthetic SlotSeries: exact counts, in-pulse slots [0, in_pulse)."""
    # counts realizing E = +-e_plus exactly (quad signs: +, -, +, +)
    n_same = int(round(n_each_slot * (1 + e_plus) / 2))
    n_diff = n_each_slot - n_same
    per_setting = {
        0: [n_same // 2, n_diff // 2, n_diff - n_diff // 2, n_same - n_same // 2],
        1: [n_diff // 2, n_same // 2, n_same - n_same // 2, n_diff - n_diff // 2],
        2: [n_same // 2, n_diff // 2, n_diff - n_diff // 2, n_same - n_same // 2],
        3: [n_same // 2, n_diff // 2, n_diff - n_diff // 2, n_same - n_same // 2],
    }
    tables = np.zeros((4, n_slots, 4), dtype=np.int64)
    for i in range(4):
        tables[i, :in_pulse, :] = per_setting[i]
    singles = np.full((4, n_slots), singles_out, dtype=np.int64)
    singles[:, :in_pulse] = singles_in
    return SlotSeries(session_counts(singles, tables, slot_ps=20_000))


class TestPlateauSummary:
    def test_constant_series(self):
        series = build_series()
        summary = plateau_summary(series)
        assert summary["in_pulse_range"] == [0, 25]
        assert summary["n_in_pulse"] == 25
        assert summary["time_dispersion_s"] == pytest.approx(0.0, abs=1e-12)
        assert summary["time_avg_s"] == pytest.approx(summary["all_data_s"], abs=1e-12)
        assert summary["s_consistent"]

    def test_in_pulse_rule(self):
        series = build_series(singles_in=5000, singles_out=12)
        mask = in_pulse_slots(series.counts.singles.sum(axis=0))
        assert mask[:25].all() and not mask[25:].any()

    def test_empty_in_pulse_range_errors(self):
        series = build_series(singles_in=0, singles_out=0, n_each_slot=0)
        with pytest.raises(AnalysisError):
            plateau_summary(series)


def assert_one_slot_reconstruction_is_the_all_data_values(counts):
    """Counts collapsed into one slot reconstruct, per slot, to exactly the
    plateau summary's all-data S and eta with their errors."""
    plateau = plateau_summary(SlotSeries(counts))
    one_slot = reconstruct(
        counts.singles.sum(axis=1, keepdims=True),
        counts.coincidences.sum(axis=1, keepdims=True),
    )
    _, _, s, sigma_s, eta, sigma_eta = (x[..., 0] for x in one_slot)
    assert (plateau["all_data_s"], plateau["all_data_s_sigma"]) == (float(s), float(sigma_s))
    assert plateau["all_data_eta"] == dict(zip(DETECTOR_KEYS, eta.tolist()))
    assert plateau["all_data_eta_sigma"] == dict(zip(DETECTOR_KEYS, sigma_eta.tolist()))


class TestOneReconstruction:
    """The time-resolved series and the all-data values are one derivation:
    collapsing the slots first gives the same numbers, bit for bit."""

    def test_collapsed_session_counts(self, demo_session):
        assert_one_slot_reconstruction_is_the_all_data_values(demo_session.counts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_slots=st.integers(3, 40), data=st.data())
    def test_collapsed_random_counts(self, seed, n_slots, data):
        in_pulse = data.draw(st.integers(1, (n_slots - 1) // 2))  # duty cycle < 50%
        rng = np.random.default_rng(seed)
        tables = rng.integers(0, 60, (4, n_slots, 4))
        tables[:, :in_pulse] += 1  # every in-pulse slot has a defined S
        singles = rng.integers(0, 5, (4, n_slots))
        singles[:, :in_pulse] += rng.integers(1000, 5000, (4, in_pulse))
        counts = session_counts(singles, tables)
        counts.off_grid[:] = rng.integers(0, 60, (4, 4))  # not in the all-data values
        assert_one_slot_reconstruction_is_the_all_data_values(counts)

    def test_series_needs_the_four_quad_settings(self):
        labels = [f"scan{i:02d}" for i in range(34)]
        scan = SlotCounts.zeros("s", GRIDS["scan_34"], labels, [(0.0, 0.0)] * 34, EDGES)
        with pytest.raises(ValueError, match="4 quad settings, got 34"):
            SlotSeries(scan)


class TestChiSquare:
    def test_flatness_under_null_simulation(self, demo_session):
        # no-transient reconstruction: in-pulse S(t) is constant within errors
        flatness = demo_session.blocks["flatness"]
        chi2, dof = flatness["chi2_reduced"], flatness["dof"]
        assert dof == 24
        assert 0.7 <= chi2 <= 1.3

    def test_flat_series_with_matching_noise(self, rng):
        sigma = 0.05
        values = rng.normal(2.77, sigma, 2000)
        chi2, dof = chi_square_vs_constant(values, np.full(2000, sigma))
        assert dof == 1999
        assert 0.9 < chi2 < 1.1

    def test_structured_series_fails(self, rng):
        values = np.concatenate([np.full(50, 2.0), np.full(50, 2.8)])
        chi2, _ = chi_square_vs_constant(values, np.full(100, 0.05))
        assert chi2 > 10


class TestAngleScan:
    A0 = 5000.0
    THETA0 = 0.22

    def _counts(self, visibility, rng=None, theta0=None):
        th0 = self.THETA0 if theta0 is None else theta0
        betas = np.linspace(0, math.pi, 34, endpoint=False)
        signs = (1, -1, -1, 1)
        counts = np.empty((34, 4))
        for o, sgn in enumerate(signs):
            counts[:, o] = self.A0 * (1 + sgn * visibility * np.cos(2 * (betas - th0)))
        if rng is not None:
            counts = rng.poisson(counts)
        return betas, counts

    def test_ideal_visibility_recovered_exactly(self):
        betas, counts = self._counts(1.0)
        fits = angle_scan_curves(betas, counts)
        for lab in OUTCOME_LABELS:
            assert fits[lab]["visibility"] == pytest.approx(1.0, abs=1e-9)
            assert fits[lab]["phase"] == pytest.approx(self.THETA0, abs=1e-9)

    def test_noisy_scan_within_a_percent(self, rng):
        betas, counts = self._counts(1.0, rng=rng)
        fits = angle_scan_curves(betas, counts)
        for lab in OUTCOME_LABELS:
            assert fits[lab]["visibility"] == pytest.approx(1.0, abs=0.01)

    def test_phase_shift_flags_birefringence(self):
        betas, counts = self._counts(0.95, theta0=0.4)
        fits = angle_scan_curves(betas, counts)
        assert fits["++"]["phase"] == pytest.approx(0.4, abs=1e-6)

    def test_flat_input_has_zero_visibility(self, rng):
        betas = np.linspace(0, math.pi, 34, endpoint=False)
        counts = rng.poisson(1000.0, (34, 4)).astype(float)
        fits = angle_scan_curves(betas, counts)
        for lab in OUTCOME_LABELS:
            assert fits[lab]["visibility"] < 0.05

    def test_degenerate_data_errors(self):
        betas = np.linspace(0, math.pi, 34, endpoint=False)
        with pytest.raises(AnalysisError):
            angle_scan_curves(betas, np.zeros((34, 4)))
