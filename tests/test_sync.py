import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellstrobe import sync
from bellstrobe.sim import (
    CHANNEL_MINUS,
    CHANNEL_TRIGGER,
    ClockModel,
    PulsePlan,
    TagStream,
)
from bellstrobe.sync import (
    AlignmentAmbiguousError,
    ClockFit,
    ClockFitError,
    PatternAbsentError,
    SyncError,
    align_pulse_numbering,
    assign_to_pulses,
    extract_period_series,
    fit_clock_relation,
    percentile,
    runs,
)


def trigger_times(starts_s: np.ndarray, clock: ClockModel, rng=None) -> np.ndarray:
    """Sorted trigger timestamps (ps) of the given pulse starts, in a local clock."""
    local = clock.offset + (1.0 + clock.drift_rate) * starts_s
    if clock.jitter_sigma > 0:
        local = local + rng.normal(0.0, clock.jitter_sigma, starts_s.size)
    return np.sort(np.rint(local * 1e12).astype(np.int64))


class TestPercentile:
    @given(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=40))
    @example([7])
    @example([3, -2])
    def test_equals_numpy_on_integer_values(self, values):
        # every input in the pipeline is integer-valued: ps intervals, run
        # lengths, slot counts
        x = np.array(values, dtype=np.int64)
        assert percentile(x, 50.0) == np.median(x)
        assert np.array_equal(percentile(x, [10.0, 90.0]), np.percentile(x, [10.0, 90.0]))

    def test_analysis_never_imports_numpy_ma(self):
        # np.median and np.percentile import numpy.ma on their first call
        code = (
            "import sys\n"
            "from bellstrobe.config import desk_boosted\n"
            "from bellstrobe.session import run_session_in_memory\n"
            "run_session_in_memory(desk_boosted(seed=1))\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(sync.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=120
        )
        assert done.returncode == 0

    def test_leaves_the_callers_float64_array_in_place(self):
        x = np.random.default_rng(5).normal(size=1001)
        before = x.copy()
        percentile(x, [10.0, 50.0, 90.0])
        assert np.array_equal(x, before)

    def test_copies_its_input_once(self):
        # the median of a run's trigger intervals: one float64 copy, no second
        x = np.arange(1_000_000, 0, -1, dtype=np.int64)
        tracemalloc.start()
        try:
            percentile(x, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes


class TestRuns:
    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=40))
    @example([5])
    def test_equals_groupby(self, values):
        starts, stops = runs(np.array(values))
        groups = [(k, len(list(g))) for k, g in itertools.groupby(values)]
        assert [(values[a], b - a) for a, b in zip(starts, stops)] == groups
        assert starts[0] == 0 and stops[-1] == len(values)
        assert np.array_equal(starts[1:], stops[:-1])

    def test_empty_input_has_no_runs(self):
        starts, stops = runs(np.array([], dtype=np.int64))
        assert starts.size == stops.size == 0


@pytest.fixture(scope="module")
def global_starts():
    return PulsePlan().start_times(16_000)


class TestPeriodSeries:
    def test_constant_intervals(self):
        s = trigger_times(np.array([0.0, 2e-6, 4e-6]), ClockModel())
        intervals = extract_period_series(s)
        assert intervals.dtype == np.int64
        assert np.array_equal(intervals, [2_000_000, 2_000_000])

    def test_single_trigger_errors(self):
        s = trigger_times(np.array([0.0]), ClockModel())
        with pytest.raises(SyncError):
            extract_period_series(s)

    def test_repeated_trigger_timestamp_errors(self):
        with pytest.raises(SyncError, match="positive"):
            extract_period_series(np.array([0, 2_000_000, 2_000_000], np.int64))

    def test_prbs_intervals_match_plan(self, rng):
        plan = PulsePlan()
        s = trigger_times(plan.start_times(2000), ClockModel(jitter_sigma=2e-9), rng)
        intervals = extract_period_series(s)
        expected = plan.period_seconds(2000)[:-1] * 1e12
        assert np.max(np.abs(intervals - expected)) < 20_000  # 20 ns


class TestAlignment:
    def test_self_alignment_is_zero(self, global_starts, rng):
        s = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        assert align_pulse_numbering(s, s) == 0

    def test_known_delay_recovered(self, global_starts, rng):
        d = 250
        a = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        b = trigger_times(
            global_starts[d:], ClockModel(drift_rate=50e-6, jitter_sigma=2e-9), rng
        )
        assert align_pulse_numbering(a, b) == d

    def test_negative_offset(self, global_starts, rng):
        d = 777
        a = trigger_times(global_starts[d:], ClockModel(jitter_sigma=2e-9), rng)
        b = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        assert align_pulse_numbering(a, b) == -d

    def test_constant_period_is_pattern_absent(self):
        s = trigger_times(np.arange(14_000) * 2e-6, ClockModel())
        with pytest.raises(PatternAbsentError):
            align_pulse_numbering(s, s)

    def test_unrelated_series_ambiguous(self, rng):
        # random two-level intervals share the level structure but no pattern
        iv_a = rng.choice([2_000_000, 2_040_000], 14_000)
        iv_b = rng.choice([2_000_000, 2_040_000], 14_000)
        with pytest.raises(AlignmentAmbiguousError):
            align_pulse_numbering(np.cumsum(np.append(0, iv_a)), np.cumsum(np.append(0, iv_b)))

    def test_alignment_correctness_over_random_trials(self, global_starts, rng):
        wins = 0
        for _ in range(20):
            d = int(rng.integers(-1000, 1001))
            first_a, first_b = max(0, -d), max(0, d)
            a = trigger_times(
                global_starts[first_a:],
                ClockModel(drift_rate=rng.uniform(-50e-6, 50e-6), jitter_sigma=2e-9),
                rng,
            )
            b = trigger_times(
                global_starts[first_b:],
                ClockModel(
                    offset=rng.uniform(0, 1e-3),
                    drift_rate=rng.uniform(-50e-6, 50e-6),
                    jitter_sigma=2e-9,
                ),
                rng,
            )
            wins += align_pulse_numbering(a, b) == d
        assert wins == 20

    W = sync.ALIGN_WINDOW

    @pytest.mark.parametrize(
        "na, nb",
        [(W, W), (W, W - 1234), (W - 1234, W), (W, 3000), (2000, W), (100, 1)],
    )
    def test_correlation_equals_the_exact_sums_at_every_searched_lag(self, rng, na, nb):
        # Full-length series catch a transform too short for +-MAX_LAG: its
        # circular terms wrap into the outermost searched lags.
        a = rng.choice(np.array([-1, 1], np.int64), na)
        b = rng.choice(np.array([-1, 1], np.int64), nb)
        m = sync.MAX_LAG
        # a[k + lag] for k < nb and |lag| <= m, zero outside a
        padded = np.zeros(nb + 2 * m, np.int64)
        part = a[: nb + m]
        padded[m : m + part.size] = part
        want = np.correlate(padded, b, "valid")  # sum_k a[k + lag] * b[k], lag -m..m
        lags, got = sync._xcorr(a.astype(np.float64), b.astype(np.float64))
        assert lags.tolist() == list(range(-m, m + 1))
        assert np.array_equal(got, want)

    def test_transform_length_is_the_smallest_5_smooth_one_holding_the_lags(self):
        def five_smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        low = sync.ALIGN_WINDOW + sync.MAX_LAG
        assert sync.ALIGN_NFFT >= low and five_smooth(sync.ALIGN_NFFT)
        assert not any(five_smooth(n) for n in range(low, sync.ALIGN_NFFT))


def exact_fit(a: list[int], b: list[int]) -> tuple[Fraction, Fraction, float]:
    """Least-squares b = c + r * a over integer picoseconds in exact rational
    arithmetic: (r, c in ps, residual rms in ps)."""
    n = len(a)
    sa, sb = sum(a), sum(b)
    saa = n * sum(x * x for x in a) - sa * sa
    sab = n * sum(x * y for x, y in zip(a, b)) - sa * sb
    sbb = n * sum(y * y for y in b) - sb * sb
    rate = Fraction(sab, saa)
    intercept = Fraction(sb, n) - rate * Fraction(sa, n)
    rss = Fraction(sbb - sab * rate, n)  # n * the residual sum of squares
    return rate, intercept, math.sqrt(rss / n)


def reference_fit(triggers_a, triggers_b, pulse_offset: int) -> ClockFit:
    """fit_clock_relation as one serial loop per pass over sync.FIT_CHUNK
    pairs at a time, each chunk's arrays allocated afresh: the oracle that
    the two-thread fit must equal bit for bit."""
    k0 = max(0, -pulse_offset)
    k1 = min(triggers_b.size, triggers_a.size - pulse_offset)
    ta = np.asarray(triggers_a, dtype=np.int64)[k0 + pulse_offset : k1 + pulse_offset]
    tb = np.asarray(triggers_b, dtype=np.int64)[k0:k1]
    n = ta.size
    x0, z0 = int(ta[0]), int(tb[0]) - int(ta[0])

    def dot(a, b):
        return float(np.einsum("i,i->", a, b))

    def chunks():
        for i in range(0, n, sync.FIT_CHUNK):
            a, b = ta[i : i + sync.FIT_CHUNK], tb[i : i + sync.FIT_CHUNK]
            z = b - a
            z -= z0
            yield a - x0, z

    sums = [(x.sum(dtype=np.float64), z.sum(dtype=np.float64)) for x, z in chunks()]
    xm = math.fsum(sx for sx, _ in sums) / n
    zm = math.fsum(sz for _, sz in sums) / n
    sxx = sxz = 0.0
    for x, z in chunks():
        dx = x - xm
        sxx += dot(dx, dx)
        sxz += dot(dx, z - zm)
    drift = sxz / sxx
    drift_hi = float(np.float32(drift))
    drift_lo = drift - drift_hi
    line_at_0 = zm - drift * xm
    sq = 0.0
    for x, z in chunks():
        x_hi = x & ~np.int64(0xFFFFFF)
        r = z - drift_hi * x_hi
        r -= drift_hi * (x - x_hi) + drift_lo * x
        r -= line_at_0
        sq += dot(r, r)
    return ClockFit(
        pulse_offset=int(pulse_offset),
        time_offset=(z0 + zm - drift * (x0 + xm)) / 1e12,
        rate_ratio=1.0 + drift,
        residual_rms=math.sqrt(sq / n) / 1e12,
    )


class TestTwoThreadFit:
    """fit_clock_relation runs each pass's chunks on two threads and must
    equal the serial reference_fit bit for bit."""

    @pytest.fixture
    def drifting(self, global_starts, rng):
        # B's pulse k is A's pulse k + 3; B's clock is offset, drifting and jittered
        a = trigger_times(global_starts, ClockModel(jitter_sigma=2e-11), rng)
        b = trigger_times(
            global_starts[3:],
            ClockModel(offset=1.3e-3, drift_rate=2e-5, jitter_sigma=2e-11),
            rng,
        )
        return a, b

    def test_equals_the_serial_fit_for_1_2_3_and_many_chunks(
        self, drifting, first_chunk_last
    ):
        a, b = drifting
        n = b.size
        for chunk in (n, -(-n // 2), -(-n // 3), 97):
            with mock.patch.object(sync, "FIT_CHUNK", chunk):
                assert fit_clock_relation(a, b, 3) == reference_fit(a, b, 3), chunk

    def test_four_concurrent_fits_equal_the_serial_fit(self, drifting):
        a, b = drifting
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(sync, "FIT_CHUNK", 97):
                expected = reference_fit(a, b, 3)
                with ThreadPoolExecutor(4) as pool:
                    fits = list(
                        pool.map(lambda _: fit_clock_relation(a, b, 3), range(8), timeout=120)
                    )
        finally:
            sys.setswitchinterval(interval)
        assert fits == [expected] * 8


class TestClockFit:
    def test_identity_fit(self, global_starts):
        s = trigger_times(global_starts, ClockModel())
        fit = fit_clock_relation(s, s, 0)
        assert fit.time_offset == pytest.approx(0.0, abs=1e-12)
        assert fit.rate_ratio == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_offset_and_drift_recovered(self, global_starts):
        a = trigger_times(global_starts, ClockModel())
        b = trigger_times(global_starts, ClockModel(offset=1e-3, drift_rate=10e-6))
        fit = fit_clock_relation(a, b, 0)
        assert abs(fit.time_offset - 1e-3) < 1e-12 + 1e-9  # 1 ps grid effects
        assert abs(fit.rate_ratio - 1.00001) < 0.01e-6

    def test_residual_matches_quadrature_of_jitters(self, global_starts, rng):
        a = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        b = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        fit = fit_clock_relation(a, b, 0)
        assert fit.residual_rms == pytest.approx(2e-9 * math.sqrt(2), rel=0.10)

    def test_a_residual_past_the_gate_is_refused_naming_both_numbers(self, global_starts, rng):
        a = trigger_times(global_starts, ClockModel(jitter_sigma=2e-11), rng)
        b = trigger_times(global_starts, ClockModel(offset=1e-3, jitter_sigma=2e-11), rng)
        expected = 2e-11 * math.sqrt(2)
        intact = fit_clock_relation(a, b, 0, expected)
        assert intact.residual_rms == pytest.approx(expected, rel=0.05)
        lost = np.delete(b, b.size // 2)  # one trigger lost at B
        rms = fit_clock_relation(a, lost, 0).residual_rms
        assert rms > 100 * sync.MAX_RESIDUAL_RATIO * expected
        with pytest.raises(ClockFitError) as refused:
            fit_clock_relation(a, lost, 0, expected)
        assert f"{rms:.3g} s" in str(refused.value)
        assert f"{expected:.3g} s" in str(refused.value)

    def test_too_few_pairs(self, global_starts):
        a = trigger_times(global_starts[:5], ClockModel())
        with pytest.raises(SyncError):
            fit_clock_relation(a, a, 0)

    def test_fit_consistency_invariant(self, global_starts, rng):
        a = trigger_times(global_starts, ClockModel(jitter_sigma=2e-9), rng)
        b = trigger_times(
            global_starts, ClockModel(offset=5e-4, drift_rate=20e-6, jitter_sigma=2e-9),
            rng,
        )
        fit = fit_clock_relation(a, b, 0)
        ta = a.astype(np.float64) / 1e12
        tb = b.astype(np.float64) / 1e12
        resid = tb - (fit.time_offset + fit.rate_ratio * ta)
        assert abs(resid.mean()) < fit.residual_rms / math.sqrt(resid.size)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(10, 300),
        # 200 s: past 140 s, 2**16 int64 offsets from the first pair can sum past 2**63
        span_s=st.one_of(st.floats(1e-4, 30.0), st.just(200.0)),
        offset_s=st.floats(-1e-3, 1e-3),
        drift=st.floats(-5e-4, 5e-4),
        jitter_ps=st.sampled_from([0.0, 0.3, 20.0, 2000.0]),
        chunk=st.sampled_from([7, 64, sync.FIT_CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the hard corner: a residual of tag rounding alone under a long, steep line
    @example(n=10, span_s=200.0, offset_s=0.0, drift=5e-4, jitter_ps=0.0, chunk=7, seed=10)
    def test_fit_matches_exact_rational_fit(
        self, n, span_s, offset_s, drift, jitter_ps, chunk, seed
    ):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, span_s, n)) + 2e-3
        a = np.unique(np.rint(t * 1e12 + rng.normal(0.0, jitter_ps, n)).astype(np.int64))
        b = np.rint(
            (offset_s + (1.0 + drift) * a / 1e12) * 1e12 + rng.normal(0.0, jitter_ps, a.size)
        ).astype(np.int64)
        with mock.patch.object(sync, "FIT_CHUNK", chunk):
            fit = fit_clock_relation(a, b, 0)
        rate, offset_ps, rms_ps = exact_fit(a.tolist(), b.tolist())
        assert abs(Fraction(fit.rate_ratio) - rate) <= Fraction(1, 10**15) * rate
        assert abs(Fraction(fit.time_offset) * 10**12 - offset_ps) <= Fraction(1, 100)
        assert fit.residual_rms * 1e12 == pytest.approx(rms_ps, rel=1e-6, abs=0.0)

    def test_single_a_timestamp_rejected(self):
        a = np.full(20, 5_000_000, np.int64)
        with pytest.raises(ClockFitError, match="one timestamp"):
            fit_clock_relation(a, np.arange(20, dtype=np.int64) * 2_000_000, 0)

    def test_implausible_ratio_rejected(self):
        with pytest.raises(ValueError):
            ClockFit(pulse_offset=0, time_offset=0.0, rate_ratio=1.01,
                     residual_rms=0.0)


class TestAssignment:
    PERIOD = 2_000_000  # ps
    TRIGGERS = np.arange(3, dtype=np.int64) * PERIOD

    def _assign(self, channels, times):
        tags = TagStream(np.asarray(channels, np.uint8), np.asarray(times, np.int64))
        return assign_to_pulses(tags, self.TRIGGERS, 57_000, self.PERIOD)

    def test_exact_pulse_start(self):
        det = self._assign([1], [57_000])
        assert det.pulse_number[0] == 0
        assert det.intra_ps[0] == 0

    def test_delay_subtraction(self):
        # trigger at T, detection at T + 57 ns + 123 ns -> intra 123 ns
        det = self._assign([2], [2_000_000 + 57_000 + 123_000])
        assert det.pulse_number[0] == 1
        assert det.intra_ps[0] == 123_000
        assert det.minus[0] == 1  # channel 2, the - detector

    def test_detection_before_first_trigger_dropped(self):
        det = self._assign([1], [10_000])  # 10 ns < 57 ns delay
        assert len(det) == 0
        assert det.dropped_before_first == 1

    def test_trailing_detection_dropped(self):
        det = self._assign([1], [4_000_000 + 57_000 + 2_500_000])
        assert len(det) == 0
        assert det.dropped_after_last == 1

    @pytest.mark.parametrize("triggers", [
        [0],
        [0, 2_040_000],
        [0, 1_000_000, 2_000_000, 10_000_000],
    ], ids=["one", "long", "short-short-long"])
    def test_last_pulse_ends_at_the_base_period(self, triggers):
        # not at the median or the last trigger interval, and with one
        # trigger too: detections at and past the period are dropped
        period, delay = 2_000_000, 57_000
        triggers = np.array(triggers, np.int64)
        intra = period + np.array([-1, 0, 1], np.int64)
        tags = TagStream(np.ones(intra.size, np.uint8), triggers[-1] + delay + intra)
        det = assign_to_pulses(tags, triggers, delay, period)
        assert det.pulse_number.tolist() == [triggers.size - 1]
        assert det.intra_ps.tolist() == [period - 1]
        assert det.dropped_after_last == 2

    def test_last_pulse_allocates_nothing_of_trigger_length(self):
        # one detection in the last pulse of 1 M triggers: the limit is the
        # period, so no int64 array of the triggers' length (8 MB) is made;
        # the stream's one-byte channel mask is the largest allocation
        n = 1_000_001
        triggers = np.arange(n, dtype=np.int64) * 2_000_000
        channels = np.full(n + 1, CHANNEL_TRIGGER, np.uint8)
        channels[-1] = 1
        tags = TagStream(channels, np.append(triggers, triggers[-1] + 57_000 + 5))
        tracemalloc.start()
        try:
            det = assign_to_pulses(tags, triggers, 57_000, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert det.pulse_number.tolist() == [n - 1]
        assert det.intra_ps.tolist() == [5]
        assert peak < 2 * n

    def test_trigger_tags_neither_assigned_nor_dropped(self):
        # the whole stream, triggers included: only its two detections come out
        channels = [CHANNEL_TRIGGER, 1, CHANNEL_TRIGGER, 2, CHANNEL_TRIGGER]
        times = [0, 57_000 + 5, 2_000_000, 2_000_000 + 57_000 + 6, 4_000_000]
        det = self._assign(channels, times)
        assert det.pulse_number.tolist() == [0, 1]
        assert det.intra_ps.tolist() == [5, 6]
        assert det.minus.tolist() == [0, 1]
        assert det.dropped_before_first == det.dropped_after_last == 0

    def test_partition_invariant(self, rng):
        # every in-run detection lands in exactly one pulse; sum + drops = total
        n = 5000
        times = rng.integers(0, 6_500_000, n).astype(np.int64)
        channels = rng.integers(1, 3, n).astype(np.uint8)
        key = np.unique(times * 4 + channels)  # sorted by (t, channel), no duplicates
        tags = TagStream((key & 3).astype(np.uint8), key >> 2)
        det = assign_to_pulses(tags, self.TRIGGERS, 57_000, self.PERIOD)
        total = len(det) + det.dropped_before_first + det.dropped_after_last
        assert total == len(tags)
        assert np.all(det.pulse_number >= 0)
        assert np.all(det.pulse_number < self.TRIGGERS.size)
        # intra times stay below the period of their pulse
        assert det.intra_ps.dtype == np.int64
        assert np.all(det.intra_ps >= 0)
        assert np.all(det.intra_ps < self.PERIOD)


def reference_assign(stream: TagStream, triggers: np.ndarray, delay: int, period: int) -> dict:
    """assign_to_pulses by one binary search per detection over the whole
    trigger train, with its drop rules spelled out."""
    det = stream.channels != CHANNEL_TRIGGER
    shifted = stream.times_ps[det] - delay
    idx = np.searchsorted(triggers, shifted, side="right") - 1
    intra = shifted - triggers[np.maximum(idx, 0)]
    before = idx < 0
    after = (idx == triggers.size - 1) & (intra >= period)
    keep = ~(before | after)
    return {
        "minus": (stream.channels[det][keep] == CHANNEL_MINUS).astype(np.uint8),
        "pulse_number": idx[keep],
        "intra_ps": intra[keep],
        "dropped_before_first": int(before.sum()),
        "dropped_after_last": int(after.sum()),
    }


class TestAssignmentExactness:
    @settings(max_examples=300, deadline=None)
    @given(
        n_triggers=st.integers(1, 40),
        n_detections=st.integers(0, 80),
        period=st.integers(1, 1000),
        # 0 (ties with triggers), negative, and several periods: the position
        # guess then misses and the binary search must take over
        delay_periods=st.sampled_from([0.0, -0.5, -2.0, 0.3, 1.0, 3.7]),
        n_ties=st.integers(0, 5),
        # the stream holds every trigger tag, none, or twice those passed
        tagged=st.sampled_from(["all", "none", "twice"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a detection and a trigger at the same timestamp, at delay 0
    @example(n_triggers=3, n_detections=0, period=10, delay_periods=0.0, n_ties=1,
             tagged="all", seed=0)
    # one trigger, passed apart from a detection-only stream
    @example(n_triggers=1, n_detections=5, period=10, delay_periods=0.3, n_ties=1,
             tagged="none", seed=1)
    def test_matches_binary_search_over_the_trigger_train(
        self, n_triggers, n_detections, period, delay_periods, n_ties, tagged, seed
    ):
        rng = np.random.default_rng(seed)
        triggers = 5 * period + np.cumsum(rng.integers(1, 2 * period + 1, n_triggers))
        span = int(triggers[-1]) + 5 * period
        times = np.concatenate([
            rng.integers(0, span, n_detections),
            rng.choice(triggers, n_ties),  # detections on a trigger's timestamp
        ])
        channels = rng.integers(1, 3, times.size)
        keys = np.unique(times * 4 + channels)
        if tagged != "none":
            keys = np.sort(np.concatenate([keys, triggers * 4 + CHANNEL_TRIGGER]))
        if tagged == "twice":
            triggers = triggers[::2]
        stream = TagStream((keys & 3).astype(np.uint8), keys >> 2)
        delay = int(round(delay_periods * period))

        det = assign_to_pulses(stream, triggers, delay, period)
        expected = reference_assign(stream, triggers, delay, period)
        assert det.pulse_number.dtype == det.intra_ps.dtype == np.int64
        for name, value in expected.items():
            assert np.array_equal(getattr(det, name), value), name


def tag_stream(tags) -> TagStream:
    """A TagStream of (time_ps, channel) pairs, sorted by (time, channel)."""
    tags = sorted(tags)
    return TagStream(np.array([c for _, c in tags], np.uint8), np.array([t for t, _ in tags], np.int64))


def assert_assigned_as_reference(stream, triggers, delay, period):
    det = assign_to_pulses(stream, triggers, delay, period)
    for name, value in reference_assign(stream, triggers, delay, period).items():
        got = getattr(det, name)
        assert np.array_equal(got, value) and np.asarray(got).dtype == np.asarray(value).dtype, name


class TestSplitAssignment:
    """The stream is assigned in two halves, the later one starting at tag
    n - n // 2: each case puts a different tag there."""

    TRIGGERS = np.arange(4, dtype=np.int64) * 100
    T = CHANNEL_TRIGGER

    @pytest.mark.parametrize("tags, delay, middle", [
        ([(0, T), (10, 1), (50, 2), (80, 1), (100, T), (110, 1), (200, T), (300, T)],
         0, (100, T)),
        # at delay 0 the detection is in the pulse of the trigger after it in the stream
        ([(0, T), (10, 1), (100, T), (150, 2), (200, 1), (200, T), (250, 2), (300, T)],
         0, (200, 1)),
        # 210 - 30 falls back across the trigger at 200, into pulse 1
        ([(0, T), (40, 1), (100, T), (120, 2), (200, T), (210, 1), (260, 2), (300, T),
          (340, 1)], 30, (210, 1)),
        ([(0, T), (10, 1), (20, 2), (50, 1), (100, T), (200, T), (300, T)], 0, (100, T)),
        ([(0, T), (100, T), (200, T), (250, 2), (300, T), (330, 1)], 0, (250, 2)),
    ], ids=["on_a_trigger", "tied_with_a_trigger", "moved_back_across_a_trigger",
            "later_half_without_detections", "first_half_without_detections"])
    def test_halves_assign_as_the_reference(self, tags, delay, middle):
        stream = tag_stream(tags)
        n = len(stream)
        assert (int(stream.times_ps[n - n // 2]), int(stream.channels[n - n // 2])) == middle
        assert_assigned_as_reference(stream, self.TRIGGERS, delay, 100)

    @pytest.mark.parametrize("delay", [0, 30, -30])
    def test_streams_of_0_to_3_tags_assign_as_the_reference(self, delay):
        # before the first trigger, on one, inside pulses, and past the last pulse
        pool = [(-5, 1), (0, self.T), (0, 1), (50, 2), (100, self.T), (150, 1),
                (300, self.T), (399, 1), (420, 2)]
        for size in range(4):
            for tags in itertools.combinations(pool, size):
                assert_assigned_as_reference(tag_stream(tags), self.TRIGGERS, delay, 100)
