import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellstrobe import sim, worker
from bellstrobe.config import to_ps
from bellstrobe.model import (
    OUTCOME_PARITY, AngleSetting, Geometry, TransientModel, equal_outcome_prob, qm_joint_probs
)
from bellstrobe.sim import (
    CHANNEL_TRIGGER,
    DRAW_CHUNK,
    FM_BITS,
    ClockModel,
    PulsePlan,
    SourceConfig,
    StationConfig,
    TagStream,
    _ClockBuffer,
    _local_stream,
    _pair_pulses,
    emit_events,
    prbs_bits,
)
from bellstrobe.sync import assign_to_pulses
from bellstrobe.coinc import match_coincidences
from conftest import same_tags

WINDOW_PS = 4000  # the configured 4 ns coincidence window
NO_NOISE = StationConfig(
    detector_efficiency=1.0, dark_rate=0.0, detector_jitter_sigma=0.0
)


def triggers_of(stream):
    """The trigger timestamps of one station stream."""
    return stream.times_ps[stream.channels == CHANNEL_TRIGGER]


def assign(stream, trigger_delay):
    """Pulse-attributed detections of one simulated station stream of the
    default pulse plan."""
    delay_ps = to_ps(trigger_delay, "trigger_delay")
    period_ps = to_ps(PulsePlan().base_period, "base_period")
    return assign_to_pulses(stream, triggers_of(stream), delay_ps, period_ps)


def local_stream(channels, times_s, trigger_starts, clock, seed, drawn=0):
    """_local_stream with `clock`'s buffer on the generator of `seed`, its
    first `drawn` jitter values drawn beforehand, as emit_events draws them
    while the pairs are drawn."""
    buffer = _ClockBuffer(clock, seed).fill(drawn)
    return _local_stream(channels, times_s, trigger_starts, buffer)


class TestPrbs:
    def test_maximal_length_and_balance(self):
        bits = prbs_bits()
        assert bits == FM_BITS
        assert len(bits) == 127
        assert sum(bits) == 64
        # maximal sequence: all cyclic 7-bit windows distinct
        ext = bits + bits[:6]
        assert len({tuple(ext[i : i + 7]) for i in range(127)}) == 127

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            prbs_bits(seed=0)


class TestTriggerTrain:
    def test_default_plan_starts(self):
        # the first five FM bits are 0: the train starts at the base period
        assert np.allclose(PulsePlan().start_times(3), [0.0, 2e-6, 4e-6])

    def test_prbs_intervals_reproduce_the_sequence(self):
        n = 127 * 100 + 1
        plan = PulsePlan()
        intervals = np.diff(plan.start_times(n))
        expected = 2e-6 * (1.0 + 0.02 * np.repeat(FM_BITS, 100))
        assert np.allclose(intervals, expected[: intervals.size], rtol=1e-12)
        assert np.allclose(plan.period_seconds(n)[:-1], intervals, rtol=1e-12)

    def test_labels_follow_pattern(self):
        plan = PulsePlan(fm_pulses_per_bit=3)
        labels = plan.period_seconds(127 * 3 + 5) > plan.base_period
        assert list(labels[:6]) == [FM_BITS[0]] * 3 + [FM_BITS[1]] * 3
        assert list(labels) == list(np.resize(np.repeat(FM_BITS, 3), labels.size))

    @pytest.mark.parametrize("k", [1, 7, 100, 12_700, 10**6])
    @pytest.mark.parametrize("n", [1, 6, 99, 100, 101, 12_699, 12_701, 1_700_001])
    def test_period_of_pulse_i_follows_fm_bit_i_div_k(self, k, n):
        plan = PulsePlan(fm_pulses_per_bit=k)
        table = plan.base_period * (1.0 + plan.fm_lengthen_fraction * np.array([0, 1]))
        bits = np.asarray(FM_BITS)[np.arange(n) // k % len(FM_BITS)]
        assert np.array_equal(plan.period_seconds(n), table[bits])

    def test_fm_bit_far_longer_than_the_train_expands_only_the_pulses(self):
        # 10**12 pulses per bit asked np.repeat for a 116 TiB cycle, and 2**70
        # overflowed a C long; the train lies in the first bit, a 0
        for k in (10**12, 2**70):
            periods = PulsePlan(fm_pulses_per_bit=k).period_seconds(1000)
            assert periods.shape == (1000,) and (periods == 2e-6).all()


class TestEmitTrivials:
    def test_silent_source_yields_only_triggers(self):
        plan, n_pulses = PulsePlan(), 500
        src = SourceConfig(pair_yield=0.0)
        st = StationConfig(dark_rate=0.0)
        a, b = emit_events(
            plan, n_pulses, src, (st, st), AngleSetting(0, 0), 1.0, 1
        )
        assert np.all(a.channels == CHANNEL_TRIGGER)
        assert np.all(b.channels == CHANNEL_TRIGGER)
        assert len(a) == len(b) == 500

    def test_equal_angles_give_only_equal_outcomes(self):
        plan, n_pulses = PulsePlan(), 20_000
        src = SourceConfig(pair_yield=0.2)
        a, b = emit_events(
            plan, n_pulses, src, (NO_NOISE, NO_NOISE), AngleSetting(0.3, 0.3),
            1.0, 7,
        )
        det_a = assign(a, NO_NOISE.trigger_delay)
        det_b = assign(b, NO_NOISE.trigger_delay)
        rec = match_coincidences(det_a, det_b, WINDOW_PS)
        assert len(rec) > 1000
        assert np.all(OUTCOME_PARITY[rec.outcome] == 1)  # ++ or --: the stations agree

    def test_determinism(self):
        plan, n_pulses = PulsePlan(), 5000
        src = SourceConfig()
        st = StationConfig()
        setting = AngleSetting(0, math.pi / 8)
        args = (plan, n_pulses, src, (st, st), setting, 0.98)
        a1, b1 = emit_events(*args, 42)
        a2, b2 = emit_events(*args, 42)
        assert same_tags((a1, b1), (a2, b2))
        a3, _ = emit_events(*args, 43)
        assert not same_tags(a3, a1)


class TestEmitTransient:
    def test_inter_pulse_memory_only_removes_detections(self):
        # With eta_share 1 the whole suppression is in the efficiency
        # channel, and a carried deficit can only lower eta_factor: the same
        # draws keep a strict subset of the detections, in both transient
        # families.
        tau = Geometry().tau
        station = StationConfig(detector_efficiency=0.9, detector_jitter_sigma=0.5e-9)
        for mode, period in (("monotone", None), ("oscillatory", 6 * tau)):
            tags = {}
            for memory in (0.3, 0.0):
                transient = TransientModel(
                    mode=mode, tau=tau, theta=10 * tau, osc_period=period,
                    eta_share=1.0, inter_pulse_memory=memory,
                )
                source = SourceConfig(pair_yield=0.2, transient=transient)
                streams = emit_events(
                    PulsePlan(), 20_000, source, (station, station), AngleSetting(0, 0), 0.98, 5
                )
                tags[memory] = [
                    set(zip(s.channels.tolist(), s.times_ps.tolist())) for s in streams
                ]
            for with_memory, without in zip(tags[0.3], tags[0.0]):
                assert with_memory < without, mode


class TestEmitStatistics:
    def test_two_percent_of_pulses_detected(self):
        # tuning target for the default pair_yield at 0.1 efficiency per station
        plan, n_pulses = PulsePlan(), 1_000_000
        st = StationConfig(dark_rate=0.0)
        a, b = emit_events(
            plan, n_pulses, SourceConfig(), (st, st), AngleSetting(0, 0), 1.0, 11
        )
        trig_a = triggers_of(a)
        occupied = set()
        for stream in (a, b):
            det = stream.times_ps[stream.channels != CHANNEL_TRIGGER]
            delay = to_ps(st.trigger_delay, "trigger_delay")
            idx = np.searchsorted(trig_a, det - delay, side="right") - 1
            occupied.update(idx[idx >= 0].tolist())
        fraction = len(occupied) / n_pulses
        assert abs(fraction - 0.02) < 0.001

    @pytest.mark.parametrize("setting", [AngleSetting(0.0, math.pi / 8), AngleSetting(0.7, 2.9)])
    def test_outcomes_are_drawn_from_the_equal_outcome_law(self, setting):
        # the sampler's first draw decides agreement against the model's law,
        # float for float
        v_eff = np.linspace(0.5, 1.0, 1000)
        oa, ob = sim._sample_outcomes(np.random.default_rng(3), v_eff, setting)
        u = np.random.default_rng(3).random(v_eff.size)
        assert np.array_equal(oa == ob, u < equal_outcome_prob(setting.difference, v_eff))
        assert np.array_equal(
            equal_outcome_prob(setting.difference, v_eff),
            0.5 * (1.0 + v_eff * math.cos(2.0 * setting.difference)),
        )

    def test_joint_frequencies_match_model(self):
        # full-pipeline frequencies vs qm_joint_probs, 4 sigma binomial,
        # >= 1e6 pairs across the 4 settings
        from bellstrobe.model import SettingsQuad

        plan, n_pulses = PulsePlan(), 900_000
        src = SourceConfig(pair_yield=0.3, visibility_drift=0.0)
        for setting in SettingsQuad().settings():
            a, b = emit_events(plan, n_pulses, src, (NO_NOISE, NO_NOISE), setting, 1.0, 23)
            det_a = assign(a, NO_NOISE.trigger_delay)
            det_b = assign(b, NO_NOISE.trigger_delay)
            rec = match_coincidences(det_a, det_b, WINDOW_PS)
            n = len(rec)
            assert n > 250_000
            counts = np.bincount(rec.outcome, minlength=4)
            probs = qm_joint_probs(setting, 1.0)
            for k in range(4):
                sigma = math.sqrt(n * probs[k] * (1 - probs[k]))
                assert abs(counts[k] - n * probs[k]) < 4 * sigma, (
                    f"outcome {k} at {setting}: {counts[k]} vs {n * probs[k]:.0f}"
                )

    def test_visibility_drift_lowers_correlation(self):
        # 0.006/h for 10 h of session wall time knocks 6% off the visibility
        plan, n_pulses = PulsePlan(), 600_000
        src = SourceConfig(pair_yield=0.3, visibility_drift=0.006)
        a, b = emit_events(
            plan, n_pulses, src, (NO_NOISE, NO_NOISE), AngleSetting(0, 0), 0.98, 13,
            session_time=10 * 3600.0,
        )
        det_a = assign(a, NO_NOISE.trigger_delay)
        det_b = assign(b, NO_NOISE.trigger_delay)
        rec = match_coincidences(det_a, det_b, WINDOW_PS)
        v_hat = np.mean(OUTCOME_PARITY[rec.outcome])  # E = V_eff at equal angles
        assert v_hat == pytest.approx(0.98 * 0.94, abs=0.01)

    def test_dark_rate_recovered_over_30s_run(self):
        # out-of-pulse singles, scaled back to a rate, must match dark_rate
        plan, n_pulses = PulsePlan(), 15_000_000  # 30 s at 500 kHz
        st = StationConfig()  # 200/s darks
        a, _ = emit_events(
            plan, n_pulses, SourceConfig(pair_yield=0.0), (st, st), AngleSetting(0, 0),
            1.0, 9,
        )
        det = assign(a, st.trigger_delay)
        out_of_pulse = det.intra_ps >= plan.pulse_duration * 1e12
        live = 30.0 * (1.0 - plan.pulse_duration / plan.base_period)
        rate = out_of_pulse.sum() / live / 2  # two detector channels
        assert abs(rate - st.dark_rate) / st.dark_rate < 0.05


class TestApplyClock:
    """The clock transform emit_events applies to each station's true-time tags."""

    TIMES_PS = np.array([0, 1_000_000, 30_000_000_000_000], dtype=np.int64)

    def _local(self, clock, seed=0, times_ps=TIMES_PS):
        no_events = np.empty(0, np.uint8), np.empty(0)
        return local_stream(*no_events, times_ps / 1e12, clock, seed)

    def test_identity(self):
        out = self._local(ClockModel())
        assert same_tags(out, TagStream(np.full(3, 3, np.uint8), self.TIMES_PS))

    def test_offset_shifts_exactly(self):
        out = self._local(ClockModel(offset=1e-3))
        assert np.array_equal(out.times_ps, self.TIMES_PS + 10**9)

    def test_drift_shifts_last_trigger_300us_over_30s(self):
        out = self._local(ClockModel(drift_rate=1e-5))
        shift = out.times_ps[-1] - self.TIMES_PS[-1]
        assert shift == int(3e8)  # 300 us in ps

    def test_jitter_resorts(self, rng):
        times = np.arange(0, 10_000, 100, dtype=np.int64)
        out = self._local(ClockModel(jitter_sigma=1e-9), seed=3, times_ps=times)
        assert np.all(np.diff(out.times_ps) >= 0)


def reference_local_clock(channels, times_s, clock, seed):
    """Oracle for _local_stream: the clock transform on the concatenated
    tags, then a full sort by (timestamp, channel) and a dedupe, each step on
    fresh arrays."""
    rng = np.random.default_rng(seed)
    local = clock.offset + (1.0 + clock.drift_rate) * times_s
    if clock.jitter_sigma > 0:
        local = local + rng.normal(0.0, clock.jitter_sigma, times_s.size)
    ps = np.rint(local * 1e12).astype(np.int64)
    key = np.sort(ps * 4 + np.asarray(channels, dtype=np.uint8))
    if key.size > 1:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return TagStream((key & 3).astype(np.uint8), key >> 2)


# Event times on a 50 ps grid over 2 ns, so that equal times (on one channel:
# duplicates; on different channels: ties) are common; trigger spacings of
# 1-500 ps, so that a 1 ns jitter reorders the trigger train.
events_st = st.lists(
    st.tuples(st.sampled_from([1, 2, 3]), st.integers(0, 40)), max_size=30
)
spacings_st = st.lists(st.integers(1, 500), max_size=40)
clock_st = st.builds(
    ClockModel,
    offset=st.sampled_from([0.0, 1.3e-3]),
    drift_rate=st.sampled_from([0.0, 20e-6]),
    jitter_sigma=st.sampled_from([0.0, 2e-12, 1e-9]),
)


class TestLocalStream:
    @settings(max_examples=300, deadline=None)
    @given(events=events_st, spacings=spacings_st, clock=clock_st, seed=st.integers(0, 99))
    @example(events=[], spacings=[10, 20], clock=ClockModel(jitter_sigma=1e-9), seed=1)
    @example(events=[(1, 3)], spacings=[], clock=ClockModel(), seed=0)
    @example(events=[], spacings=[7], clock=ClockModel(offset=1.3e-3), seed=0)
    @example(
        events=[(2, 4), (2, 4), (1, 4), (3, 4)], spacings=[200, 1],
        clock=ClockModel(), seed=0,
    )
    def test_matches_sort_of_concatenated_tags(self, events, spacings, clock, seed):
        channels = np.array([c for c, _ in events], np.uint8)
        times = np.array([50e-12 * k for _, k in events], np.float64)
        triggers = np.cumsum(np.array(spacings, np.float64)) * 1e-12
        out = local_stream(channels, times, triggers, clock, seed)
        want = reference_local_clock(
            np.concatenate([channels, np.full(triggers.size, CHANNEL_TRIGGER, np.uint8)]),
            np.concatenate([times, triggers]),
            clock,
            seed,
        )
        assert out.channels.dtype == np.uint8 and out.times_ps.dtype == np.int64
        assert same_tags(out, want)

    def test_jitter_that_reorders_the_trigger_train(self):
        # 1 ns jitter on a 100 ps trigger spacing: the jittered train is out
        # of order, so a merge that trusted its order would go wrong
        triggers = np.arange(50) * 1e-10
        clock = ClockModel(jitter_sigma=1e-9)
        jittered = triggers + np.random.default_rng(4).normal(0.0, 1e-9, 50)
        assert np.any(np.diff(jittered) < 0)
        out = local_stream(np.empty(0, np.uint8), np.empty(0), triggers, clock, 4)
        want = reference_local_clock(np.full(50, CHANNEL_TRIGGER, np.uint8), triggers, clock, 4)
        assert same_tags(out, want)


class TestDrawBlocks:
    """The pairs per pulse are drawn, and the clock transform applied,
    DRAW_CHUNK values at a time; both must equal one whole pass, on both
    sides of every block boundary."""

    N_PULSES = [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 3]
    # the presets' 0.106-0.35 and both sides of ln 2, where e^-pair_yield
    # crosses 1/2 and the chains are no longer parsed
    PAIR_YIELDS = [
        0.0, 1e-3, 0.106, 0.2, 0.35, math.log(2) - 1e-9, math.log(2) + 1e-9, 1.0, 3.0, 9.99
    ]

    @staticmethod
    def assert_pair_pulses_match(rng, oracle_rng, pair_yield, n):
        """_pair_pulses equals one whole Generator.poisson draw, and leaves the
        generator as that draw does, down to the buffered half of a 32-bit
        draw that _sample_outcomes' integers take next."""
        got = _pair_pulses(rng, pair_yield, n)
        counts = oracle_rng.poisson(pair_yield, n)
        want = np.repeat(np.arange(n), counts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert np.array_equal(rng.integers(0, 2, 5), oracle_rng.integers(0, 2, 5))
        assert rng.random() == oracle_rng.random()
        return counts

    @staticmethod
    def generators(seed):
        """Two equal generators, each holding half of a 32-bit draw."""
        pair = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in pair:
            rng.integers(0, 2, 1)
        return pair

    @pytest.mark.parametrize("n", N_PULSES)
    @pytest.mark.parametrize("pair_yield", PAIR_YIELDS)
    def test_pair_pulses_match_one_whole_draw(self, n, pair_yield):
        self.assert_pair_pulses_match(*self.generators(5), pair_yield, n)

    @pytest.mark.parametrize("pair_yield", [1e-3, 0.35])
    def test_pair_pulses_draw_a_block_again_when_its_chains_outrun_the_draw(
        self, monkeypatch, pair_yield
    ):
        # a first guess of one uniform per pulse is short for any block
        # holding a pair; the draw must be taken again, from the same state
        parsed = []
        parse = sim._chain_continues
        monkeypatch.setattr(sim, "_uniforms_for", lambda n, pair_yield: n)
        monkeypatch.setattr(sim, "_chain_continues", lambda u, limit: parsed.append(u.size)
                            or parse(u, limit))
        n = 2 * DRAW_CHUNK + 3
        self.assert_pair_pulses_match(*self.generators(5), pair_yield, n)
        assert len(parsed) > 3 and DRAW_CHUNK in parsed

    @staticmethod
    def yields_with_limit(limit):
        """Every pair_yield near -ln(limit) whose e^-pair_yield, from the C
        library's exp as numpy's poisson takes it, is exactly `limit`."""
        lam = -math.log(limit)
        for _ in range(64):
            lam = math.nextafter(lam, 0.0)
        found = []
        for _ in range(128):
            if math.exp(-lam) == limit:
                found.append(lam)
            lam = math.nextafter(lam, 1.0)
        return found

    @pytest.mark.parametrize("seed", range(20))
    def test_a_chain_ends_at_a_product_equal_to_its_limit(self, seed):
        # a first uniform, and a product of the first two, exactly at
        # e^-pair_yield end the first chain (numpy continues while the
        # product is > e^-pair_yield). The pair yields found include some
        # whose np.exp is one ulp below math.exp's
        u0, u1 = np.random.default_rng(seed).random(2)
        for limit, first_count in ((u0, 0), (u0 * u1, 1)):
            if limit < 0.5:
                continue
            yields = self.yields_with_limit(limit)
            assert yields
            for pair_yield in yields:
                rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                counts = self.assert_pair_pulses_match(rng, oracle_rng, pair_yield, 3)
                assert counts[0] == first_count

    N_TRIGGERS = 2 * DRAW_CHUNK + 3

    @pytest.mark.parametrize("drawn", [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, N_TRIGGERS])
    def test_jittered_drifting_clock_across_blocks(self, drawn):
        # `drawn` jitter values are in the buffer before the stream is built,
        # from none to one per trigger (all emit_events draws ahead)
        rng = np.random.default_rng(6)
        triggers = np.arange(self.N_TRIGGERS) * 2e-6
        channels = rng.integers(1, 3, 5000).astype(np.uint8)
        times = rng.random(5000) * triggers[-1]
        clock = ClockModel(offset=1.3e-3, drift_rate=20e-6, jitter_sigma=20e-12)
        out = local_stream(channels, times, triggers, clock, 7, drawn)
        want = reference_local_clock(
            np.concatenate([channels, np.full(triggers.size, CHANNEL_TRIGGER, np.uint8)]),
            np.concatenate([times, triggers]),
            clock,
            7,
        )
        assert same_tags(out, want)

    def test_emit_events_holds_no_pulse_length_temporaries(self):
        # default config for 2 s with a jittered B clock. Beyond the returned
        # streams only the trigger starts and pair-length arrays need to be
        # alive at once (about 1.7 float64 arrays of pulse length); whole
        # pulse-length draws or index arrays would add one each
        plan, n_pulses = PulsePlan(), 1_000_000
        clock_b = ClockModel(offset=1e-3, jitter_sigma=20e-12)
        tracemalloc.start()
        try:
            streams = emit_events(
                plan, n_pulses, SourceConfig(), (StationConfig(), StationConfig(clock=clock_b)),
                AngleSetting(0, math.pi / 8), 0.98, 1,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(s.channels.nbytes + s.times_ps.nbytes for s in streams)
        assert peak - held <= 2.5 * 8 * n_pulses


class TestThreads:
    def test_concurrent_calls_equal_serial_calls(self):
        # every call hands its tasks to the process's one worker thread; four
        # callers at once, their tasks queued on it in turn, on a short switch
        # interval, must still get the serial streams. Both
        # clocks are jittered over more than DRAW_CHUNK tags, so both clock
        # generators pass between the caller and the worker
        clock_a = ClockModel(offset=2e-4, jitter_sigma=3e-11)
        clock_b = ClockModel(offset=1e-3, drift_rate=2e-5, jitter_sigma=2e-11)
        stations = (StationConfig(clock=clock_a), StationConfig(clock=clock_b))
        args = (PulsePlan(), 80_000, SourceConfig(pair_yield=0.3), stations,
                AngleSetting(0, math.pi / 8), 0.98)
        seeds = range(8)
        serial = [emit_events(*args, seed) for seed in seeds]
        assert len(serial[0][1]) > DRAW_CHUNK
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                threaded = list(callers.map(lambda seed: emit_events(*args, seed), seeds,
                                            timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert same_tags(threaded, serial)


def inline_submit(fn, *args):
    """A stand-in for `worker.submit` that runs each task when it is
    submitted, on the caller: emit_events as one serial program."""
    future = Future()
    future.set_result(fn(*args))
    return future


class TestJitterHandover:
    """The jitter a clock needs for its n_pulses triggers is drawn on the
    worker once the pairs are in, while the caller runs the source stage.
    Whether the pairs finish before the caller asks for them or after must
    not move a tag, and no stream may take its buffer before it is filled."""

    N_PULSES = 2 * DRAW_CHUNK + 3
    CLOCK_A = ClockModel(offset=2e-4, jitter_sigma=3e-11)
    CLOCK_B = ClockModel(offset=1e-3, drift_rate=2e-5, jitter_sigma=2e-11)

    def run(self, jittered, seed=3):
        stations = (
            StationConfig(clock=self.CLOCK_A if "a" in jittered else ClockModel()),
            StationConfig(clock=self.CLOCK_B if "b" in jittered else ClockModel()),
        )
        return emit_events(
            PulsePlan(), self.N_PULSES, SourceConfig(pair_yield=0.3), stations,
            AngleSetting(0, math.pi / 8), 0.98, seed,
        )

    @pytest.mark.parametrize("jittered", ["a", "b", "ab"])
    @pytest.mark.parametrize("pairs_finish", ["at_once", "late"])
    def test_equals_a_serial_run(self, monkeypatch, jittered, pairs_finish):
        with monkeypatch.context() as serial:
            serial.setattr(worker, "submit", inline_submit)
            want = self.run(jittered)
            assert not same_tags(want, self.run(jittered, seed=4))  # the comparison can fail

        # jitter values drawn ahead of the events (below n_pulses), by thread
        ahead = {"caller": 0, "worker": 0}
        pairs_in, taken = threading.Event(), threading.Event()
        fill, take, pair_pulses, starts_of = (
            _ClockBuffer.fill, _ClockBuffer.take, sim._pair_pulses, sim._starts_of
        )

        def counted_fill(buffer, n):
            caller = threading.current_thread() is threading.main_thread()
            drawing = buffer.clock.jitter_sigma > 0 and n > buffer.values.size
            if drawing and not caller and not ahead["worker"]:
                taken.wait(0.05)  # time for a caller that takes a buffer too early
            lo = min(buffer.values.size, self.N_PULSES)
            filled = fill(buffer, n)
            ahead["caller" if caller else "worker"] += min(buffer.values.size, self.N_PULSES) - lo
            return filled

        def flagged_take(buffer, n):
            taken.set()
            return take(buffer, n)

        def timed_pair_pulses(*args):
            if pairs_finish == "late":
                time.sleep(0.05)  # the caller waits for the pairs
            out = pair_pulses(*args)
            pairs_in.set()
            return out

        def held_starts_of(periods):
            pairs_in.wait(10)
            time.sleep(0.05)
            return starts_of(periods)

        monkeypatch.setattr(_ClockBuffer, "fill", counted_fill)
        monkeypatch.setattr(_ClockBuffer, "take", flagged_take)
        monkeypatch.setattr(sim, "_pair_pulses", timed_pair_pulses)
        if pairs_finish == "at_once":
            monkeypatch.setattr(sim, "_starts_of", held_starts_of)
        got = self.run(jittered)

        assert same_tags(got, want)
        assert ahead == {"caller": 0, "worker": len(jittered) * self.N_PULSES}


class TestTriggerInvariant:
    def test_triggers_differ_only_by_clock_transform(self):
        plan, n_pulses = PulsePlan(), 30_000
        clock_b = ClockModel(offset=2e-3, drift_rate=15e-6)
        st_a = StationConfig(dark_rate=0.0)
        st_b = StationConfig(dark_rate=0.0, clock=clock_b)
        a, b = emit_events(
            plan, n_pulses, SourceConfig(pair_yield=0.05), (st_a, st_b),
            AngleSetting(0, 0), 1.0, 31,
        )
        ta = triggers_of(a).astype(np.float64)
        tb = triggers_of(b).astype(np.float64)
        assert ta.size == tb.size == n_pulses
        undone = (tb - clock_b.offset * 1e12) / (1.0 + clock_b.drift_rate)
        assert np.max(np.abs(undone - ta)) < 1.0  # within the 1 ps grid
