"""Two-station time-tag stream simulator.

Generates frequency-modulated pulse trains, entangled-pair detections with
configurable visibility/transient physics, detector imperfections, dark
counts, and independently drifting station clocks. All randomness flows from
a single seed through numpy SeedSequence spawning, split per purpose: the
source, and each station's detection and clock-jitter streams.

emit_events runs a run's independent streams on the process's one persistent
worker thread (`worker.submit`) beside the caller's: the pairs per pulse
(drawn from the source generator) while the caller builds the trigger train;
the clock jitter of the triggers while the caller runs the source stage;
then station B's thinning, darks and stream while the caller does station
A's. Each generator is used by one thread at a time, in its serial order,
and each stage reads only what the stages before it returned, so the tags
cannot depend on how the threads are scheduled.

No pulse-length temporary exists for the draws with one value per pulse or
per tag. A clock's jitter goes straight into the buffer its stream is built
in, in two calls (the triggers', then the events'), which Generator fills
sequentially. The pairs per pulse are read DRAW_CHUNK pulses at a time from
the source generator's uniforms as Generator.poisson would use them
(Knuth's chains, see _pair_pulses). Either way the values are those of one
whole draw, and the generator ends where that draw leaves it, so the tags
depend neither on DRAW_CHUNK nor on which thread drew what.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import worker
from .model import (
    AngleSetting, TransientModel, carried_deficit, equal_outcome_prob, transient_factors
)

CHANNEL_PLUS = 1
CHANNEL_MINUS = 2
CHANNEL_TRIGGER = 3

PS_PER_SECOND = 1e12

# _local_stream sorts a station's tags on the int64 keys
# t_ps << KEY_CHANNEL_BITS | channel, which hold a local time t_ps only
# within (-KEY_RANGE_PS, KEY_RANGE_PS): 2**61 ps, about 26.7 days.
KEY_CHANNEL_BITS = 2
KEY_RANGE_PS = 1 << (63 - KEY_CHANNEL_BITS)

# Pulses or tags per step of the pairs-per-pulse draw and the clock transform.
DRAW_CHUNK = 1 << 16


def prbs_bits(order: int = 7, taps: tuple[int, int] = (7, 6), seed: int = 0b1) -> tuple[int, ...]:
    """Maximal-length LFSR bit sequence of length 2**order - 1.

    Default is the 127-bit sequence from x^7 + x^6 + 1 (taps 7 and 6).
    """
    if seed <= 0 or seed >= (1 << order):
        raise ValueError("seed must be a nonzero state of the register")
    mask = (1 << order) - 1
    state = seed
    bits = []
    for _ in range((1 << order) - 1):
        fb = 0
        for t in taps:
            fb ^= state >> (t - 1)
        fb &= 1
        state = ((state << 1) | fb) & mask
        bits.append(fb)
    return tuple(bits)


FM_BITS = prbs_bits()


@dataclass(frozen=True)
class PulsePlan:
    """The `pulses` config block: the pump pulse train, 500 ns pulses at
    500 kHz by default, frequency-modulated by FM_BITS.

    Each FM bit spans `fm_pulses_per_bit` consecutive pulses; a 1 bit
    lengthens the period following those pulses by `fm_lengthen_fraction`.
    The 127-bit PRBS gives an unambiguous alignment fingerprint at any
    relative offset within one pattern length (12700 pulses by default).
    """

    base_period: float = 2e-6
    pulse_duration: float = 500e-9
    rise_time: float = 20e-9
    fall_time: float = 20e-9
    fm_pulses_per_bit: int = 100
    fm_lengthen_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not self.base_period > 0:
            raise ValueError("base_period must be positive")
        if self.pulse_duration >= self.base_period:
            raise ValueError("pulse_duration must be shorter than base_period")
        if self.rise_time < 0 or self.fall_time < 0:
            raise ValueError("rise_time and fall_time must be >= 0")
        if self.rise_time + self.fall_time > self.pulse_duration:
            raise ValueError("rise_time + fall_time exceed pulse_duration")
        if self.fm_pulses_per_bit < 1:
            raise ValueError("fm_pulses_per_bit must be >= 1")
        if not 0.0 < self.fm_lengthen_fraction < 1.0:
            raise ValueError("fm_lengthen_fraction must be in (0, 1)")

    def period_seconds(self, n_pulses: int) -> np.ndarray:
        """Interval following each of `n_pulses` pulses: one FM cycle looked
        up in the two-entry period table, repeated. Only the FM bits the
        pulses reach are expanded, each to at most `n_pulses` pulses."""
        table = self.base_period * (1.0 + self.fm_lengthen_fraction * np.array([0, 1], np.uint8))
        k = self.fm_pulses_per_bit
        bits = np.asarray(FM_BITS[: -(-n_pulses // k)], np.uint8)
        return np.resize(table[np.repeat(bits, min(k, n_pulses))], n_pulses)

    def start_times(self, n_pulses: int) -> np.ndarray:
        return _starts_of(self.period_seconds(n_pulses))


def _starts_of(periods: np.ndarray) -> np.ndarray:
    """Pulse start times: 0, then the running sum of the intervals."""
    starts = np.empty(periods.size)
    starts[0] = 0.0
    np.cumsum(periods[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True)
class ClockModel:
    """Affine local clock with white per-tag jitter.

    local_time(t) = offset + (1 + drift_rate) * t + N(0, jitter_sigma)
    """

    offset: float = 0.0
    drift_rate: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not 1.0 + self.drift_rate > 0:
            raise ValueError(f"drift_rate must be above -1, got {self.drift_rate}")


@dataclass(frozen=True)
class StationConfig:
    detector_efficiency: float = 0.1
    dark_rate: float = 200.0
    detector_jitter_sigma: float = 2e-9
    trigger_delay: float = 57e-9
    clock: ClockModel = field(default_factory=ClockModel)

    def __post_init__(self) -> None:
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in [0, 1]")
        if self.dark_rate < 0 or self.detector_jitter_sigma < 0:
            raise ValueError("dark_rate and detector_jitter_sigma must be >= 0")
        if self.dark_rate >= PS_PER_SECOND:  # numpy's Poisson draw refuses ~9.2e18
            raise ValueError(f"dark_rate must be below one per picosecond, got {self.dark_rate}")


@dataclass(frozen=True)
class SourceConfig:
    """Pair source. The default pair_yield makes ~2% of pulses produce a
    detected photon at the default 0.1 station efficiencies."""

    pair_yield: float = 0.106
    visibility_drift: float = 0.006
    transient: TransientModel = field(default_factory=TransientModel)

    def __post_init__(self) -> None:
        if self.pair_yield < 0:
            raise ValueError("pair_yield must be >= 0")
        if self.pair_yield >= 10:  # numpy's Poisson draw changes method at 10
            raise ValueError(f"source.pair_yield must be below 10, got {self.pair_yield}")
        if self.visibility_drift < 0:
            raise ValueError("visibility_drift must be >= 0")


@dataclass(eq=False)
class TagStream:
    """One station's tag list: parallel channel/timestamp arrays, sorted by
    (timestamp, channel), timestamps on the 1 ps grid. `==` is identity, as
    for any object: it never compares the arrays."""

    channels: np.ndarray
    times_ps: np.ndarray

    def __post_init__(self) -> None:
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.times_ps = np.asarray(self.times_ps, dtype=np.int64)
        if self.channels.shape != self.times_ps.shape:
            raise ValueError("channels and times_ps must have equal length")

    def __len__(self) -> int:
        return int(self.channels.size)


def _sample_pulse_envelope(rng: np.random.Generator, n: int, plan: PulsePlan) -> np.ndarray:
    """Emission times under the trapezoidal pulse envelope, in [0, duration)."""
    r, f = plan.rise_time, plan.fall_time
    dur = plan.pulse_duration
    flat = dur - r - f
    area = flat + 0.5 * (r + f)  # height-1 trapezoid
    a = rng.random(n) * area
    t = np.empty(n)
    in_rise = a < 0.5 * r
    in_fall = a > area - 0.5 * f
    mid = ~(in_rise | in_fall)
    if r > 0:
        t[in_rise] = np.sqrt(2.0 * r * a[in_rise])
    t[mid] = r + (a[mid] - 0.5 * r)
    if f > 0:
        t[in_fall] = dur - np.sqrt(2.0 * f * (area - a[in_fall]))
    return t


def _sample_outcomes(
    rng: np.random.Generator, visibility_eff: np.ndarray, setting: AngleSetting
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome pairs (+1/-1 arrays) from the joint distribution.

    P(equal outcomes) is `equal_outcome_prob`; the A outcome is a fair
    coin, which keeps both marginals at exactly 1/2.
    """
    equal = rng.random(visibility_eff.size) < equal_outcome_prob(
        setting.difference, visibility_eff
    )
    oa = rng.integers(0, 2, visibility_eff.size).astype(np.int8) * 2 - 1
    ob = np.where(equal, oa, -oa).astype(np.int8)
    return oa, ob


def _station_events(
    rng: np.random.Generator,
    station: StationConfig,
    pulse_start: np.ndarray,
    t_emit: np.ndarray,
    outcome: np.ndarray,
    eta_factor: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Detection thinning, jitter and darks for one station.

    Returns unsorted (channels, times in true seconds) of the detections and
    dark counts; the trigger tags join them in _local_stream.
    """
    keep = rng.random(outcome.size) < station.detector_efficiency * eta_factor
    jitter = (
        rng.normal(0.0, station.detector_jitter_sigma, outcome.size)
        if station.detector_jitter_sigma > 0
        else np.zeros(outcome.size)
    )
    n_dark = rng.poisson(station.dark_rate * duration, size=2)
    dark_plus = rng.random(n_dark[0]) * duration
    dark_minus = rng.random(n_dark[1]) * duration

    t_det = (pulse_start + t_emit + station.trigger_delay + jitter)[keep]
    ch_det = np.where(outcome[keep] > 0, CHANNEL_PLUS, CHANNEL_MINUS).astype(np.uint8)

    times = np.concatenate([t_det, dark_plus, dark_minus])
    channels = np.concatenate(
        [
            ch_det,
            np.full(dark_plus.size, CHANNEL_PLUS, dtype=np.uint8),
            np.full(dark_minus.size, CHANNEL_MINUS, dtype=np.uint8),
        ]
    )
    return channels, times


class _ClockBuffer:
    """The float64 buffer one station's local-clock stream is built in,
    holding that clock's jitter: one value per tag (the events, then the
    triggers), drawn from the station's clock generator.

    The first n_pulses values of a jittered clock (every stream holds its
    triggers) can be drawn before the events are known; `take` draws the
    rest once they are. The buffer grows to each target by
    ndarray.resize: glibc's realloc extends a large block by remapping its
    pages, not by copying them. It starts empty because numpy advises huge
    pages for an array allocated large, and realloc then copied it (28 ms
    per 40 MB on a 2-core x86_64 VM, Linux 6.18). An ideal clock's buffer is
    all zeros, allocated when taken.
    """

    def __init__(self, clock: ClockModel, seed) -> None:
        self.clock = clock
        self.rng = np.random.default_rng(seed)
        self.values = np.empty(0)

    def fill(self, n: int) -> _ClockBuffer:
        """Grow a jittered clock's buffer to `n` values and draw the new ones
        in one call. sigma * standard_normal is what Generator.normal(0,
        sigma) returns, without a temporary."""
        drawn = self.values.size
        if self.clock.jitter_sigma > 0 and n > drawn:
            self.values.resize(n, refcheck=False)
            new = self.values[drawn:]
            self.rng.standard_normal(out=new)
            new *= self.clock.jitter_sigma
        return self

    def take(self, n: int) -> np.ndarray:
        """Hand over the buffer at `n` values, all drawn. Nothing may hold a
        view of it while it grows (resize with refcheck=False)."""
        if self.clock.jitter_sigma > 0:
            values = self.fill(n).values
        else:
            # written, not calloc'd: the add into the buffer would first read
            # calloc's untouched pages, then fault again to write them
            values = np.empty(n)
            values.fill(0.0)
        self.values = None
        return values


def _local_stream(
    channels: np.ndarray,
    times_s: np.ndarray,
    trigger_starts: np.ndarray,
    buffer: _ClockBuffer,
) -> TagStream:
    """One station's sorted local-clock stream from its events (true seconds)
    and its trigger starts.

    t_local = N(0, jitter_sigma) + (offset + (1 + drift_rate)*t), rounded
    once to the 1 ps grid, with one jitter stream over the events then the
    triggers: `buffer` grows to one value per tag, and the transformed times
    are added into it DRAW_CHUNK tags at a time (IEEE addition commutes, so
    the order of the two terms does not matter).
    Everything happens in that one float64 buffer and its int64
    (t << KEY_CHANNEL_BITS | channel) keys, whose range ExperimentConfig
    keeps every local time within. The stable sort (timsort for int64)
    merges the ascending trigger train with the events in near-linear time
    and still sorts fully when the jitter reorders triggers. Duplicate
    (t, channel) tags are dropped.
    """
    n_events = times_s.size
    t = buffer.take(n_events + trigger_starts.size)
    scale, offset = 1.0 + buffer.clock.drift_rate, buffer.clock.offset
    scratch = np.empty(min(DRAW_CHUNK, t.size))
    for start, x in ((0, times_s), (n_events, trigger_starts)):
        for lo in range(0, x.size, DRAW_CHUNK):
            block = x[lo : lo + DRAW_CHUNK]
            y = np.multiply(block, scale, out=scratch[: block.size])
            y += offset
            t[start + lo : start + lo + block.size] += y
    del scratch
    t *= PS_PER_SECOND
    np.rint(t, out=t)
    key = t.view(np.int64)
    key[...] = t  # cast in place: each element is read before it is overwritten
    del t
    key <<= KEY_CHANNEL_BITS
    key[:n_events] += channels
    key[n_events:] += CHANNEL_TRIGGER
    key.sort(kind="stable")
    if key.size > 1:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        if not keep.all():
            key = key[keep]
    channels = np.empty(key.size, np.uint8)
    np.bitwise_and(key, (1 << KEY_CHANNEL_BITS) - 1, out=channels, casting="unsafe")
    key >>= KEY_CHANNEL_BITS
    return TagStream(channels, key)


def _uniforms_for(n: int, pair_yield: float) -> int:
    """First guess at the uniforms n Poisson draws take: one ending each
    draw, plus the pairs' mean and six standard deviations."""
    mean = pair_yield * n
    return n + int(mean + 6.0 * math.sqrt(mean)) + 16


def _chain_continues(u: np.ndarray, limit: float) -> np.ndarray:
    """Ascending positions of the uniforms that continue a Knuth chain.

    A chain multiplies uniforms, left to right, until the product is
    <= limit; that uniform ends it and the next starts a new one. A uniform
    <= limit ends its chain whatever came before, and the first uniform
    after an end continues iff it is > limit; so only a run of two or more
    uniforms > limit needs its products, taken in the run's order, all runs
    at once.
    """
    high = np.flatnonzero(u > limit)
    follows = np.empty(high.size, bool)  # the next uniform is high too
    np.equal(high[1:], high[:-1] + 1, out=follows[:-1])
    follows[-1:] = False
    run = np.flatnonzero(follows[1:] > follows[:-1]) + 1  # each run's first high
    if follows[:1].any():
        run = np.concatenate(([0], run))
    if run.size == 0:
        return high
    continues = np.ones(high.size, bool)
    x = u[high]
    prod = x[run]
    while run.size:
        run += 1
        prod *= x[run]
        cont = prod > limit
        continues[run] = cont
        prod = np.where(cont, prod, 1.0)
        alive = follows[run]
        run, prod = run[alive], prod[alive]
    return high[continues]


def _pair_pulses(rng: np.random.Generator, pair_yield: float, n_pulses: int) -> np.ndarray:
    """Pulse index of every pair, ascending: Poisson(pair_yield) pairs per
    pulse, drawn DRAW_CHUNK pulses at a time. Equal to
    np.repeat(np.arange(n_pulses), rng.poisson(pair_yield, n_pulses)), and
    leaves `rng` in the state that draw does.

    Below 10, Generator.poisson draws by Knuth's method: it multiplies
    uniforms (Generator.random's doubles) while the product stays
    > e^-pair_yield, from the C library's exp (math.exp), and the count is
    the number of those multiplications. Where e^-pair_yield >= 1/2, most
    pulses hold no pair, and each block parses the chains of one draw of
    uniforms instead: the pulse of a continuing uniform is its position
    minus the continuing uniforms before it. The generator is then put back
    and advanced by the uniforms the block's chains used; a block whose last
    chain runs past the draw draws again, twice as many. Where e^-pair_yield
    < 1/2 the block calls poisson, which is faster there. At a yield of 0
    poisson draws nothing, and neither does this."""
    if pair_yield == 0.0:
        return np.empty(0, np.intp)
    limit = math.exp(-pair_yield)
    bits = rng.bit_generator
    u = np.empty(0)
    blocks = []
    for start in range(0, n_pulses, DRAW_CHUNK):
        n_block = min(DRAW_CHUNK, n_pulses - start)
        # kept: poisson 46 ms, parse 4.76 s (400 k pulses at 9.99, 2 cores), a
        # micro-timing; no benchmark workload has a yield above ln 2 and takes it
        if limit < 0.5:
            n = rng.poisson(pair_yield, n_block)
            hit = np.flatnonzero(n)
            blocks.append(np.repeat(hit + start, n[hit]))
            continue
        saved = bits.state
        m = _uniforms_for(n_block, pair_yield)
        while True:
            if u.size < m:
                u = np.empty(m)
            rng.random(out=u[:m])
            at = _chain_continues(u[:m], limit)
            if m - at.size >= n_block:  # the block's last chain ended in the draw
                break
            bits.state = saved
            m *= 2
        pulse = at - np.arange(at.size)
        pairs = int(np.searchsorted(pulse, n_block))
        blocks.append(pulse[:pairs] + start)
        bits.state = saved
        bits.advance(n_block + pairs)
        if saved["has_uint32"]:  # advance drops the buffered half of a 32-bit draw
            bits.state = {**bits.state, "has_uint32": 1, "uinteger": saved["uinteger"]}
    return np.concatenate(blocks)


def emit_events(
    plan: PulsePlan,
    n_pulses: int,
    source: SourceConfig,
    stations: tuple[StationConfig, StationConfig],
    setting: AngleSetting,
    visibility: float,
    seed,
    session_time: float = 0.0,
) -> tuple[TagStream, TagStream]:
    """Simulate one run of `n_pulses` pulses of `plan` and return the two
    stations' local-clock tag streams.

    Per pulse, Poisson(pair_yield) pairs are emitted at envelope-distributed
    times; outcomes follow the joint quantum distribution with visibility
    V(t_wall) * s_factor(t_emit), and each photon is detected independently
    with probability detector_efficiency * eta_factor(t_emit). Photon tags sit
    trigger_delay after their pulse's trigger tag; dark counts are Poisson and
    uniform over the run; each station's clock transform is applied last.

    `session_time` is the run's start within the session (seconds of wall
    time), used for the slow visibility drift. Deterministic for a fixed seed.

    Two threads share the work: the caller and the process's one worker
    thread (`worker.submit`). The worker draws the pairs per pulse from the
    source generator (`_pair_pulses`: at the presets' yields, one block of
    uniforms parsed into Knuth's Poisson chains per DRAW_CHUNK pulses, the
    values and generator state of Generator.poisson) while the caller builds
    the trigger train. The worker then draws the first n_pulses jitter values
    of each jittered clock into its stream buffer, in one call each, while
    the caller takes the source generator back for the envelope times and
    outcomes. Station B's events and stream are built on the worker, from B's
    own generators, while the caller builds A's; each stream draws its last
    jitter values (one per event) itself. The pair-length arrays are dropped
    once both stations have thinned them. The generators pass between the
    threads only through the worker's futures, so none is used by two threads
    at once and each keeps its draw order: the tags are those of a serial
    run, also when emit_events is itself called on the worker thread and its
    tasks run inline.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key_source, key_a, key_b = ss.spawn(3)
    key_det_a, key_clk_a = key_a.spawn(2)
    key_det_b, key_clk_b = key_b.spawn(2)
    rng_src = np.random.default_rng(key_source)
    clocks = [
        _ClockBuffer(station.clock, key)
        for station, key in zip(stations, (key_clk_a, key_clk_b))
    ]

    pairs = worker.submit(_pair_pulses, rng_src, source.pair_yield, n_pulses)
    periods = plan.period_seconds(n_pulses)
    starts = _starts_of(periods)
    duration = float(np.sum(periods))
    pulse_idx = pairs.result()
    filled = worker.submit(lambda: [clock.fill(n_pulses) for clock in clocks])

    k = pulse_idx.size
    t_emit = _sample_pulse_envelope(rng_src, k, plan)

    transient = source.transient
    eta0 = max(stations[0].detector_efficiency, stations[1].detector_efficiency)
    if transient.mode != "none" and transient.inter_pulse_memory > 0.0:
        gaps = periods[np.maximum(pulse_idx - 1, 0)] - plan.pulse_duration
        carry = np.where(
            pulse_idx > 0, carried_deficit(transient, plan.pulse_duration, gaps), 0.0
        )
    else:
        carry = 0.0
    del periods
    s_factor, eta_factor = transient_factors(
        t_emit, transient, eta0, visibility, carried=carry
    )

    pulse_start = starts[pulse_idx]
    del pulse_idx
    wall_hours = (session_time + pulse_start) / 3600.0
    v_eff = np.clip(
        visibility * (1.0 - source.visibility_drift * wall_hours) * s_factor,
        0.0,
        1.0,
    )
    oa, ob = _sample_outcomes(rng_src, v_eff, setting)
    del carry, s_factor, wall_hours, v_eff

    thin_b = worker.submit(
        _station_events,
        np.random.default_rng(key_det_b),
        stations[1],
        pulse_start,
        t_emit,
        ob,
        eta_factor,
        duration,
    )
    events_a = _station_events(
        np.random.default_rng(key_det_a),
        stations[0],
        pulse_start,
        t_emit,
        oa,
        eta_factor,
        duration,
    )
    del pulse_start, t_emit, eta_factor, oa, ob
    clock_a, clock_b = filled.result()
    stream_b = worker.submit(_local_stream, *thin_b.result(), starts, clock_b)
    stream_a = _local_stream(*events_a, starts, clock_a)
    return stream_a, stream_b.result()
