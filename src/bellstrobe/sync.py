"""Pulse-numbering and clock recovery from the two trigger channels alone.

The FM fingerprint carried by the inter-trigger intervals makes the relative
pulse offset between the stations recoverable without counting coincidences:
intervals are binarized against the midpoint of their own 10th and 90th
percentiles (immune to clock-rate scaling) and cross-correlated at the
searched lags only, through an ALIGN_NFFT-point (33,750) transform whose
rounded values are the exact integer correlations. After alignment, an
affine fit of matched trigger times gives the inter-station clock relation,
and detections are attributed to pulses by their time distance to the
nearest preceding trigger.
That trigger is read off the detection's place in the station's sorted tag
stream (the trigger tags before it) and checked against the trigger train;
only detections the check refutes are binary-searched.

Only the clock fit uses a second thread: each of its three passes splits its
chunks in two halves, the first for the calling thread and the later for the
process's one persistent worker thread (`worker.map_chunks`), each through
scratch arrays allocated on the calling thread. A chunk's partial sums come
from the same numpy calls on the same values whichever thread computes them,
and they are added in chunk order, so the fit is bit for bit that of a
serial loop. Everything else runs on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import worker
from .sim import CHANNEL_PLUS, CHANNEL_TRIGGER, PS_PER_SECOND, TagStream


# align_pulse_numbering searches lags within +-MAX_LAG pulses over the first
# ALIGN_WINDOW trigger intervals (MAX_LAG plus two default FM pattern lengths,
# 2 x 127 bits x 100 pulses). The winning correlation must reach MIN_CORR and
# exceed the best one away from its peak by the factor MARGIN.
MAX_LAG = 4096
ALIGN_WINDOW = MAX_LAG + 25400
MIN_CORR = 0.9
MARGIN = 1.5
# The alignment correlation's transform length: the smallest 2**i * 3**j * 5**k
# at or above ALIGN_WINDOW + MAX_LAG (2 * 3**3 * 5**4), so that no circular
# term of two series of at most ALIGN_WINDOW values wraps into +-MAX_LAG.
ALIGN_NFFT = 33_750
FIT_CHUNK = 1 << 15  # matched trigger pairs per step of each fit_clock_relation pass
MAX_RATE_OFFSET = 1e-3  # ClockFit refuses |rate_ratio - 1| at or beyond this
# fit_clock_relation refuses a residual_rms above MAX_RESIDUAL_RATIO times the
# expected residual it is given. An intact run's residual over n matched pairs
# is the expected one within a relative 1/sqrt(2n): under 1 % for the 12,700
# or more pairs of the FM pattern alignment needs. The rounding of two 1 ps
# stamps (1/sqrt(6) ps expected) keeps them within 1 ps of each other, below
# 3/sqrt(6) = 1.22 ps, so ideal clocks stay under the gate too. One trigger
# lost or gained moves every later pair by a whole period (2 us by default),
# 10**2 to 10**4 times the expected residual.
MAX_RESIDUAL_RATIO = 3.0


def percentile(values: np.ndarray, q, overwrite_input: bool = False) -> np.ndarray:
    """Linear-interpolation percentile(s) `q` (in %) of `values`.

    Equal to np.percentile(values, q) and, for integer-valued values, at
    q = 50 to np.median(values): the mean of the two middle values is then
    exact either way. Built on np.partition because np.percentile and
    np.median import numpy.ma on their first call, which takes 11-18 ms of a
    fresh process on a two-core VM (numpy 2.4). `values` is copied once, to
    float64, and that copy is partitioned in place; the caller's array is
    left as it is. With `overwrite_input`, `values` itself is partitioned
    (reordered) instead, and only the order statistics are converted to
    float64, which gives the same result without the copy.
    """
    x = values if overwrite_input else np.array(values, dtype=np.float64)
    index = (x.size - 1) * (np.asarray(q, dtype=np.float64) / 100)
    lo = np.floor(index).astype(np.intp)
    hi = np.minimum(lo + 1, x.size - 1)
    x.partition(np.concatenate([lo.ravel(), hi.ravel()]))
    a, b = x[lo].astype(np.float64), x[hi].astype(np.float64)
    t = index - lo
    # interpolated from the nearer end, as np.percentile does
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)[()]


def runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices, [start, stop), of each run of equal
    consecutive values in the 1-D array `x`, in order."""
    x = np.asarray(x)
    edges = np.flatnonzero(x[1:] != x[:-1]) + 1
    if x.size == 0:
        return edges, edges
    return np.concatenate(([0], edges)), np.concatenate((edges, [x.size]))


class SyncError(Exception):
    """Synchronization failure (not enough data, no pattern, ambiguity)."""


class PatternAbsentError(SyncError):
    """The trigger intervals carry no usable frequency modulation."""


class AlignmentAmbiguousError(SyncError):
    """No correlation lag meets the uniqueness margin."""


class ClockFitError(SyncError, ValueError):
    """The fitted clock relation is implausible (rate far from 1, or a
    residual that is not finite or far above the expected one); the run
    cannot be synchronized."""


@dataclass(frozen=True)
class ClockFit:
    """Affine relation t_B = time_offset + rate_ratio * t_A over matched triggers."""

    pulse_offset: int
    time_offset: float
    rate_ratio: float
    residual_rms: float

    def __post_init__(self) -> None:
        if abs(self.rate_ratio - 1.0) >= MAX_RATE_OFFSET:
            raise ClockFitError(f"rate_ratio {self.rate_ratio} implausibly far from 1")
        if not np.isfinite(self.residual_rms):
            raise ClockFitError("residual_rms must be finite")


@dataclass
class Detections:
    """Pulse-attributed detections for one station, as parallel arrays sorted
    by (pulse_number, intra_ps)."""

    minus: np.ndarray  # uint8: 0 for the + detector, 1 for the - detector
    pulse_number: np.ndarray  # int64
    intra_ps: np.ndarray  # int64 picoseconds since the pulse start
    dropped_before_first: int = 0
    dropped_after_last: int = 0

    def __len__(self) -> int:
        return int(self.pulse_number.size)


def extract_period_series(times: np.ndarray) -> np.ndarray:
    """Consecutive differences of one station's trigger timestamps, as int64
    picoseconds; interval k starts at pulse k."""
    if times.size < 2:
        raise SyncError(f"need at least 2 trigger tags, got {times.size}")
    intervals = np.diff(np.asarray(times, dtype=np.int64))
    if intervals.min() <= 0:
        raise SyncError("trigger intervals must be positive")
    return intervals


def _binarize(intervals_ps: np.ndarray) -> np.ndarray:
    """Two-level interval sequence as +-1, or PatternAbsentError.

    The threshold is the midpoint of the 10th/90th percentiles: halfway
    between the short and long FM period levels, so per-tag jitter cannot flip
    samples (the median itself sits ON the majority level). Like the median,
    the midpoint scales with any clock-rate factor, so binarization is immune
    to drift.
    """
    iv = intervals_ps.astype(np.float64)
    lo, med, hi = percentile(iv, [10.0, 50.0, 90.0])
    if med <= 0 or (hi - lo) / med < 5e-3:
        raise PatternAbsentError(
            "trigger intervals are constant to within 0.5%; no FM pattern to align on"
        )
    return np.where(iv > 0.5 * (lo + hi), 1.0, -1.0)


def _xcorr(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation c(lag) = sum_k a[k+lag]*b[k] of two +-1 series of at
    most ALIGN_WINDOW values, at lags -MAX_LAG..MAX_LAG only.

    Returns (lags, c), c as float64 integers: the ALIGN_NFFT-point circular
    correlation holds no wrapped term at these lags, and rounding it gives
    the exact sums, whatever the transform length.
    """
    fa = np.fft.rfft(a, ALIGN_NFFT)
    fb = np.fft.rfft(b, ALIGN_NFFT)
    c = np.fft.irfft(fa * np.conj(fb), ALIGN_NFFT)
    lags = np.arange(-MAX_LAG, MAX_LAG + 1)
    return lags, np.rint(c[lags])


def align_pulse_numbering(triggers_a: np.ndarray, triggers_b: np.ndarray) -> int:
    """Pulse offset such that B's pulse k lines up with A's pulse k + offset.

    The interval series of each station's first ALIGN_WINDOW + 1 trigger
    timestamps (ps) are binarized against their own two-level midpoint (see
    _binarize) and cross-correlated; the winning lag within +-MAX_LAG must
    reach MIN_CORR and exceed the best correlation outside the main peak's
    neighborhood by MARGIN, otherwise AlignmentAmbiguousError is raised.

    Requires both series to span at least one full FM pattern.
    """
    a = _binarize(extract_period_series(triggers_a[: ALIGN_WINDOW + 1]))
    b = _binarize(extract_period_series(triggers_b[: ALIGN_WINDOW + 1]))

    lags, raw = _xcorr(a, b)
    overlap = np.minimum(a.size, b.size + lags) - np.maximum(0, lags)
    valid = overlap > 0  # lag 0 among them: a and b hold at least one value each
    corr = np.full(lags.size, -np.inf)
    corr[valid] = raw[valid] / overlap[valid]

    best_i = int(np.argmax(corr))
    best = float(corr[best_i])
    starts, stops = runs(b)
    exclusion = 3 * max(int(percentile(stops - starts, 50.0)), 1)
    outside = valid & (np.abs(lags - lags[best_i]) > exclusion)
    second = float(np.max(corr[outside])) if np.any(outside) else -np.inf

    if best < MIN_CORR or (second > 0 and best < MARGIN * second):
        raise AlignmentAmbiguousError(
            f"alignment peak {best:.3f} (second best {second:.3f}) fails the "
            f"uniqueness margin (need >= {MIN_CORR} and {MARGIN}x second best)"
        )
    return int(lags[best_i])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product without BLAS. A threaded BLAS dot hands every chunk to its
    worker threads; on a 2-core virtual machine that had been idle, that
    stretched a 5 M-pair fit from 0.1 s to 1 s."""
    return float(np.einsum("i,i->", a, b))


def fit_clock_relation(
    triggers_a: np.ndarray,
    triggers_b: np.ndarray,
    pulse_offset: int,
    expected_rms: float | None = None,
) -> ClockFit:
    """Least-squares affine fit of B's trigger times (ps) against A's.

    Matches B's trigger k with A's trigger k + pulse_offset. The constant
    trigger-vs-photon path delay is per-station configuration and is NOT
    absorbed here; it is subtracted later, when detections are assigned to
    pulses.

    The fit makes three passes over FIT_CHUNK pairs at a time (means, centred
    sums, residual), so its memory does not grow with the run. Each pass reads
    x, A's time since the first matched A trigger, and z = y - x, where y is
    B's time since the first matched B trigger, both as exact int64
    picoseconds. Fitting z = c + (rate_ratio - 1) * x keeps the slope's
    rounding error relative to the drift, not to 1.

    FIT_CHUNK is read at each call. Each pass runs on two threads, and its
    per-chunk results are combined in chunk order (see the module docstring).

    Given `expected_rms`, the residual an intact run has (seconds), a
    residual_rms above MAX_RESIDUAL_RATIO times it raises ClockFitError
    naming both: the triggers do not follow one clock relation.
    """
    k0 = max(0, -pulse_offset)
    k1 = min(triggers_b.size, triggers_a.size - pulse_offset)
    if k1 - k0 < 10:
        raise SyncError(f"only {max(0, k1 - k0)} matched trigger pairs; need >= 10")
    ta = np.asarray(triggers_a, dtype=np.int64)[k0 + pulse_offset : k1 + pulse_offset]
    tb = np.asarray(triggers_b, dtype=np.int64)[k0:k1]
    n, chunk = ta.size, FIT_CHUNK
    x0, z0 = int(ta[0]), int(tb[0]) - int(ta[0])
    m = min(n, chunk)
    # one scratch set per thread: three int64 and three float64 rows
    scratch = [(np.empty((3, m), np.int64), np.empty((3, m), np.float64)) for _ in range(2)]

    def pairs(start, stop, ints):
        """x and z of pairs start..stop as int64 picoseconds, in rows 0 and 1 of `ints`."""
        x, z = ints[:2, : stop - start]
        np.subtract(tb[start:stop], ta[start:stop], out=z)
        z -= z0
        np.subtract(ta[start:stop], x0, out=x)
        return x, z

    def sums(start, stop, buffers):
        x, z = pairs(start, stop, buffers[0])
        return x.sum(dtype=np.float64), z.sum(dtype=np.float64)

    parts = worker.map_chunks(sums, n, chunk, scratch)
    xm = math.fsum(sx for sx, _ in parts) / n
    zm = math.fsum(sz for _, sz in parts) / n

    def centred(start, stop, buffers):
        x, z = pairs(start, stop, buffers[0])
        dx, dz = buffers[1][:2, : x.size]
        np.subtract(x, xm, out=dx)
        np.subtract(z, zm, out=dz)
        return _dot(dx, dx), _dot(dx, dz)

    # added one by one in chunk order; sum() compensates from Python 3.12 on
    sxx = sxz = 0.0
    for pxx, pxz in worker.map_chunks(centred, n, chunk, scratch):
        sxx += pxx
        sxz += pxz
    if sxx == 0.0:
        raise ClockFitError("all matched A triggers share one timestamp")
    drift = sxz / sxx

    # A residual can be tiny against drift * x (0.3 ps of tag rounding against
    # 1e11 ps over a 200 s run), so drift * x is split: drift_hi (24 significant
    # bits) times x_hi (x with its low 24 bits cleared) is exact for x below
    # 2**53 ps (2.5 h), and only the small rest, drift_hi * (x - x_hi) +
    # drift_lo * x, is rounded.
    drift_hi = float(np.float32(drift))
    drift_lo = drift - drift_hi
    line_at_0 = zm - drift * xm

    def residual(start, stop, buffers):
        x, z = pairs(start, stop, buffers[0])
        x_hi = buffers[0][2, : x.size]
        r, rest, lo = buffers[1][:, : x.size]
        np.bitwise_and(x, ~np.int64(0xFFFFFF), out=x_hi)
        np.multiply(drift_hi, x_hi, out=r)
        np.subtract(z, r, out=r)  # z - drift_hi * x_hi
        np.subtract(x, x_hi, out=x_hi)
        np.multiply(drift_hi, x_hi, out=rest)
        np.multiply(drift_lo, x, out=lo)
        rest += lo  # drift_hi * (x - x_hi) + drift_lo * x
        r -= rest
        r -= line_at_0
        return _dot(r, r)

    sq = 0.0
    for part in worker.map_chunks(residual, n, chunk, scratch):
        sq += part
    # t_B = tb0 + x + z, with x = t_A - ta0 and z = zm + drift * (x - xm)
    intercept_ps = z0 + zm - drift * (x0 + xm)
    fit = ClockFit(
        pulse_offset=int(pulse_offset),
        time_offset=intercept_ps / PS_PER_SECOND,
        rate_ratio=1.0 + drift,
        residual_rms=math.sqrt(sq / n) / PS_PER_SECOND,
    )
    if expected_rms is not None and fit.residual_rms > MAX_RESIDUAL_RATIO * expected_rms:
        raise ClockFitError(
            f"clock fit residual_rms {fit.residual_rms:.3g} s exceeds "
            f"{MAX_RESIDUAL_RATIO:g} x the expected residual {expected_rms:.3g} s: "
            "the triggers do not follow one clock relation"
        )
    return fit


def assign_to_pulses(
    stream: TagStream,
    triggers_ps: np.ndarray,
    delay_ps: int,
) -> Detections:
    """Attribute the detection tags of `stream` to the latest trigger at or
    before them.

    `stream` is one station's whole tag stream; its trigger tags are skipped,
    neither assigned nor dropped. The configured trigger-vs-photon path delay,
    `delay_ps` (`ExperimentConfig.trigger_delays_ps`), is subtracted from each
    detection timestamp first, so intra_ps is measured from the pulse start as
    seen by the photons. Detections preceding the first trigger, or trailing
    the last pulse by at least one median period, are dropped and counted, not
    fatal.

    The `j`-th detection (from 0) sits at stream position `pos[j]`, behind
    `pos[j] - j` trigger tags, so its pulse is guessed as `pos[j] - j - 1`
    (at most the last trigger's index). The guess stands where its two
    neighbouring triggers bracket the detection, `triggers_ps[idx] <=
    t - delay_ps < triggers_ps[idx + 1]`. Only the rest are binary-searched:
    detections the delay moves back across their trigger, ties with a trigger
    at delay 0, and every detection of a stream without trigger tags. The
    pulse is therefore `searchsorted(triggers_ps, t - delay_ps, "right") - 1`
    for any sorted `triggers_ps`.
    """
    triggers_ps = np.asarray(triggers_ps, dtype=np.int64)
    n_trig = triggers_ps.size
    if n_trig == 0:
        raise SyncError("no triggers to assign against")
    pos = np.flatnonzero(stream.channels != CHANNEL_TRIGGER)
    ch = stream.channels[pos]
    shifted = stream.times_ps[pos] - np.int64(delay_ps)

    # kept: a plain searchsorted made perfbench analyze_s 9 % slower on
    # hardware_run and 11 % on session_files (seed 1, 10 pairs, 2 cores)
    idx = pos - np.arange(1, pos.size + 1)
    np.minimum(idx, n_trig - 1, out=idx)
    start = triggers_ps[np.maximum(idx, 0)]
    ok = (start <= shifted) | (idx < 0)
    ok &= (shifted < triggers_ps[np.minimum(idx + 1, n_trig - 1)]) | (idx == n_trig - 1)
    miss = np.flatnonzero(~ok)
    idx[miss] = np.searchsorted(triggers_ps, shifted[miss], side="right") - 1
    start[miss] = triggers_ps[np.maximum(idx[miss], 0)]
    before = idx < 0

    intra_ps = shifted - start
    after = (idx == n_trig - 1) & (n_trig > 1)
    if np.any(after):  # the median period matters only in the last pulse
        after &= intra_ps >= percentile(np.diff(triggers_ps), 50.0, overwrite_input=True)

    keep = ~(before | after)
    return Detections(
        minus=(ch[keep] != CHANNEL_PLUS).astype(np.uint8),
        pulse_number=idx[keep],
        intra_ps=intra_ps[keep],
        dropped_before_first=int(np.count_nonzero(before)),
        dropped_after_last=int(np.count_nonzero(after)),
    )
