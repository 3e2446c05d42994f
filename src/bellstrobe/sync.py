"""Pulse-numbering and clock recovery from the two trigger channels alone.

The FM fingerprint carried by the inter-trigger intervals makes the relative
pulse offset between the stations recoverable without counting coincidences:
intervals are binarized against their own median (immune to clock-rate
scaling) and cross-correlated. After alignment, an affine fit of matched
trigger times gives the inter-station clock relation, and detections are
attributed to pulses by their time distance to the nearest preceding trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sim import CHANNEL_TRIGGER, PS_PER_SECOND, TagStream


class SyncError(Exception):
    """Synchronization failure (not enough data, no pattern, ambiguity)."""


class PatternAbsentError(SyncError):
    """The trigger intervals carry no usable frequency modulation."""


class AlignmentAmbiguousError(SyncError):
    """No correlation lag meets the uniqueness margin."""


class ClockFitError(SyncError, ValueError):
    """The fitted clock relation is implausible (rate far from 1, or a
    non-finite residual); the run cannot be synchronized."""


@dataclass(frozen=True)
class PeriodSeries:
    """Inter-trigger intervals in picoseconds; interval k starts at pulse k."""

    intervals_ps: np.ndarray

    def __post_init__(self) -> None:
        iv = np.asarray(self.intervals_ps, dtype=np.int64)
        object.__setattr__(self, "intervals_ps", iv)
        if iv.size and iv.min() <= 0:
            raise ValueError("intervals must be positive")

    def __len__(self) -> int:
        return int(self.intervals_ps.size)


@dataclass(frozen=True)
class ClockFit:
    """Affine relation t_B = time_offset + rate_ratio * t_A over matched triggers."""

    pulse_offset: int
    time_offset: float
    rate_ratio: float
    residual_rms: float
    n_pairs: int = 0

    def __post_init__(self) -> None:
        if abs(self.rate_ratio - 1.0) >= 1e-3:
            raise ClockFitError(f"rate_ratio {self.rate_ratio} implausibly far from 1")
        if not np.isfinite(self.residual_rms):
            raise ClockFitError("residual_rms must be finite")


@dataclass
class Detections:
    """Pulse-attributed detections for one station, as parallel arrays sorted
    by (pulse_number, intra_ps)."""

    station: str
    detector: np.ndarray  # int8, +1 / -1
    pulse_number: np.ndarray  # int64
    intra_ps: np.ndarray  # int64 picoseconds since the pulse start
    dropped_before_first: int = 0
    dropped_after_last: int = 0

    def __len__(self) -> int:
        return int(self.pulse_number.size)

    def with_pulse_offset(self, offset: int) -> "Detections":
        """Same detections renumbered into the other station's pulse frame."""
        return replace(self, pulse_number=self.pulse_number + int(offset))


def extract_period_series(times: np.ndarray) -> PeriodSeries:
    """Consecutive differences of one station's trigger timestamps (ps)."""
    if times.size < 2:
        raise SyncError(f"need at least 2 trigger tags, got {times.size}")
    return PeriodSeries(np.diff(times.astype(np.int64)))


def _binarize(intervals_ps: np.ndarray) -> np.ndarray:
    """Two-level interval sequence as +-1, or PatternAbsentError.

    The threshold is the midpoint of the 10th/90th percentiles: halfway
    between the short and long FM period levels, so per-tag jitter cannot flip
    samples (the median itself sits ON the majority level). Like the median,
    the midpoint scales with any clock-rate factor, so binarization is immune
    to drift.
    """
    iv = intervals_ps.astype(np.float64)
    lo, hi = np.percentile(iv, [10.0, 90.0])
    med = np.median(iv)
    if med <= 0 or (hi - lo) / med < 5e-3:
        raise PatternAbsentError(
            "trigger intervals are constant to within 0.5%; no FM pattern to align on"
        )
    return np.where(iv > 0.5 * (lo + hi), 1.0, -1.0)


def _xcorr_full(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw cross-correlation c(lag) = sum_k a[k+lag]*b[k] for all lags.

    Returns (lags, c) with lags from -(len(b)-1) to len(a)-1, FFT-based.
    """
    na, nb = a.size, b.size
    nfft = 1 << int(np.ceil(np.log2(na + nb - 1)))
    fa = np.fft.rfft(a, nfft)
    fb = np.fft.rfft(b, nfft)
    c = np.fft.irfft(fa * np.conj(fb), nfft)
    lags = np.arange(-(nb - 1), na)
    return lags, np.concatenate([c[nfft - (nb - 1):] if nb > 1 else c[:0], c[:na]])


def _median_run_length(bits: np.ndarray) -> int:
    changes = np.flatnonzero(np.diff(bits) != 0)
    if changes.size == 0:
        return bits.size
    edges = np.concatenate([[-1], changes, [bits.size - 1]])
    return int(np.median(np.diff(edges)))


def align_pulse_numbering(
    series_a: PeriodSeries,
    series_b: PeriodSeries,
    max_lag: int = 4096,
    min_corr: float = 0.9,
    margin: float = 1.5,
    window: int | None = None,
) -> int:
    """Pulse offset such that B's pulse k lines up with A's pulse k + offset.

    Both interval series are binarized against their own two-level midpoint
    (see _binarize) and cross-correlated; the winning lag must reach
    `min_corr` and exceed the best correlation outside the main peak's
    neighborhood by `margin`, otherwise AlignmentAmbiguousError is raised.
    Only lags within +-max_lag are searched, over the first `window` intervals
    of each series (default max_lag + 25400, enough for two default FM
    pattern lengths).

    Requires both series to span at least one full FM pattern.
    """
    if window is None:
        window = max_lag + 25400
    a = _binarize(series_a.intervals_ps[:window])
    b = _binarize(series_b.intervals_ps[:window])

    lags, raw = _xcorr_full(a, b)
    overlap = np.minimum(a.size, b.size + lags) - np.maximum(0, lags)
    valid = (np.abs(lags) <= max_lag) & (overlap > 0)
    if not np.any(valid):
        raise AlignmentAmbiguousError("no overlap within the searched lag range")
    corr = np.full(lags.size, -np.inf)
    corr[valid] = raw[valid] / overlap[valid]

    best_i = int(np.argmax(corr))
    best = float(corr[best_i])
    exclusion = 3 * max(_median_run_length(b), 1)
    outside = valid & (np.abs(lags - lags[best_i]) > exclusion)
    second = float(np.max(corr[outside])) if np.any(outside) else -np.inf

    if best < min_corr or (second > 0 and best < margin * second):
        raise AlignmentAmbiguousError(
            f"alignment peak {best:.3f} (second best {second:.3f}) fails the "
            f"uniqueness margin (need >= {min_corr} and {margin}x second best)"
        )
    return int(lags[best_i])


def fit_clock_relation(
    triggers_a: np.ndarray, triggers_b: np.ndarray, pulse_offset: int
) -> ClockFit:
    """Least-squares affine fit of B's trigger times (ps) against A's.

    Matches B's trigger k with A's trigger k + pulse_offset. The constant
    trigger-vs-photon path delay is per-station configuration and is NOT
    absorbed here; it is subtracted later, when detections are assigned to
    pulses.
    """
    ta = triggers_a.astype(np.float64) / PS_PER_SECOND
    tb = triggers_b.astype(np.float64) / PS_PER_SECOND

    k0 = max(0, -pulse_offset)
    k1 = min(tb.size, ta.size - pulse_offset)
    if k1 - k0 < 10:
        raise SyncError(f"only {max(0, k1 - k0)} matched trigger pairs; need >= 10")
    x = ta[k0 + pulse_offset : k1 + pulse_offset]
    y = tb[k0:k1]

    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    slope = float(np.dot(dx, y - ym) / np.dot(dx, dx))
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    return ClockFit(
        pulse_offset=int(pulse_offset),
        time_offset=intercept,
        rate_ratio=slope,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_pairs=int(k1 - k0),
    )


def assign_to_pulses(
    detections: TagStream,
    triggers_ps: np.ndarray,
    trigger_delay: float,
    station: str = "A",
) -> Detections:
    """Attribute detection tags to the latest trigger at or before them.

    `detections` holds detection channels only (the second part of
    TagStream.split_triggers). The configured trigger-vs-photon path delay is
    subtracted from each detection timestamp first, so intra_ps is measured
    from the pulse start as seen by the photons. Detections preceding
    the first trigger, or trailing the last pulse by at least one median
    period, are dropped and counted, not fatal.
    """
    triggers_ps = np.asarray(triggers_ps, dtype=np.int64)
    if triggers_ps.size == 0:
        raise SyncError("no triggers to assign against")
    t, ch = detections.times_ps, detections.channels
    if ch.size and ch.max() >= CHANNEL_TRIGGER:
        raise ValueError("trigger tags among detections; use TagStream.split_triggers")

    delay_ps = np.int64(round(trigger_delay * PS_PER_SECOND))
    shifted = t - delay_ps
    idx = np.searchsorted(triggers_ps, shifted, side="right") - 1
    before = idx < 0

    intra_ps = shifted - triggers_ps[np.maximum(idx, 0)]
    after = (idx == triggers_ps.size - 1) & (triggers_ps.size > 1)
    if np.any(after):  # the median period matters only in the last pulse
        after &= intra_ps >= np.median(np.diff(triggers_ps))

    keep = ~(before | after)
    detector = np.where(ch[keep] == 1, 1, -1).astype(np.int8)
    return Detections(
        station=station,
        detector=detector,
        pulse_number=idx[keep].astype(np.int64),
        intra_ps=intra_ps[keep],
        dropped_before_first=int(np.count_nonzero(before)),
        dropped_after_last=int(np.count_nonzero(after)),
    )
