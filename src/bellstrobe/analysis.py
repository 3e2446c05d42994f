"""Stroboscopic reconstruction: per-slot counting statistics, correlators,
S(t), eta(t), their product, significance gating, plateau summaries and the
transient detector.

Slots are anchored at the pulse start (slot 0 begins at intra-pulse time 0)
and cover one full base pumping period, including the off phase. Slot widths
and intra-pulse times are integer picoseconds, so a time on a slot boundary
starts the later slot. Slots with no counts stay undefined and are excluded
from averages, never zero-filled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .coinc import Coincidences, delta_t_histogram
from .model import OUTCOME_LABELS, OUTCOME_ORDER, OUTCOME_PARITY
from .sim import PS_PER_SECOND
from .sync import Detections, percentile, runs

DETECTOR_KEYS = ("A+", "A-", "B+", "B-")
SEARCH_TAUS = 2.0  # detect_transient searches the first SEARCH_TAUS * tau of a pulse
# DETECTOR_OUTCOMES[d, o] is 1 when detector DETECTOR_KEYS[d] fired in outcome o.
DETECTOR_OUTCOMES = np.array(
    [[int(pair[station] == sign) for pair in OUTCOME_ORDER]
     for station in (0, 1) for sign in (1, -1)]
)


class AnalysisError(Exception):
    pass


class SessionMixError(ValueError):
    """Data from different sessions must not be accumulated together."""


@dataclass(frozen=True)
class SlotGrid:
    """Uniform intra-pulse time grid over one base pumping period, with the
    slot width in integer picoseconds."""

    slot_ps: int
    n_slots: int

    def __post_init__(self) -> None:
        if self.slot_ps <= 0 or self.n_slots < 1:
            raise ValueError("slot_ps must be positive and n_slots >= 1")

    @classmethod
    def for_period(cls, slot_ps: int, period_ps: int) -> "SlotGrid":
        """Grid covering `period_ps`, which `slot_ps` must divide."""
        if period_ps % slot_ps:
            raise ValueError(
                f"slot width {slot_ps} ps does not divide the period {period_ps} ps"
            )
        return cls(slot_ps=slot_ps, n_slots=period_ps // slot_ps)

    def starts(self) -> np.ndarray:
        """Slot start times in seconds."""
        return np.arange(self.n_slots) * self.slot_ps / PS_PER_SECOND

    def centers(self) -> np.ndarray:
        """Slot center times in seconds."""
        return (np.arange(self.n_slots) + 0.5) * self.slot_ps / PS_PER_SECOND


def _slot_index(intra_ps: np.ndarray, grid: SlotGrid) -> tuple[np.ndarray, np.ndarray]:
    """Slot of each intra-pulse time, and the mask of those on the grid."""
    slots = intra_ps // grid.slot_ps
    return slots, (slots >= 0) & (slots < grid.n_slots)


def bin_singles(events: Detections, grid: SlotGrid) -> np.ndarray:
    """(2, n_slots) singles counts of one station's + and - detectors on the
    slot grid.

    Tags beyond the base period (dark counts in FM-lengthened pulses) fall off
    the grid and are not counted; they are a <~2% slice of the off phase.
    """
    slots, ok = _slot_index(events.intra_ps, grid)
    flat = slots[ok] + grid.n_slots * events.minus[ok].astype(np.int64)
    return np.bincount(flat, minlength=2 * grid.n_slots).reshape(2, grid.n_slots)


def bin_coincidences(records: Coincidences, grid: SlotGrid) -> np.ndarray:
    """(n_slots, 4) outcome counts by station A's slot; off-grid records are
    not counted."""
    slots, ok = _slot_index(records.intra_ps, grid)
    flat = slots[ok] * 4 + records.outcome[ok]
    return np.bincount(flat, minlength=grid.n_slots * 4).reshape(grid.n_slots, 4)


@dataclass
class SlotCounts:
    """The counts every session product is derived from.

    A run's counts and a session's are the same object: runs are summed with
    `+`. scan_34 uses a one-slot grid spanning the base period, so its totals
    are `coincidences.sum(axis=1) + off_grid`.
    """

    session_id: str
    grid: SlotGrid
    setting_labels: tuple[str, ...]
    setting_angles: np.ndarray  # (n_settings, 2): alpha, beta in radians
    singles: np.ndarray  # (4, n_slots), rows in DETECTOR_KEYS order
    coincidences: np.ndarray  # (n_settings, n_slots, 4) by station A's slot
    off_grid: np.ndarray  # (n_settings, 4): coincidences past the grid
    delta_t_edges: np.ndarray  # (n_bins + 1,) int64 picoseconds
    delta_t_counts: np.ndarray  # (n_bins,) B-minus-A differences

    @classmethod
    def zeros(
        cls,
        session_id: str,
        grid: SlotGrid,
        setting_labels: Sequence[str],
        setting_angles: Sequence[tuple[float, float]],
        delta_t_edges: np.ndarray,
    ) -> "SlotCounts":
        n = len(setting_labels)
        return cls(
            session_id,
            grid,
            tuple(setting_labels),
            np.asarray(setting_angles, dtype=np.float64),
            np.zeros((4, grid.n_slots), dtype=np.int64),
            np.zeros((n, grid.n_slots, 4), dtype=np.int64),
            np.zeros((n, 4), dtype=np.int64),
            delta_t_edges,
            np.zeros(delta_t_edges.size - 1, dtype=np.int64),
        )

    def add_run(
        self, setting: str, detections: Sequence[Detections], records: Coincidences
    ) -> None:
        """Bin one run measured at `setting` into these counts."""
        if setting not in self.setting_labels:
            raise AnalysisError(
                f"setting {setting!r} is not one of {list(self.setting_labels)}"
            )
        s = self.setting_labels.index(setting)
        for k, events in enumerate(detections):  # station A, then B
            self.singles[2 * k : 2 * k + 2] += bin_singles(events, self.grid)
        on_grid = bin_coincidences(records, self.grid)
        self.coincidences[s] += on_grid
        self.off_grid[s] += np.bincount(records.outcome, minlength=4)
        self.off_grid[s] -= on_grid.sum(axis=0)
        self.delta_t_counts += delta_t_histogram(records, self.delta_t_edges)

    def layout_differences(self, other: "SlotCounts") -> list[str]:
        """The fields the config fixes on which `other` differs from these
        counts, each by the name error messages give it."""
        return [
            text
            for name, text in (
                ("grid", "slot grid"),
                ("setting_labels", "setting labels"),
                ("setting_angles", "setting angles"),
                ("delta_t_edges", "delta_t edges"),
            )
            if not np.array_equal(getattr(self, name), getattr(other, name))
        ]

    def __add__(self, other: "SlotCounts") -> "SlotCounts":
        differ = self.layout_differences(other)
        if other.session_id != self.session_id or differ:
            same = other.session_id == self.session_id and "setting labels" not in differ
            raise SessionMixError(  # where both halves read the same, name the fields
                f"counts of session {other.session_id} (settings "
                f"{list(other.setting_labels)}) cannot join session "
                f"{self.session_id} (settings {list(self.setting_labels)})"
                + (f": {', '.join(differ)} differ" if same else "")
            )
        return replace(
            self,
            singles=self.singles + other.singles,
            coincidences=self.coincidences + other.coincidences,
            off_grid=self.off_grid + other.off_grid,
            delta_t_counts=self.delta_t_counts + other.delta_t_counts,
        )

    def totals(self) -> np.ndarray:
        """(n_settings, 4) outcome totals of every coincidence, on or past
        the grid."""
        return self.coincidences.sum(axis=1) + self.off_grid

    def save(self, path: str | Path) -> None:
        """Every field in one np.savez file (docs/output-schemas.md, counts.npz)."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        grid = arrays.pop("grid")
        with open(path, "wb") as fh:
            np.savez(fh, slot_ps=grid.slot_ps, n_slots=grid.n_slots, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "SlotCounts":
        """Counts saved by `save`; ValueError naming the first array whose
        shape disagrees with n_slots, the settings or the delta_t edges."""
        with np.load(path) as npz:
            a = {key: npz[key] for key in npz.files}
        a["grid"] = SlotGrid(int(a.pop("slot_ps")), int(a.pop("n_slots")))
        a["session_id"] = str(a["session_id"])
        a["setting_labels"] = tuple(a["setting_labels"].tolist())
        n, m, edges = len(a["setting_labels"]), a["grid"].n_slots, a["delta_t_edges"]
        for name, shape in (
            ("setting_angles", (n, 2)),
            ("singles", (4, m)),
            ("coincidences", (n, m, 4)),
            ("off_grid", (n, 4)),
            ("delta_t_edges", (edges.size,)),
            ("delta_t_counts", (edges.size - 1,)),
        ):
            if a[name].shape != shape:
                raise ValueError(f"{name} has shape {a[name].shape}, not {shape}")
        return cls(**a)


def correlator_series(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and its binomial error over the last axis of (..., 4) outcome counts
    (++, +-, -+, --).

    E = (N++ + N-- - N+- - N-+)/N, sigma = sqrt((1 - E^2)/N). A zero total
    leaves the correlator undefined (NaN), not an error.
    """
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = (c @ OUTCOME_PARITY) / n
        sig = np.sqrt(np.clip(1.0 - e * e, 0.0, None) / n)
    return e, sig


def efficiency_series(
    coincidences_with_detector: np.ndarray, singles_of_detector: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """eta = coincidences/singles, elementwise (one detector's slots, or a
    (4, n_slots) array of them), with binomial errors.

    Slots with zero singles are undefined (NaN).
    """
    c = np.asarray(coincidences_with_detector, dtype=np.float64)
    s = np.asarray(singles_of_detector, dtype=np.float64)
    eta = np.full(s.shape, np.nan)
    sig = np.full(s.shape, np.nan)
    ok = s > 0
    eta[ok] = c[ok] / s[ok]
    sig[ok] = np.sqrt(np.clip(eta[ok] * (1.0 - eta[ok]), 0.0, None) / s[ok])
    return eta, sig


def product_series(
    s: np.ndarray, sigma_s: np.ndarray, eta: np.ndarray, sigma_eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise S(t)*eta(t) with propagated errors; NaN propagates."""
    p = np.asarray(s) * np.asarray(eta)
    sig = np.sqrt((np.asarray(eta) * np.asarray(sigma_s)) ** 2
                  + (np.asarray(s) * np.asarray(sigma_eta)) ** 2)
    return p, sig


def reconstruct(singles: np.ndarray, coincidences: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E, sigma_E, S, sigma_S, eta, sigma_eta) from (4, n_slots) singles in
    DETECTOR_KEYS order and (4 settings, n_slots, 4) coincidences, or from
    both summed over the slots: (4,) and (4, 4).

    S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| over the settings in quad
    order; an undefined E leaves S undefined. eta is each detector's
    coincidences over its singles.
    """
    c = np.asarray(coincidences)
    e, sigma_e = correlator_series(c)
    s = np.abs(e[0] - e[1] + e[2] + e[3])
    sigma_s = np.sqrt((sigma_e**2).sum(axis=0))
    eta, sigma_eta = efficiency_series((c.sum(axis=0) @ DETECTOR_OUTCOMES.T).T, singles)
    return e, sigma_e, s, sigma_s, eta, sigma_eta


def significance_mask(
    coincidences: np.ndarray, min_coincidences: int = 1000
) -> np.ndarray:
    """Slots where every setting's total coincidences reach the threshold.

    Individual outcome types may fall below the threshold as long as the
    4-outcome total per setting does not.
    """
    totals = np.asarray(coincidences).sum(axis=2)  # (n_settings, n_slots)
    return totals.min(axis=0) >= min_coincidences


def in_pulse_slots(singles_total: np.ndarray) -> np.ndarray:
    """In-pulse slot mask: singles above 10x the out-of-pulse median.

    The overall median seeds the split (valid for duty cycles below 50%), then
    the threshold is refined against the median of the slots left outside.
    Counts are non-negative, so the slots at or below the median stay outside.
    """
    s = np.asarray(singles_total, dtype=np.float64)
    rough = s > 10.0 * percentile(s, 50.0)
    return s > 10.0 * percentile(s[~rough], 50.0)


@dataclass
class SlotSeries:
    """All per-slot reconstructions of one chsh_4 session's counts.
    Per-detector series are (4, n_slots) arrays with rows in DETECTOR_KEYS
    order."""

    counts: SlotCounts
    e: np.ndarray = field(init=False)  # (4, n_slots)
    sigma_e: np.ndarray = field(init=False)
    s: np.ndarray = field(init=False)  # (n_slots,)
    sigma_s: np.ndarray = field(init=False)
    eta: np.ndarray = field(init=False)  # (4, n_slots)
    sigma_eta: np.ndarray = field(init=False)
    product: np.ndarray = field(init=False)  # S(t)*eta_det(t), (4, n_slots)
    sigma_product: np.ndarray = field(init=False)
    in_pulse: np.ndarray = field(init=False)  # (n_slots,) bool, in_pulse_slots

    def __post_init__(self) -> None:
        counts = self.counts
        if len(counts.setting_labels) != 4:
            raise ValueError(
                f"S needs the 4 quad settings, got {len(counts.setting_labels)}"
            )
        self.e, self.sigma_e, self.s, self.sigma_s, self.eta, self.sigma_eta = reconstruct(
            counts.singles, counts.coincidences
        )
        self.product, self.sigma_product = product_series(
            self.s, self.sigma_s, self.eta, self.sigma_eta
        )
        self.in_pulse = in_pulse_slots(counts.singles.sum(axis=0))


@dataclass
class PlateauSummary:
    """Time-averaged in-pulse values vs the all-data (unresolved) estimates."""

    in_pulse_range: tuple[int, int]  # [start, stop) slot indices
    n_in_pulse: int
    time_avg_s: float
    time_dispersion_s: float
    all_data_s: float
    all_data_s_sigma: float
    s_consistent: bool  # |time avg - all data| < 2 sigma
    time_avg_eta: dict[str, float]
    time_dispersion_eta: dict[str, float]
    all_data_eta: dict[str, float]
    all_data_eta_sigma: dict[str, float]


def plateau_summary(series: SlotSeries) -> PlateauSummary:
    """Compare stroboscopic in-pulse averages with the all-data values.

    Time averages and dispersions (sample standard deviation over slots) run
    over the defined in-pulse slots; all-data values come from totals over the
    whole grid, so the all-data eta sees the out-of-pulse dark singles too.
    """
    mask = series.in_pulse
    if not mask.any():
        raise AnalysisError("empty in-pulse slot range")
    idx = np.flatnonzero(mask)

    s_defined = series.s[mask]
    s_defined = s_defined[~np.isnan(s_defined)]
    if s_defined.size == 0:
        raise AnalysisError("no defined S slots inside the pulse")
    time_avg_s = float(s_defined.mean())
    time_disp_s = float(s_defined.std(ddof=1)) if s_defined.size > 1 else 0.0

    counts = series.counts
    _, _, s_all, s_all_sigma, all_eta, all_eta_sig = reconstruct(
        counts.singles.sum(axis=1), counts.coincidences.sum(axis=1)
    )

    sigma_cmp = math.hypot(
        float(s_all_sigma),
        time_disp_s / math.sqrt(s_defined.size) if s_defined.size else 0.0,
    )
    consistent = abs(time_avg_s - float(s_all)) < 2.0 * sigma_cmp

    tavg_eta, tdisp_eta = [], []
    for eta in series.eta[:, mask]:
        vals = eta[~np.isnan(eta)]
        tavg_eta.append(float(vals.mean()) if vals.size else math.nan)
        tdisp_eta.append(float(vals.std(ddof=1)) if vals.size > 1 else 0.0)

    return PlateauSummary(
        in_pulse_range=(int(idx[0]), int(idx[-1]) + 1),
        n_in_pulse=int(mask.sum()),
        time_avg_s=time_avg_s,
        time_dispersion_s=time_disp_s,
        all_data_s=float(s_all),
        all_data_s_sigma=float(s_all_sigma),
        s_consistent=bool(consistent),
        time_avg_eta=dict(zip(DETECTOR_KEYS, tavg_eta)),
        time_dispersion_eta=dict(zip(DETECTOR_KEYS, tdisp_eta)),
        all_data_eta=dict(zip(DETECTOR_KEYS, all_eta.tolist())),
        all_data_eta_sigma=dict(zip(DETECTOR_KEYS, all_eta_sig.tolist())),
    )


def _weighted_mean(v: np.ndarray, s: np.ndarray) -> float:
    """Inverse-variance mean of values `v` with errors `s`."""
    w = 1.0 / s**2
    return float(np.sum(w * v) / np.sum(w))


def chi_square_vs_constant(
    values: np.ndarray, sigmas: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, int]:
    """Reduced chi-square of values against their inverse-variance mean."""
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(sigmas, dtype=np.float64)
    ok = np.isfinite(v) & np.isfinite(s) & (s > 0)
    if mask is not None:
        ok &= np.asarray(mask, dtype=bool)
    v, s = v[ok], s[ok]
    if v.size < 2:
        raise AnalysisError("need at least 2 defined slots for the flatness test")
    chi2 = float(np.sum(((v - _weighted_mean(v, s)) / s) ** 2))
    dof = v.size - 1
    return chi2 / dof, dof


@dataclass(frozen=True)
class TransientVerdict:
    kind: str  # "none", "deviation" or "not_testable"
    slot_range: tuple[int, int] | None = None  # [start, stop)
    direction: int = 0  # -1 below plateau, +1 above
    max_sigma: float = 0.0
    plateau_reference: float = math.nan
    reason: str | None = None  # why a "not_testable" session was not tested

    def to_dict(self) -> dict:
        """The `transient` block of summary.json."""
        if self.kind == "not_testable":
            return {"verdict": self.kind, "reason": self.reason}
        return {
            "verdict": self.kind,
            "slot_range": list(self.slot_range) if self.slot_range else None,
            "direction": self.direction,
            "max_sigma": self.max_sigma,
            "plateau_reference": self.plateau_reference,
        }


def detect_transient(
    values: np.ndarray,
    sigmas: np.ndarray,
    significant: np.ndarray,
    tau: float,
    slot_width: float,
    k_sigma: float = 3.0,
) -> TransientVerdict:
    """Flag a short-time deviation in a per-slot series.

    A transient requires at least ceil(tau/slot_width) CONSECUTIVE significant
    slots, all deviating from the plateau reference in the same direction by
    more than k_sigma, inside the first SEARCH_TAUS * tau after the pulse start
    (the region a light-crossing-time deviation must live in). The plateau
    reference is the inverse-variance mean of the significant slots starting
    at or after 2*tau. Of several longest such runs, the first is reported.
    Without a significant reference slot, or with fewer significant slots in
    the search window than a transient needs, the verdict is "not_testable"
    with the reason.
    """
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(sigmas, dtype=np.float64)
    sig = np.asarray(significant, dtype=bool) & np.isfinite(v) & np.isfinite(s) & (s > 0)

    min_run = math.ceil(tau / slot_width)
    window = SEARCH_TAUS * tau
    # Only slots fully contained in the window; a flagged range must lie
    # inside [pulse start, pulse start + window].
    n_search = min(v.size, int(math.floor(window / slot_width + 1e-9)))

    ref_slots = sig & (np.arange(v.size) * slot_width >= 2.0 * tau)
    if not ref_slots.any():
        return TransientVerdict(
            "not_testable", reason="no significant slots beyond 2*tau for the plateau"
        )
    plateau_reference = _weighted_mean(v[ref_slots], s[ref_slots])

    tested = sig[:n_search]
    if int(tested.sum()) < min_run:
        return TransientVerdict("not_testable", reason=(
            f"only {int(tested.sum())} significant slots in the first "
            f"{window * 1e9:.0f} ns; need {min_run} to test persistence"
        ))

    dev = np.zeros(n_search)
    dev[tested] = (v[:n_search][tested] - plateau_reference) / s[:n_search][tested]
    # +1 or -1 for a slot deviating up or down by more than k_sigma, else 0
    sign = np.where(tested & (np.abs(dev) > k_sigma), np.where(dev > 0, 1, -1), 0)
    starts, stops = runs(sign)
    length = np.where(sign[starts] != 0, stops - starts, 0)
    best = int(np.argmax(length))  # the first of the longest
    if length[best] < min_run:
        return TransientVerdict(kind="none", plateau_reference=plateau_reference)
    lo, hi = int(starts[best]), int(stops[best])
    return TransientVerdict(
        kind="deviation",
        slot_range=(lo, hi),
        direction=int(sign[lo]),
        max_sigma=float(np.max(np.abs(dev[lo:hi]))),
        plateau_reference=plateau_reference,
    )


@dataclass(frozen=True)
class ScanFit:
    amplitude: float
    visibility: float
    phase: float  # radians, modulo pi


def angle_scan_curves(
    angles: Sequence[float] | np.ndarray, counts: np.ndarray
) -> dict[str, ScanFit]:
    """Fit coincidence-vs-angle fringes for the 4 outcome types.

    `counts` has shape (n_angles, 4) in outcome order; the model per type is
    A*(1 +- V*cos 2(theta - theta0)), with + for ++/-- and - for +-/-+. The
    fit is linear in (A, A*V*cos, A*V*sin) via least squares. A non-positive
    fitted amplitude raises AnalysisError (degenerate data).
    """
    th = np.asarray(angles, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (th.size, 4):
        raise ValueError(f"counts must be (n_angles, 4), got {counts.shape}")
    if th.size < 3:
        raise AnalysisError("need at least 3 scan angles to fit a fringe")
    design = np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])
    out = {}
    for o, (label, sgn) in enumerate(zip(OUTCOME_LABELS, OUTCOME_PARITY)):
        c, *_ = np.linalg.lstsq(design, counts[:, o], rcond=None)
        if not np.isfinite(c).all() or c[0] <= 0:
            raise AnalysisError(f"degenerate fringe fit for outcome {label}")
        visibility = float(np.hypot(c[1], c[2]) / c[0])
        phase = 0.5 * math.atan2(sgn * c[2], sgn * c[1]) % math.pi
        out[label] = ScanFit(amplitude=float(c[0]), visibility=visibility, phase=phase)
    return out
