"""Coincidence matching, the delta_t diagnostic histogram, and the
accidental-rate estimate.

Detections are coincident when they share a pulse number AND lie within the
coincidence window of each other (both gates; the configured window is 4 ns).
Times are integer picoseconds, so a pair exactly one window apart is always
inside. Within a pulse, pairing is greedy earliest-first, each detection used
at most once, so multi-pair pulses yield multiple records deterministically.
The per-pulse walks run together as one lockstep vectorised pass per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sync import Detections, runs


@dataclass
class Coincidences:
    """Matched pairs as parallel arrays sorted by (pulse_number, A's time)."""

    pulse_number: np.ndarray  # int64
    outcome: np.ndarray  # uint8 OUTCOME_ORDER index, 2 * minus_A + minus_B
    intra_ps: np.ndarray  # int64, A's intra-pulse time in picoseconds
    delta_t_ps: np.ndarray  # int64 picoseconds, B minus A

    def __len__(self) -> int:
        return int(self.pulse_number.size)

    @staticmethod
    def empty() -> "Coincidences":
        return Coincidences(
            np.empty(0, np.int64),
            np.empty(0, np.uint8),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )


def match_coincidences(
    events_a: Detections, events_b: Detections, window_ps: int
) -> Coincidences:
    """Pair detections across stations into coincidence records: |B - A| at
    most `window_ps` picoseconds.

    Both inputs must be sorted by (pulse_number, intra_ps) and carry a
    SHARED pulse numbering (station B renumbered via the alignment offset
    before matching). Clock-rate mismatch inside one pulse is far below the
    window and is ignored.

    The earliest-first walks of all pulses seen at both stations step in
    lockstep: at most (A + B detections of the fullest pulse) vectorised passes.
    """
    pa, pb = events_a.pulse_number, events_b.pulse_number
    ta, tb = events_a.intra_ps, events_b.intra_ps
    if pa.size == 0 or pb.size == 0:
        return Coincidences.empty()

    # Merge the two sorted lists of pulse groups.
    a_lo, a_hi = runs(pa)
    b_lo, b_hi = runs(pb)
    ga, gb = pa[a_lo], pb[b_lo]
    k = np.minimum(np.searchsorted(gb, ga), gb.size - 1)
    both = gb[k] == ga
    i, i_end = a_lo[both], a_hi[both]
    j, j_end = b_lo[k[both]], b_hi[k[both]]

    # partner[A detection] = its B detection, -1 when unpaired.
    partner = np.full(pa.size, -1, dtype=np.int64)
    while i.size:
        dt = tb[j] - ta[i]
        inside = np.abs(dt) <= window_ps
        partner[i[inside]] = j[inside]
        later = dt > 0  # this A detection can never match a later B
        i = i + (inside | later)
        j = j + (inside | ~later)
        live = (i < i_end) & (j < j_end)
        i, i_end, j, j_end = i[live], i_end[live], j[live], j_end[live]

    # A's index order is already (pulse_number, A's time) order.
    idx_a = np.flatnonzero(partner >= 0)
    idx_b = partner[idx_a]
    return Coincidences(
        pulse_number=pa[idx_a],
        outcome=2 * events_a.minus[idx_a] + events_b.minus[idx_b],
        intra_ps=ta[idx_a],
        delta_t_ps=tb[idx_b] - ta[idx_a],
    )


def accidental_estimate(
    rate_a: float, rate_b: float, window: float, duration: float
) -> float:
    """Expected chance coincidences: rate_a * rate_b * window * duration."""
    if min(rate_a, rate_b, window, duration) < 0:
        raise ValueError("all inputs must be non-negative")
    return rate_a * rate_b * window * duration


def delta_t_edges(window_ps: int) -> np.ndarray:
    """Bin edges (int64 ps) of the delta_t histogram: 24 bins of a window/8
    each, spanning -1.5 to +1.5 windows."""
    return np.arange(-12, 13, dtype=np.int64) * window_ps // 8


def delta_t_histogram(records: Coincidences, edges: np.ndarray) -> np.ndarray:
    """Diagnostic histogram of B-minus-A arrival differences over `edges` (ps).

    Its spread should match sqrt(2) x the single-detector jitter.
    """
    return np.histogram(records.delta_t_ps, bins=edges)[0]
