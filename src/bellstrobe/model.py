"""Physics of the pulsed Bell test: joint probabilities, CHSH values,
the classical-vs-quantum coincidence gap, and the parametric transient
(short-time suppression) families used to inject hypothetical deviations.

Angle convention: analyzer angles are in radians and polarizer analysis is
pi-periodic. Outcomes are dichotomic (+1 / -1) at each station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
TSIRELSON = 2.0 * math.sqrt(2.0)

# Canonical outcome order used for all 4-vectors of counts/probabilities.
OUTCOME_ORDER = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
OUTCOME_LABELS = ("++", "+-", "-+", "--")
# oa * ob of each outcome: +1 where the two stations agree.
OUTCOME_PARITY = np.array([oa * ob for oa, ob in OUTCOME_ORDER])


@dataclass(frozen=True)
class AngleSetting:
    """One joint analyzer setting: alpha at station A, beta at station B."""

    alpha: float
    beta: float

    @property
    def difference(self) -> float:
        return self.alpha - self.beta


@dataclass(frozen=True)
class SettingsQuad:
    """The four analyzer angles of a CHSH measurement (a, a' at A; b, b' at B)."""

    a: float = 0.0
    a_prime: float = math.pi / 4
    b: float = math.pi / 8
    b_prime: float = 3 * math.pi / 8

    def __post_init__(self) -> None:
        if not all(abs(x) <= 2 * math.pi for x in (self.a, self.a_prime, self.b, self.b_prime)):
            raise ValueError("analyzer angles must be within [-2 pi, 2 pi] rad")
        if self.a % math.pi == self.a_prime % math.pi:
            raise ValueError("a and a' must be distinct modulo pi")
        if self.b % math.pi == self.b_prime % math.pi:
            raise ValueError("b and b' must be distinct modulo pi")

    def settings(self) -> tuple[AngleSetting, AngleSetting, AngleSetting, AngleSetting]:
        """The four joint settings in the fixed order (a,b), (a,b'), (a',b), (a',b')."""
        return (
            AngleSetting(self.a, self.b),
            AngleSetting(self.a, self.b_prime),
            AngleSetting(self.a_prime, self.b),
            AngleSetting(self.a_prime, self.b_prime),
        )

    @property
    def labels(self) -> tuple[str, str, str, str]:
        return ("ab", "ab'", "a'b", "a'b'")


@dataclass(frozen=True)
class Geometry:
    """Straight-line station separation L and the light travel time tau = L/c."""

    distance_straight_line: float = 24.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_straight_line <= 0:
            raise ValueError("distance must be positive")
        derived = self.distance_straight_line / SPEED_OF_LIGHT
        if self.tau == 0.0:
            object.__setattr__(self, "tau", derived)
        elif abs(self.tau - derived) > 1e-12:
            raise ValueError(
                f"tau {self.tau} inconsistent with L/c = {derived} (tolerance 1 ps)"
            )


def equal_outcome_prob(
    delta: float | np.ndarray, visibility: float | np.ndarray = 1.0
) -> float | np.ndarray:
    """P(oa = ob) of the phi+ state with visibility V at angle difference
    delta: (1 + V*cos 2*delta) / 2, the one joint law. For a float delta the
    float operations are those the simulator draws outcomes with."""
    c = np.cos(2.0 * delta) if isinstance(delta, np.ndarray) else math.cos(2.0 * delta)
    return 0.5 * (1.0 + visibility * c)


def qm_coincidence_prob(delta: float | np.ndarray) -> float | np.ndarray:
    """(+,+) coincidence probability vs angle difference at V = 1:
    1/4*(1 + cos 2*delta)."""
    return 0.5 * equal_outcome_prob(delta)


def qm_joint_probs(setting: AngleSetting, visibility: float) -> np.ndarray:
    """All four joint probabilities in OUTCOME_ORDER: P(oa, ob) = 1/4 *
    [1 + oa*ob*V*cos 2(alpha - beta)], half of P(oa = ob) where the outcomes
    agree and half of its complement where they differ."""
    p = equal_outcome_prob(setting.difference, visibility)
    return 0.5 * np.where(OUTCOME_PARITY > 0, p, 1.0 - p)


def classical_coincidence_prob(delta: float | np.ndarray) -> float | np.ndarray:
    """Saw-tooth local-hidden-variable (+,+) coincidence curve.

    P_cl(delta) = 1/2 * (1 - 2*|delta|/pi) on [-pi/2, pi/2], pi-periodic;
    equivalently 1/4*(1 + E_cl) with the linear correlator E_cl = 1 - 4|delta|/pi.
    Matches the quantum curve at delta = 0, pi/4 and pi/2.
    """
    d = np.asarray(delta, dtype=float)
    folded = np.abs((d + np.pi / 2) % np.pi - np.pi / 2)
    return 0.5 * (1.0 - 2.0 * folded / np.pi)


def qm_classical_gap() -> float:
    """Quantum-classical coincidence-probability difference at the CHSH settings.

    Evaluated at the angle differences pi/8 and 3*pi/8, where the difference is
    |cos(pi/4) - 1/2| / 4 ~= 0.052 (equal at both, by symmetry).
    """
    deltas = (math.pi / 8, 3 * math.pi / 8)
    gaps = [
        abs(float(qm_coincidence_prob(d)) - float(classical_coincidence_prob(d)))
        for d in deltas
    ]
    return gaps[0]


def scan_qm_classical_gap(step: float = 1e-4) -> float:
    """Brute-force |QM - classical| scan of the angle difference over [0, pi/2)."""
    if step <= 0:
        raise ValueError("step must be positive")
    d = np.arange(0.0, math.pi / 2, step)
    return float(np.max(np.abs(qm_coincidence_prob(d) - classical_coincidence_prob(d))))


def min_counts_for_gap(gap: float, k_sigma: float) -> int:
    """Coincidence count N at which gap*N = k_sigma*sqrt(N), rounded up.

    This is the statistics floor for resolving a probability difference `gap`
    at k_sigma significance: N = ceil((k_sigma/gap)^2).
    """
    if gap <= 0:
        raise ValueError(f"gap must be positive, got {gap}")
    if k_sigma <= 0:
        raise ValueError(f"k_sigma must be positive, got {k_sigma}")
    return math.ceil((k_sigma / gap) ** 2)


def visibility_from_contrast(contrast: float) -> float:
    """Fringe visibility from polarizer contrast ratio: V = (C-1)/(C+1)."""
    if contrast <= 1:
        raise ValueError(f"contrast must exceed 1, got {contrast}")
    return (contrast - 1.0) / (contrast + 1.0)


def chsh_ideal(visibility: float) -> float:
    """CHSH value at the optimal settings quad: S = 2*sqrt(2)*V."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return TSIRELSON * visibility


@dataclass(frozen=True)
class TransientModel:
    """Parametric family of hypothetical short-time deviations.

    mode "none" reproduces plain quantum statistics. The other modes suppress
    the efficiency-normalized product S(t) * eta(t)/eta0 to at most
    `floor_product` for t <= tau, then relax back to the quantum values with
    timescale `theta`: a plain exponential approach ("monotone") or an
    exponentially damped cosine with period `osc_period` ("oscillatory").

    `eta_share` splits the suppression between the correlation channel
    (s_factor, default: all of it) and the efficiency channel (eta_factor).
    `inter_pulse_memory` > 0 carries a fraction of the previous pulse's
    residual suppression into the next pulse (a hook for relaxing the
    independent-pulses assumption); see transient_factors.
    """

    mode: str = "none"
    tau: float = 80e-9
    theta: float = 80e-9
    osc_period: float | None = None
    floor_product: float = 2.0
    eta_share: float = 0.0
    inter_pulse_memory: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "monotone", "oscillatory"):
            raise ValueError(f"unknown transient mode {self.mode!r}")
        if self.mode != "none":
            if self.tau <= 0 or self.theta <= 0:
                raise ValueError("tau and theta must be positive")
            if self.floor_product <= 0:
                raise ValueError("floor_product must be positive")
        if self.mode == "oscillatory":
            if self.osc_period is None or self.osc_period <= self.tau:
                raise ValueError("oscillatory mode requires osc_period > tau")
        if not 0.0 <= self.eta_share <= 1.0:
            raise ValueError("eta_share must be in [0, 1]")
        if not 0.0 <= self.inter_pulse_memory <= 1.0:
            raise ValueError("inter_pulse_memory must be in [0, 1]")


def _relaxation(t: np.ndarray, model: TransientModel, suppression: float) -> np.ndarray:
    """Total factor F(t) on the normalized product: F0 until tau, then relax to 1."""
    f = np.full_like(t, suppression)
    late = t > model.tau
    if np.any(late):
        dt = t[late] - model.tau
        envelope = (1.0 - suppression) * np.exp(-dt / model.theta)
        if model.mode == "monotone":
            f[late] = 1.0 - envelope
        else:
            f[late] = 1.0 - envelope * np.cos(2.0 * np.pi * dt / model.osc_period)
    return f


def carried_deficit(model: TransientModel, pulse_duration: float, gap: np.ndarray) -> np.ndarray:
    """Suppression deficit carried across pulses when inter_pulse_memory > 0.

    One-pulse-memory approximation: the deviation still present at the end of
    a pulse of the given duration decays exponentially over the inter-pulse
    gap, and a fraction inter_pulse_memory of it re-enters the next pulse.
    A relaxation that ends above its baseline (an oscillatory overshoot)
    carries nothing.
    """
    if model.mode == "none" or model.inter_pulse_memory == 0.0:
        return np.zeros_like(gap, dtype=float)
    # Suppression depth is independent of V here; callers pass the deficit on
    # the normalized product, which transient_factors rescales via its own F0.
    end = _relaxation(np.array([pulse_duration]), model, 0.0)[0]
    deficit = model.inter_pulse_memory * (1.0 - end) * np.exp(-gap / model.theta)
    return np.maximum(deficit, 0.0)


def transient_factors(
    t: np.ndarray,
    model: TransientModel,
    eta0: float,
    visibility: float,
    carried: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative deviation factors at time t after the pulse start.

    Returns (s_factor, eta_factor): s_factor scales the correlation visibility,
    eta_factor the detection efficiency. With mode "none" both are 1. Otherwise
    the efficiency-normalized product 2*sqrt(2)*V*s_factor*eta_factor is held at
    min(floor_product, QM value) for t <= tau and relaxes to the QM value for
    t >> tau. eta_factor is capped so eta0*eta_factor never exceeds 1 (the
    oscillatory mode can overshoot the quantum baseline). A `carried` deficit
    c >= 0 (see carried_deficit) lowers the factor on the product by
    c*(1 - F0)*exp(-t/theta), F0 being its floor, and never below 0.

    Takes an array of times and returns two arrays of its shape.
    """
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    carried_arr = np.asarray(carried, dtype=float)
    if np.any(carried_arr < 0.0):
        raise ValueError("carried must be >= 0")
    if model.mode == "none":
        ones = np.ones_like(t)
        return ones, ones

    qm_product = TSIRELSON * visibility
    suppression = min(1.0, model.floor_product / qm_product) if qm_product > 0 else 1.0
    f = _relaxation(t, model, suppression)

    if np.any(carried_arr > 0.0):
        # Carried-over deviation from the previous pulse (see carried_deficit),
        # rescaled to this pulse's depth and added to its deficit. Deepening
        # only, so the floor holds.
        f = f - carried_arr * (1.0 - suppression) * np.exp(-t / model.theta)
        np.maximum(f, 0.0, out=f)

    eta_factor = f**model.eta_share
    s_factor = f ** (1.0 - model.eta_share)
    if eta0 > 0:
        np.minimum(eta_factor, 1.0 / eta0, out=eta_factor)
    return s_factor, eta_factor
