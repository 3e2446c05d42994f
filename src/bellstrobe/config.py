"""Experiment configuration: one JSON-serializable structure covering the
source, both stations, the pulse plan, the session layout and the analysis
parameters. Defaults are the headline experimental values (L = 24 m, 500 ns
pulses at 500 kHz, 4 ns slots and window, 30 s runs, 32 runs per experiment).

Desk-scale presets for fast simulated sessions live at the bottom.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sync as sy
from .model import Geometry, SettingsQuad, TransientModel
from .sim import KEY_RANGE_PS, PS_PER_SECOND, PulsePlan, SourceConfig, StationConfig

SCHEMA_VERSION = 1
MAX_SLOTS = 1 << 16  # slots per base period in chsh_4 mode
GAUSS_REACH = 10.0  # standard deviations a Gaussian draw is taken to stay within


class ConfigError(ValueError):
    pass


def to_ps(seconds: float, name: str) -> int:
    """A configured time in seconds as the integer picoseconds the pipeline
    works in, from tag to slot; ConfigError unless it is finite, within
    int64 and a whole number."""
    if not abs(seconds * PS_PER_SECOND) < 2.0**63:  # NaN fails too
        raise ConfigError(f"{name} {seconds} s is not a finite time within int64 picoseconds")
    ps = round(seconds * PS_PER_SECOND)
    if abs(seconds * PS_PER_SECOND - ps) > 1e-3:
        raise ConfigError(f"{name} {seconds} s is not a whole number of picoseconds")
    return ps


@dataclass(frozen=True)
class SessionPlan:
    """Run/experiment/session structure.

    chsh_4 cycles the 4 quad settings; scan_34 sweeps scan_points analyzer
    angles at station B with station A fixed. runs_per_experiment must be a
    multiple of the number of distinct settings in the cycle.
    """

    run_duration: float = 30.0
    runs_per_experiment: int = 32
    mode: str = "chsh_4"
    dead_time: float = 80.0
    glitch_probability: float = 0.0
    scan_points: int = 34

    def __post_init__(self) -> None:
        if self.mode not in ("chsh_4", "scan_34"):
            raise ConfigError(f"unknown session mode {self.mode!r}")
        if self.mode == "scan_34" and self.scan_points < 3:  # a fringe fit needs 3 angles
            raise ConfigError(
                f"session.scan_points must be at least 3 in scan_34 mode, got {self.scan_points}"
            )
        if not 0 < self.run_duration * PS_PER_SECOND < 2.0**63:  # NaN fails too
            raise ConfigError("run_duration must be positive and within int64 picoseconds")
        if self.dead_time < 0:
            raise ConfigError("dead_time must be >= 0")
        n = 4 if self.mode == "chsh_4" else self.scan_points
        if self.runs_per_experiment < n or self.runs_per_experiment % n:
            raise ConfigError(
                f"runs_per_experiment must be a multiple of {n} for {self.mode}"
            )
        if not 0.0 <= self.glitch_probability < 1.0:
            raise ConfigError("glitch_probability must be in [0, 1)")


@dataclass(frozen=True)
class AnalysisParams:
    slot_width: float = 4e-9
    window: float = 4e-9
    k_sigma: float = 3.0
    min_coincidences: int = 1000

    def __post_init__(self) -> None:
        if self.slot_ps <= 0 or self.window_ps <= 0:
            raise ConfigError("slot_width and window must be positive")

    @property
    def slot_ps(self) -> int:
        return to_ps(self.slot_width, "analysis.slot_width")

    @property
    def window_ps(self) -> int:
        return to_ps(self.window, "analysis.window")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: Geometry = field(default_factory=Geometry)
    visibility: float = 0.980198  # 1:100 polarizer contrast
    pulses: PulsePlan = field(default_factory=PulsePlan)
    source: SourceConfig = field(default_factory=SourceConfig)
    station_a: StationConfig = field(default_factory=StationConfig)
    station_b: StationConfig = field(default_factory=StationConfig)
    session: SessionPlan = field(default_factory=SessionPlan)
    analysis: AnalysisParams = field(default_factory=AnalysisParams)
    quad: SettingsQuad = field(default_factory=SettingsQuad)
    master_seed: int = 1

    def __post_init__(self) -> None:
        if self.pulses.pulse_duration < 5.0 * self.geometry.tau:
            raise ConfigError(
                f"pulse duration {self.pulses.pulse_duration} below 5*tau = "
                f"{5.0 * self.geometry.tau} for L = "
                f"{self.geometry.distance_straight_line} m"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError("visibility must be in [0, 1]")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        self.trigger_delays_ps  # ConfigError unless both are whole picoseconds
        drift_a, drift_b = self.station_a.clock.drift_rate, self.station_b.clock.drift_rate
        ratio = (1.0 + drift_b) / (1.0 + drift_a)  # the rate sync.fit_clock_relation fits
        if abs(ratio - 1.0) >= sy.MAX_RATE_OFFSET:
            raise ConfigError(
                f"station_a.clock.drift_rate {drift_a:g} and station_b.clock.drift_rate "
                f"{drift_b:g} give a clock rate ratio of {ratio:.9g}, {sy.MAX_RATE_OFFSET:g} "
                "or more from 1, which the clock fit refuses"
            )
        period_ps, slot_ps = self.period_ps, self.analysis.slot_ps
        if self.session.mode == "chsh_4" and period_ps % slot_ps:
            raise ConfigError(
                f"analysis.slot_width ({slot_ps} ps) does not divide "
                f"pulses.base_period ({period_ps} ps)"
            )
        if self.session.mode == "chsh_4" and period_ps // slot_ps > MAX_SLOTS:
            raise ConfigError(
                f"analysis.slot_width ({slot_ps} ps) cuts pulses.base_period "
                f"({period_ps} ps) into {period_ps // slot_ps} slots, more than {MAX_SLOTS}"
            )
        # every tag's local time must lie in [0, KEY_RANGE_PS): tag files
        # hold no negative time, and the simulator's sort key none beyond.
        # A run's true times span from its first trigger at 0, or an earlier
        # detection (the trigger delay less the detector jitter), to its
        # pulses at the longer FM period, the last pulse, the delay and the
        # jitter. The delay is named where the clock alone keeps the run in
        # range
        n_pulses, plan = self.pulses_per_run(), self.pulses
        run = n_pulses * plan.base_period * (1.0 + plan.fm_lengthen_fraction)
        run += plan.pulse_duration
        for name in ("station_a", "station_b"):
            station = getattr(self, name)
            clock, delay = station.clock, station.trigger_delay
            scale, reach = 1.0 + clock.drift_rate, GAUSS_REACH * station.detector_jitter_sigma
            lo = clock.offset - GAUSS_REACH * clock.jitter_sigma
            hi = clock.offset + scale * run + GAUSS_REACH * clock.jitter_sigma
            clock_fits = 0.0 <= lo and hi * PS_PER_SECOND < KEY_RANGE_PS
            lo += scale * min(0.0, delay - reach)
            hi += scale * max(0.0, delay + reach)
            if not (0.0 <= lo and hi * PS_PER_SECOND < KEY_RANGE_PS):  # NaN fails too
                cause = (
                    f"{name}.trigger_delay {delay:g} s and detector_jitter_sigma "
                    f"{station.detector_jitter_sigma:g} s"
                    if clock_fits
                    else f"{name}.clock.offset {clock.offset:g} s, drift_rate "
                    f"{clock.drift_rate:g} and jitter_sigma {clock.jitter_sigma:g} s"
                )
                raise ConfigError(
                    f"{cause} put a run's local times in [{lo:.4g}, {hi:.4g}] s, outside "
                    f"the [0, {KEY_RANGE_PS / PS_PER_SECOND:.4g}) s a tag file and the "
                    "simulator's int64 tag key hold"
                )
        # sync aligns the stations on a run's first ALIGN_WINDOW + 1 triggers:
        # refuse a pulse plan whose ideal trigger train there has no FM pattern
        starts = self.pulses.start_times(min(n_pulses, sy.ALIGN_WINDOW + 1))
        try:
            sy._binarize(sy.extract_period_series(np.rint(starts * PS_PER_SECOND)))
        except sy.SyncError as exc:
            raise ConfigError(
                f"a run of {n_pulses} pulses at pulses.fm_pulses_per_bit "
                f"{self.pulses.fm_pulses_per_bit} cannot be aligned: {exc}"
            ) from exc

    @property
    def period_ps(self) -> int:
        """The base pulse period in picoseconds."""
        return to_ps(self.pulses.base_period, "pulses.base_period")

    @property
    def trigger_delays_ps(self) -> tuple[int, int]:
        """Stations A and B's trigger-vs-photon path delays in picoseconds."""
        return (
            to_ps(self.station_a.trigger_delay, "station_a.trigger_delay"),
            to_ps(self.station_b.trigger_delay, "station_b.trigger_delay"),
        )

    def pulses_per_run(self) -> int:
        return max(1, round(self.session.run_duration / self.pulses.base_period))

    def setting_labels(self) -> list[str]:
        if self.session.mode == "chsh_4":
            return list(self.quad.labels)
        return [f"scan{i:02d}" for i in range(self.session.scan_points)]

    def setting_angles(self) -> dict[str, tuple[float, float]]:
        """label -> (alpha, beta) for every setting in the session."""
        if self.session.mode == "chsh_4":
            return {
                lab: (s.alpha, s.beta)
                for lab, s in zip(self.quad.labels, self.quad.settings())
            }
        betas = np.linspace(0.0, math.pi, self.session.scan_points, endpoint=False)
        return {
            f"scan{i:02d}": (self.quad.a, float(b)) for i, b in enumerate(betas)
        }

    def run_settings(self) -> list[str]:
        """Setting label per run, cycling through the settings."""
        labels = self.setting_labels()
        return [
            labels[i % len(labels)] for i in range(self.session.runs_per_experiment)
        ]

    def session_id(self) -> str:
        """Stable identifier binding data files to one config + seed."""
        digest = hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        return digest[:12]

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "schema_version": SCHEMA_VERSION}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The inverse of `to_dict` (see `_decode`)."""
        if not isinstance(data, dict):
            raise ConfigError("bad config value: config is not an object")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version}")
        return _decode(cls, data)

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _decode(cls, data: dict, path: str = ""):
    """A `cls` dataclass built from its `dataclasses.asdict` form. A field
    whose default is a dataclass is decoded as a nested block; a missing
    field keeps its default. An error names the field or block by its dotted
    path: an unknown key, a block that is not an object, a NaN or infinite
    value (json.loads accepts both, and NaN passes a range check written as
    a comparison), a value that is not an int, or is one outside int64,
    where the default is an int, one that is not an int or a float (a bool,
    a string, null) where the default is a float, or one that is neither a
    number nor null where the default is null. An error of the checks of `cls` itself is prefixed
    with the block's path unless it starts with that path."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [repr(f"{path}.{key}" if path else key) for key in data if key not in fields]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                raise ConfigError(f"bad config value: {where} is not an object")
            value = _decode(type(default), value, where)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"bad config value: {where} must be finite, got {value}")
        elif type(default) is int and type(value) is not int:
            raise ConfigError(f"bad config value: {where} must be an integer, got {value!r}")
        elif type(default) is int and not -(2**63) <= value < 2**63:
            raise ConfigError(f"bad config value: {where} {value} is outside int64")
        elif type(default) is float and type(value) not in (int, float):
            raise ConfigError(f"bad config value: {where} must be a number, got {value!r}")
        elif default is None and value is not None and type(value) not in (int, float):
            raise ConfigError(
                f"bad config value: {where} must be a number or null, got {value!r}"
            )
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError) and not path:
            raise
        what = "field" if isinstance(exc, TypeError) else "value"
        prefix = f"{path}: " if path and not str(exc).startswith(f"{path}.") else ""
        raise ConfigError(f"bad config {what}: {prefix}{exc}") from exc


def apply_overrides(config: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    """Apply dotted-path overrides, e.g. {"session.run_duration": 1.0}."""
    data = config.to_dict()
    for path, value in overrides.items():
        node = data
        *parents, leaf = path.split(".")
        for key in parents:
            if key not in node or not isinstance(node[key], dict):
                raise ConfigError(f"unknown config path {path!r}")
            node = node[key]
        node[leaf] = value
    return ExperimentConfig.from_dict(data)


# --- Desk-scale presets -----------------------------------------------------
#
# The hardware-scale defaults above need hours of simulated wall time. These
# presets shrink run duration and boost yield/efficiency so full sessions run
# in seconds while keeping >= 1000 coincidences per setting in every in-pulse
# slot at the stated slot width.


def desk_default(seed: int = 1) -> ExperimentConfig:
    """L = 24 m session at nominal 0.1 efficiency and 200/s dark rate.

    8 runs of 0.8 s, 4 ns slots: enough statistics for plateau-level checks
    (not for per-slot significance at 4 ns). Detector jitter is kept small
    against the 4 ns window so the window does not truncate true pairs.
    """
    station = StationConfig(detector_jitter_sigma=0.5e-9)
    return ExperimentConfig(
        source=SourceConfig(pair_yield=0.35, visibility_drift=0.006),
        station_a=station,
        station_b=station,
        session=SessionPlan(run_duration=0.8, runs_per_experiment=8, dead_time=10.0),
        master_seed=seed,
    )


def desk_boosted(seed: int = 1, transient: TransientModel | None = None) -> ExperimentConfig:
    """L = 24 m session with boosted yield/efficiency and 20 ns slots.

    4 runs of 0.7 s at pair_yield 0.2 and efficiency 0.9 put >= 1000 total
    coincidences per setting in every in-pulse 20 ns slot, including the
    half-weight rise/fall slots. The modest yield keeps multi-pair pulses
    (and hence greedy mispairing dilution of S) negligible.
    """
    station = StationConfig(detector_efficiency=0.9, detector_jitter_sigma=0.5e-9)
    return ExperimentConfig(
        source=SourceConfig(
            pair_yield=0.2,
            visibility_drift=0.006,
            transient=transient if transient is not None else TransientModel(),
        ),
        station_a=station,
        station_b=station,
        session=SessionPlan(run_duration=0.7, runs_per_experiment=4, dead_time=5.0),
        analysis=AnalysisParams(slot_width=20e-9),
        master_seed=seed,
    )


def desk_transient(mode: str, seed: int = 1) -> ExperimentConfig:
    """desk_boosted with an injected transient: theta = tau, floor 2."""
    tau = Geometry().tau
    transient = TransientModel(
        mode=mode,
        tau=tau,
        theta=tau,
        osc_period=3.0 * tau if mode == "oscillatory" else None,
    )
    return desk_boosted(seed=seed, transient=transient)
