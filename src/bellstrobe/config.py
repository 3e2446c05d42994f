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

from .model import Geometry, QmStateModel, SettingsQuad, TransientModel
from .sim import PS_PER_SECOND, ClockModel, PulsePlan, SourceConfig, StationConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def to_ps(seconds: float, name: str) -> int:
    """A configured time in seconds as the integer picoseconds the pipeline
    works in, from tag to slot; ConfigError unless it is a whole number."""
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
        if not 0 < self.run_duration < math.inf:  # NaN fails too
            raise ConfigError("run_duration must be positive and finite")
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
    geometry: Geometry = field(default_factory=lambda: Geometry(24.0))
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
        self.trigger_delays_ps  # ConfigError unless both are whole picoseconds
        period_ps, slot_ps = self.period_ps, self.analysis.slot_ps
        if self.session.mode == "chsh_4" and period_ps % slot_ps:
            raise ConfigError(
                f"analysis.slot_width ({slot_ps} ps) does not divide "
                f"pulses.base_period ({period_ps} ps)"
            )

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

    @property
    def state_model(self) -> QmStateModel:
        return QmStateModel(visibility=self.visibility)

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
        def unpack(obj):
            if dataclasses.is_dataclass(obj):
                return {
                    f.name: unpack(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                }
            if isinstance(obj, tuple):
                return list(obj)
            return obj

        data = unpack(self)
        data["schema_version"] = SCHEMA_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema_version {version}")
        try:
            geometry = data.pop("geometry", {})
            source = dict(data.pop("source", {}))
            transient = source.pop("transient", {})

            def station(path: str) -> StationConfig:
                fields = dict(data.pop(path, {}))
                clock = _block(f"{path}.clock", ClockModel, fields.pop("clock", {}))
                return _block(path, StationConfig, {**fields, "clock": clock})

            transient = _block(
                "source.transient",
                TransientModel,
                {k: (tuple(v) if isinstance(v, list) else v) for k, v in transient.items()},
            )
            return cls(
                geometry=_block("geometry", Geometry, geometry) if geometry else Geometry(24.0),
                visibility=data.pop("visibility", 0.980198),
                pulses=_block("pulses", PulsePlan, data.pop("pulses", {})),
                source=_block("source", SourceConfig, {**source, "transient": transient}),
                station_a=station("station_a"),
                station_b=station("station_b"),
                session=_block("session", SessionPlan, data.pop("session", {})),
                analysis=_block("analysis", AnalysisParams, data.pop("analysis", {})),
                quad=_block("quad", SettingsQuad, data.pop("quad", {})),
                master_seed=int(data.pop("master_seed", 1)),
            )
        except ConfigError:
            raise
        except TypeError as exc:
            raise ConfigError(f"bad config field: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ExperimentConfig":
        p = Path(source)
        text = p.read_text() if p.exists() else str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


def _block(path: str, factory, fields: dict):
    """One config block built from its fields; an error names the block, or
    the field of a NaN or infinite value (json.loads accepts both, and NaN
    passes a range check written as a comparison), by its dotted path."""
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"bad config value: {path}.{name} must be finite, got {value}")
    try:
        return factory(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad config value: {path}: {exc}") from exc


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
        if leaf not in node:
            raise ConfigError(f"unknown config field {path!r}")
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
    tau = Geometry(24.0).tau
    transient = TransientModel(
        mode=mode,
        tau=tau,
        theta=tau,
        osc_period=3.0 * tau if mode == "oscillatory" else None,
    )
    return desk_boosted(seed=seed, transient=transient)
