"""bellstrobe: stroboscopic pulsed Bell-test simulation and analysis.

Simulates two-station time-tag streams of a pulsed entangled-photon
experiment (with optional short-time deviations from the quantum
predictions), then reconstructs S_CHSH(t), eta(t) and their product from the
streams alone and tests for a transient.
"""

__version__ = "0.1.0"

from .model import (
    AngleSetting,
    Geometry,
    SettingsQuad,
    TransientModel,
    chsh_ideal,
    min_counts_for_gap,
    qm_classical_gap,
    transient_factors,
    visibility_from_contrast,
)
from .sim import ClockModel, PulsePlan, SourceConfig, StationConfig, TagStream
from .config import ExperimentConfig

__all__ = [
    "AngleSetting",
    "ClockModel",
    "ExperimentConfig",
    "Geometry",
    "PulsePlan",
    "SettingsQuad",
    "SourceConfig",
    "StationConfig",
    "TagStream",
    "TransientModel",
    "chsh_ideal",
    "min_counts_for_gap",
    "qm_classical_gap",
    "transient_factors",
    "visibility_from_contrast",
    "__version__",
]
