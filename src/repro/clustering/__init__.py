"""Spatio-temporal clustering used by the event features and baselines."""

from repro.clustering.stdbscan import (
    DENSITY_BORDER,
    DENSITY_CORE,
    DENSITY_NOISE,
    STDBSCAN,
    STDBSCANResult,
    StreamDensity,
)

__all__ = [
    "DENSITY_BORDER",
    "DENSITY_CORE",
    "DENSITY_NOISE",
    "STDBSCAN",
    "STDBSCANResult",
    "StreamDensity",
]
