"""Detection-performance analysis: ROC curves, feature metrics and
wideband occupancy scoring."""

from .metrics import (
    estimate_symbol_rate_bins,
    peak_cyclic_offsets,
    peak_to_average_ratio,
)
from .occupancy import (
    EmitterAttribution,
    OccupancyConfusion,
    attribute_emitters,
    format_attribution,
    occupancy_confusion,
)
from .roc import (
    RocCurve,
    auc,
    detection_probability,
    roc_curve,
)
from .sweeps import DetectionSweep, SweepPoint

__all__ = [
    "DetectionSweep",
    "EmitterAttribution",
    "OccupancyConfusion",
    "RocCurve",
    "SweepPoint",
    "attribute_emitters",
    "auc",
    "detection_probability",
    "estimate_symbol_rate_bins",
    "format_attribution",
    "occupancy_confusion",
    "peak_cyclic_offsets",
    "peak_to_average_ratio",
    "roc_curve",
]
