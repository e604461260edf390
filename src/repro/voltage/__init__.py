"""Voltage data layer: maps, datasets, critical nodes, emergencies, metrics."""

from repro.voltage.correlation import (
    CorrelationProfile,
    correlation_length,
    spatial_correlation,
)
from repro.voltage.critical import select_critical_nodes
from repro.voltage.dataset import VoltageDataset
from repro.voltage.emergencies import (
    any_emergency,
    emergency_matrix,
)
from repro.voltage.maps import VoltageMapSet
from repro.voltage.metrics import (
    ErrorRates,
    blockwise_error_rates,
    detection_error_rates,
    max_absolute_error,
    mean_relative_error,
    rms_relative_error,
)
from repro.voltage.persistence import load_dataset, save_dataset
from repro.voltage.sampling import sample_maps, stratified_sample_rows

__all__ = [
    "CorrelationProfile",
    "correlation_length",
    "spatial_correlation",
    "select_critical_nodes",
    "VoltageDataset",
    "any_emergency",
    "emergency_matrix",
    "VoltageMapSet",
    "ErrorRates",
    "blockwise_error_rates",
    "detection_error_rates",
    "max_absolute_error",
    "mean_relative_error",
    "rms_relative_error",
    "sample_maps",
    "stratified_sample_rows",
    "load_dataset",
    "save_dataset",
]
