"""Shared utilities: validation, RNG management, table/plot rendering, IO."""

from repro.utils.ascii_plot import line_plot, multi_line_plot, scatter_grid, stem_plot_log
from repro.utils.heatmap import voltage_heatmap
from repro.utils.io import ensure_dir, load_results, save_results, to_jsonable
from repro.utils.rng import make_rng, seed_for
from repro.utils.tables import format_float, format_table
from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_matrix,
    check_non_negative,
    check_positive,
    check_vector,
)

__all__ = [
    "line_plot",
    "multi_line_plot",
    "scatter_grid",
    "stem_plot_log",
    "voltage_heatmap",
    "ensure_dir",
    "load_results",
    "save_results",
    "to_jsonable",
    "make_rng",
    "seed_for",
    "format_float",
    "format_table",
    "check_in_range",
    "check_integer",
    "check_matrix",
    "check_non_negative",
    "check_positive",
    "check_vector",
]
