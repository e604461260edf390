"""Workload modeling: synthetic benchmarks, activity, power, currents.

This package replaces the paper's GEM5 + PARSEC + McPAT stack with
statistically equivalent synthetic generators — see DESIGN.md section 2
for the substitution rationale.
"""

from repro.workload.activity import ActivityTraces, generate_activity
from repro.workload.benchmarks import (
    PARSEC_LIKE_SUITE,
    BenchmarkSpec,
    benchmark_names,
    get_benchmark,
)
from repro.workload.current_map import CurrentMapper, build_distribution_matrix
from repro.workload.events import GatingEvent, GatingSchedule, generate_gating_schedule
from repro.workload.power_model import (
    BlockPowerTraces,
    McPATLikePowerModel,
    PowerModelConfig,
)

__all__ = [
    "ActivityTraces",
    "generate_activity",
    "PARSEC_LIKE_SUITE",
    "BenchmarkSpec",
    "benchmark_names",
    "get_benchmark",
    "CurrentMapper",
    "build_distribution_matrix",
    "GatingEvent",
    "GatingSchedule",
    "generate_gating_schedule",
    "BlockPowerTraces",
    "McPATLikePowerModel",
    "PowerModelConfig",
]
