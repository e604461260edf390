"""Bench: the spatial-correlation premise behind the paper's method.

The profile that justifies predicting K blocks from Q << K sensors:
nearby candidate voltages must be highly correlated.
"""

import numpy as np

from repro.voltage.correlation import correlation_length, spatial_correlation


def test_correlation_premise(benchmark, bench_data):
    coords = bench_data.chip.grid.coords[bench_data.train.candidate_nodes]

    def profile():
        return spatial_correlation(
            bench_data.train.X, coords, n_pairs=20000, rng=3
        )

    result = benchmark(profile)
    length = correlation_length(result, level=0.9)
    first = result.mean_correlation[~np.isnan(result.mean_correlation)][0]
    print(
        f"\nnearest-bin correlation {first:.4f}; "
        f"0.9-correlation length {length:.2f} mm"
    )
    # The paper's premise: local noise is highly correlated.
    assert first > 0.9
