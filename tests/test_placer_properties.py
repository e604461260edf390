"""Hypothesis property suite: the cross-placer Placer contract.

Every registered placer, whatever its objective, must honour the same
protocol-level contract:

* exactly ``budget`` sensors per core — distinct, in-bounds, sorted
  dataset candidate columns;
* per-core scoping: every selected column belongs to a core with
  blocks, and each such core contributes exactly ``budget``;
* placements are deterministic under a fixed constraint seed.

The suite parametrizes over ``available_placers()``, so any future
placer registered with :func:`repro.baselines.register_placer` is
automatically held to the contract.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    PlacementConstraints,
    available_placers,
    get_placer,
)
from tests.conftest import make_synthetic_dataset

#: Emergency threshold for placers that need one (eagle_eye); the
#: synthetic datasets sit around 0.93 V.
THRESHOLD = 0.915

PLACERS = available_placers()


@lru_cache(maxsize=8)
def _dataset(seed):
    return make_synthetic_dataset(seed=seed)


def _scoped_cores(ds):
    return [c for c in ds.core_ids if ds.core_view(c)[1].size]


def _constraints(**kw):
    kw.setdefault("emergency_threshold", THRESHOLD)
    return PlacementConstraints(**kw)


@pytest.mark.parametrize("name", PLACERS)
@given(
    data_seed=st.integers(0, 3),
    rng_seed=st.integers(0, 10**6),
    budget=st.integers(1, 3),
)
@settings(max_examples=8, deadline=None)
def test_placement_contract(name, data_seed, rng_seed, budget):
    ds = _dataset(data_seed)
    placement = get_placer(name).place(
        ds, budget, constraints=_constraints(seed=rng_seed)
    )
    cols = placement.selected_cols

    cores = _scoped_cores(ds)
    expected = budget * len(cores)
    assert cols.size == expected
    assert placement.n_sensors == expected
    # Distinct, sorted, in-bounds dataset columns.
    assert np.all(np.diff(cols) > 0)
    assert cols.min() >= 0 and cols.max() < ds.n_candidates
    assert set(placement.per_core_cols) == set(cores)
    for core in cores:
        candidate_cols, _ = ds.core_view(core)
        assert np.sum(np.isin(cols, candidate_cols)) == budget
        np.testing.assert_array_equal(
            placement.per_core_cols[core],
            cols[np.isin(cols, candidate_cols)],
        )


@pytest.mark.parametrize("name", PLACERS)
@given(rng_seed=st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_deterministic_under_fixed_seed(name, rng_seed):
    ds = _dataset(0)
    constraints = _constraints(seed=rng_seed)
    placer = get_placer(name)
    first = placer.place(ds, 2, constraints=constraints)
    second = placer.place(ds, 2, constraints=constraints)
    np.testing.assert_array_equal(first.selected_cols, second.selected_cols)
