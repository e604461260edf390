"""Unified Placer protocol: pinned selections and ties.

Pins two contracts:

* **Pinned selections** — every registered placer's per-core
  selection on one synthetic dataset is a literal below; the classic
  baselines' literals are the selections of the per-placer fit
  functions they replaced, recorded before those were deleted.
* **Tie-breaking** — ties go to the *lowest* candidate index
  everywhere except ``qr_pivot`` (LAPACK's pivot order); these tests
  pin the documented policy on constructed exact-tie inputs.
"""

import numpy as np
import pytest

from repro.baselines import (
    Placement,
    PlacementConstraints,
    Placer,
    available_placers,
    frame_potential_ranking,
    get_placer,
    ols_magnitude_ranking,
    register_placer,
    worst_noise_ranking,
)
from repro.core.normalization import Standardizer
from repro.core.pipeline import placement_model_from_cols
from tests.conftest import make_synthetic_dataset

THRESHOLD = 0.915

ALL_PLACERS = (
    "correlation",
    "eagle_eye",
    "frame_potential",
    "group_lasso",
    "ols_magnitude",
    "plain_lasso",
    "qr_pivot",
    "random",
    "robust",
    "worst_noise",
)


#: Budget-2 selections on the ``ds`` fixture at THRESHOLD, as
#: ``placer -> selected_cols``.  Cores 0 and 1 own candidates 0-11 and
#: 12-23, so each literal also pins each core's pair.
PINNED = {
    "correlation": [0, 3, 12, 19],
    "eagle_eye": [0, 8, 14, 19],
    "frame_potential": [1, 9, 12, 16],
    "group_lasso": [0, 3, 12, 19],
    "ols_magnitude": [8, 9, 12, 14],
    "plain_lasso": [8, 9, 12, 14],
    "qr_pivot": [0, 2, 12, 14],
    "robust": [0, 3, 14, 19],
    "worst_noise": [2, 4, 13, 16],
}

#: The ``random`` placer's pinned selections per constraints seed.
PINNED_RANDOM = {
    0: [7, 9, 14, 15],
    7: [7, 10, 18, 21],
    123: [0, 8, 12, 22],
}

#: Placement is per core only; the parameter keeps the ``[True]`` ids.
PER_CORE = pytest.mark.parametrize("per_core", [True])


@pytest.fixture(scope="module")
def ds():
    return make_synthetic_dataset(seed=5)


def _constraints(**kw):
    kw.setdefault("emergency_threshold", THRESHOLD)
    return PlacementConstraints(**kw)


def _assert_pinned(ds, name, seed=0):
    pins = PINNED_RANDOM[seed] if name == "random" else PINNED[name]
    placement = get_placer(name).place(
        ds, 2, constraints=_constraints(seed=seed)
    )
    np.testing.assert_array_equal(placement.selected_cols, pins)


def test_registry_lists_all_placers():
    assert set(ALL_PLACERS) <= set(available_placers())
    assert set(PINNED) | {"random"} == set(ALL_PLACERS)


def test_get_placer_unknown_name():
    with pytest.raises(KeyError, match="unknown placer"):
        get_placer("does_not_exist")


def test_register_placer_rejects_name_collision():
    class Impostor(Placer):
        name = "worst_noise"

        def _rank_scope(self, X, F, budget, rng, constraints, meta):
            return np.arange(budget)

    with pytest.raises(ValueError, match="already registered"):
        register_placer(Impostor)


# ---------------------------------------------------------------------------
# Pinned selections.  The ``*_matches_legacy`` literals are what the
# per-placer fit functions selected before they were deleted.


@PER_CORE
def test_worst_noise_matches_legacy(ds, per_core):
    _assert_pinned(ds, "worst_noise")


@PER_CORE
def test_ols_magnitude_matches_legacy(ds, per_core):
    _assert_pinned(ds, "ols_magnitude")


@PER_CORE
def test_correlation_matches_legacy(ds, per_core):
    _assert_pinned(ds, "correlation")


@PER_CORE
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_matches_legacy(ds, per_core, seed):
    _assert_pinned(ds, "random", seed=seed)


@PER_CORE
def test_eagle_eye_matches_legacy(ds, per_core):
    _assert_pinned(ds, "eagle_eye")


@PER_CORE
@pytest.mark.parametrize(
    "name",
    ["frame_potential", "group_lasso", "plain_lasso", "qr_pivot", "robust"],
)
def test_selection_is_pinned(ds, name, per_core):
    _assert_pinned(ds, name)


def test_eagle_eye_threshold_from_constraints(ds):
    # Below every training voltage there are no emergencies, so the
    # coverage greedy falls back to worst-noise order: the threshold
    # on the constraints is the one the placer reads.
    low = float(min(ds.X.min(), ds.F.min())) - 0.01
    via_low = get_placer("eagle_eye").place(
        ds, 2, constraints=_constraints(emergency_threshold=low)
    )
    np.testing.assert_array_equal(
        via_low.selected_cols, PINNED["worst_noise"]
    )
    assert via_low.selected_cols.tolist() != PINNED["eagle_eye"]


def test_eagle_eye_requires_some_threshold(ds):
    with pytest.raises(ValueError, match="threshold"):
        get_placer("eagle_eye").place(ds, 2, constraints=PlacementConstraints())


def test_group_lasso_count_mode_hits_budget(ds):
    placement = get_placer("group_lasso").place(ds, 2, constraints=_constraints())
    assert placement.n_sensors == 2 * len(
        [c for c in ds.core_ids if ds.core_view(c)[1].size]
    )
    for scope_meta in placement.meta["scopes"].values():
        assert scope_meta["n_above_threshold"] >= 2
        assert scope_meta["lambda"] > 0


def test_group_lasso_standardizes_each_core_once(ds, monkeypatch):
    # One X and one F standardization per core, however many lambda
    # probes the count bisection runs.
    calls = []
    fit_transform = Standardizer.fit_transform

    def counting(self, data):
        calls.append(data.shape)
        return fit_transform(self, data)

    monkeypatch.setattr(Standardizer, "fit_transform", counting)
    placement = get_placer("group_lasso").place(
        ds, 2, constraints=_constraints()
    )
    assert sum(m["probes"] for m in placement.meta["scopes"].values()) > 2
    assert len(calls) == 2 * len(placement.per_core_cols)


# ---------------------------------------------------------------------------
# Unified tie-breaking (the latent inconsistencies the refactor fixed).


def test_worst_noise_ties_prefer_lower_index():
    X = np.array(
        [[0.9, 0.9, 0.95, 0.9], [1.0, 1.0, 1.0, 1.0]]
    )  # columns 0, 1, 3 tie on the minimum
    order = worst_noise_ranking(X)
    assert order[:3].tolist() == [0, 1, 3]


def _duplicate_pairs():
    """``X = [a, a, b, b]``: two exactly duplicated candidate columns."""
    rng = np.random.default_rng(0)
    base = rng.normal(0.9, 0.01, size=(40, 2))
    X = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 1]])
    return base, X


def _assert_pair_heads_first(order):
    first_of_pair = {0: 0, 1: 0, 2: 2, 3: 2}
    seen = []
    for idx in order:
        pair_head = first_of_pair[int(idx)]
        if pair_head not in seen:
            assert idx == pair_head  # lower index of a tied pair comes first
            seen.append(pair_head)


def test_ols_magnitude_ties_prefer_lower_index():
    # Identical duplicated columns produce exactly equal magnitudes;
    # the old reversed argsort picked the highest index first.
    base, X = _duplicate_pairs()
    _assert_pair_heads_first(ols_magnitude_ranking(X, 0.5 * base + 0.45))


def test_frame_potential_ties_prefer_lower_index():
    # Duplicates tie exactly on the FP decrease at every step, so only
    # the tie-break decides which twin is eliminated first.
    _, X = _duplicate_pairs()
    _assert_pair_heads_first(frame_potential_ranking(X))


def test_eagle_eye_fill_ties_prefer_lower_index():
    # No emergencies at all: the coverage greedy never fires and the
    # fill branch ranks by worst noise with stable ties.
    X = np.array(
        [[0.95, 0.95, 0.96], [0.97, 0.97, 0.97]]
    )
    emergency = np.zeros(2, dtype=bool)
    from repro.baselines import greedy_coverage_order

    order = greedy_coverage_order(X, emergency, 2, threshold=0.9)
    assert order.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Placement container and protocol-level validation.


def test_placement_is_sorted_and_sized(ds):
    placement = get_placer("worst_noise").place(ds, 3, constraints=_constraints())
    assert isinstance(placement, Placement)
    assert placement.n_sensors == placement.selected_cols.size
    assert np.all(np.diff(placement.selected_cols) > 0)
    assert placement.placer == "worst_noise"
    assert placement.budget == 3


def test_budget_above_pool_raises(ds):
    with pytest.raises(ValueError, match="cannot select"):
        get_placer("worst_noise").place(ds, 10**6, constraints=_constraints())


def test_budget_must_be_positive(ds):
    with pytest.raises(ValueError):
        get_placer("worst_noise").place(ds, 0, constraints=_constraints())


def test_placement_to_model_predicts(ds):
    placement = get_placer("correlation").place(ds, 2, constraints=_constraints())
    model = placement_model_from_cols(ds, placement.selected_cols)
    pred = model.predict(ds.X)
    assert pred.shape == ds.F.shape
    np.testing.assert_array_equal(
        np.sort(model.sensor_candidate_cols), placement.selected_cols
    )


def test_capability_flags():
    assert get_placer("random").uses_rng
    assert not get_placer("worst_noise").uses_rng


def test_placers_take_no_constructor_arguments():
    for name in available_placers():
        assert "__init__" not in vars(type(get_placer(name)))
