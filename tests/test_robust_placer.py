"""Failure-robust placement: worst-case bounds and adversarial wins.

Two guarantees under test:

* **The reported bound holds.**  ``RobustPlacer`` publishes
  ``worst_case_train_error`` per scope.  Dropping *any* selected
  sensor — recomputed here with an independent intercept-augmented
  ``lstsq`` refit, not the placer's cached normal equations, and also
  through the real ``PlacementModel.fallback_models()`` failover path —
  must never exceed that bound.
* **Robustness is real.**  On an adversarial fixture where the best
  nominal sensor has an equally good duplicate, the robust placer
  selects the redundant pair (losing either sensor costs ~nothing)
  while the nominal greedy pairs the best sensor with a weak
  complement and collapses when the good one dies.
"""

import numpy as np
import pytest

from repro.baselines import (
    PlacementConstraints,
    get_placer,
    greedy_correlation_order,
    robust_greedy_order,
)
from repro.core.pipeline import placement_model_from_cols
from repro.voltage.dataset import VoltageDataset
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset

EPS = 1e-9


def _drop_error(X, F, selected, drop_position):
    """Independent OLS refit error after dropping one selected sensor."""
    keep = np.delete(np.asarray(selected), drop_position)
    A = np.column_stack([X[:, keep], np.ones(X.shape[0])])
    coef, *_ = np.linalg.lstsq(A, F, rcond=None)
    return mean_relative_error(A @ coef, F)


def adversarial_dataset(seed=42, n_samples=500):
    """One latent signal; candidate 0 and 1 are equally good duplicates,
    2 is weak, 3 is pure noise.  Any single-duplicate placement is one
    sensor death away from losing the signal entirely."""
    rng = np.random.default_rng(seed)
    t = 0.02 * rng.standard_normal(n_samples)
    X = 0.93 + np.column_stack(
        [
            t + 1e-4 * rng.standard_normal(n_samples),
            t + 1e-4 * rng.standard_normal(n_samples),
            0.5 * t + 5e-3 * rng.standard_normal(n_samples),
            5e-3 * rng.standard_normal(n_samples),
        ]
    )
    F = 0.9 + np.column_stack([t, t]) + 1e-4 * rng.standard_normal(
        (n_samples, 2)
    )
    return VoltageDataset(
        X=X,
        F=F,
        candidate_nodes=np.arange(4) + 1000,
        candidate_cores=np.zeros(4, dtype=int),
        critical_nodes=np.arange(2) + 5000,
        block_names=["core0/blk0", "core0/blk1"],
        block_cores=np.zeros(2, dtype=int),
        benchmark_of_sample=np.arange(n_samples) % 2,
        benchmark_names=["bm_a", "bm_b"],
        vdd=1.0,
    )


@pytest.mark.parametrize("budget", [2, 3])
def test_drop_any_sensor_stays_within_reported_bound(budget):
    ds = make_synthetic_dataset(seed=9)
    placement = get_placer("robust").place(
        ds, budget, constraints=PlacementConstraints()
    )
    for core, meta in placement.meta["scopes"].items():
        candidate_cols, block_cols = ds.core_view(core)
        local = np.nonzero(
            np.isin(candidate_cols, placement.selected_cols)
        )[0]
        assert local.size == budget
        bound = meta["worst_case_train_error"]
        for i in range(budget):
            err = _drop_error(
                ds.X[:, candidate_cols], ds.F[:, block_cols], local, i
            )
            assert err <= bound + EPS
        assert meta["nominal_train_error"] <= bound + EPS
        assert meta["worst_case_rss"] >= 0.0


def test_fallback_models_stay_within_worst_scope_bound():
    # Through the real failover path: serving any single-sensor-loss
    # fallback of the fitted model must not exceed the worst per-scope
    # bound (unaffected scopes keep their nominal error, which is also
    # under their own bound).
    ds = make_synthetic_dataset(seed=9)
    placement = get_placer("robust").place(
        ds, 2, constraints=PlacementConstraints()
    )
    model = placement_model_from_cols(ds, placement.selected_cols)
    worst_bound = max(
        meta["worst_case_train_error"]
        for meta in placement.meta["scopes"].values()
    )
    fallbacks = model.fallback_models()
    assert set(fallbacks) == set(int(c) for c in placement.selected_cols)
    for fallback in fallbacks.values():
        assert (
            mean_relative_error(fallback.predict(ds.X), ds.F)
            <= worst_bound + EPS
        )


def test_robust_beats_nominal_greedy_on_adversarial_fixture():
    ds = adversarial_dataset()
    robust_order, info = robust_greedy_order(ds.X, ds.F, 2)
    nominal_order = greedy_correlation_order(ds.X, ds.F, 2)

    # The robust placer pairs the duplicates; the nominal greedy does
    # not (its second pick adds no worst-case protection).
    assert set(robust_order.tolist()) == {0, 1}
    assert set(nominal_order.tolist()) != {0, 1}

    robust_worst = max(
        _drop_error(ds.X, ds.F, robust_order, i) for i in range(2)
    )
    nominal_worst = max(
        _drop_error(ds.X, ds.F, nominal_order, i) for i in range(2)
    )
    assert robust_worst <= info["worst_case_train_error"] + EPS
    assert robust_worst < 0.1 * nominal_worst  # an order of magnitude
    # Redundancy means losing a sensor costs ~nothing nominal-wise.
    assert robust_worst < 2.0 * info["nominal_train_error"]


def test_robust_placer_end_to_end_on_adversarial_fixture():
    ds = adversarial_dataset()
    robust = get_placer("robust").place(ds, 2, constraints=PlacementConstraints())
    nominal = get_placer("correlation").place(
        ds, 2, constraints=PlacementConstraints()
    )
    np.testing.assert_array_equal(robust.selected_cols, [0, 1])

    def worst_fallback_error(placement):
        model = placement_model_from_cols(ds, placement.selected_cols)
        return max(
            mean_relative_error(fb.predict(ds.X), ds.F)
            for fb in model.fallback_models().values()
        )

    assert worst_fallback_error(robust) < 0.1 * worst_fallback_error(nominal)


def test_robust_order_validates_inputs():
    ds = adversarial_dataset()
    with pytest.raises(ValueError, match="cannot select"):
        robust_greedy_order(ds.X, ds.F, 5)
    with pytest.raises(ValueError):
        robust_greedy_order(ds.X, ds.F, 0)
