"""Tests for repro.core.normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Standardizer


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        data = 5.0 + 2.0 * rng.standard_normal((200, 4))
        z = Standardizer().fit_transform(data)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.random((50, 3)) * 10 - 5
        std = Standardizer().fit(data)
        assert np.allclose(std.inverse_transform(std.transform(data)), data)

    @pytest.mark.parametrize("shape", [(7,), (40, 7)])
    def test_transform_bits_and_input_unchanged(self, shape):
        # transform divides in place on the centred copy; the result
        # must be the old (data - mean) / scale bit for bit.
        rng = np.random.default_rng(2)
        std = Standardizer().fit(3.0 + rng.standard_normal((50, 7)) * 1e-3)
        data = 3.0 + rng.standard_normal(shape) * 1e-3
        before = data.copy()
        out = std.transform(data)
        want = (before - std.mean_) / std.scale_
        assert np.array_equal(out.view(np.int64), want.view(np.int64))
        assert np.array_equal(data, before)
        assert not np.shares_memory(out, data)

    def test_transform_new_data_uses_fit_stats(self):
        train = np.array([[0.0], [2.0]])
        std = Standardizer().fit(train)
        out = std.transform(np.array([[4.0]]))
        assert out[0, 0] == pytest.approx((4.0 - 1.0) / 1.0)

    def test_constant_column_flagged_and_safe(self):
        data = np.column_stack([np.ones(10), np.arange(10.0)])
        std = Standardizer().fit(data)
        assert std.constant_columns.tolist() == [True, False]
        z = std.transform(data)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            Standardizer().inverse_transform(np.ones((2, 2)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            Standardizer().fit(np.ones(5))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            Standardizer().fit(np.ones((1, 3)))

    def test_rejects_wrong_width_on_transform(self):
        std = Standardizer().fit(np.random.default_rng(0).random((5, 3)))
        with pytest.raises(ValueError):
            std.transform(np.ones((2, 4)))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            Standardizer(eps=0.0)

    @given(
        shift=st.floats(-100, 100),
        scale=st.floats(0.01, 100),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance_property(self, shift, scale, seed):
        # Standardizing a*x+b gives the same z as standardizing x.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 2))
        z1 = Standardizer().fit_transform(x)
        z2 = Standardizer().fit_transform(scale * x + shift)
        assert np.allclose(z1, z2, atol=1e-8)
