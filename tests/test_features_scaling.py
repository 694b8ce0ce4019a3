"""Tests for the min-max scaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features import MinMaxScaler
from repro.util import NotFittedError

MATS = arrays(
    np.float64,
    st.tuples(st.integers(3, 20), st.integers(1, 5)),
    elements=st.floats(-1e3, 1e3, allow_nan=False),
)


class TestMinMax:
    def test_maps_to_unit_interval(self, rng):
        x = rng.random((20, 4)) * 100 - 50
        out = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-12)

    def test_clips_out_of_range_test_values(self, rng):
        x = rng.random((10, 2))
        sc = MinMaxScaler().fit(x)
        out = sc.transform(np.array([[10.0, -10.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_no_clip_option(self, rng):
        x = rng.random((10, 1))
        sc = MinMaxScaler(clip=False).fit(x)
        assert sc.transform(np.array([[x.max() + 1.0]]))[0, 0] > 1.0

    def test_constant_feature_maps_to_zero(self):
        x = np.full((5, 1), 3.0)
        out = MinMaxScaler().fit_transform(x)
        np.testing.assert_allclose(out, 0.0)


#: Both configurations of the scaler: clipped to [0, 1] (the default) or not.
CONFIGS = pytest.mark.parametrize("clip", [True, False], ids=["minmax", "unclipped"])


class TestCommon:
    @CONFIGS
    def test_state_roundtrip(self, clip, rng):
        x = rng.random((20, 3))
        sc = MinMaxScaler(clip=clip).fit(x)
        back = MinMaxScaler.from_state(sc.state())
        assert back.clip is clip
        probe = 3.0 * x - 1.0  # partly outside the training range
        np.testing.assert_array_equal(back.transform(probe), sc.transform(probe))

    @CONFIGS
    def test_unfitted_raises(self, clip):
        with pytest.raises(NotFittedError):
            MinMaxScaler(clip=clip).transform(np.ones((2, 2)))

    @CONFIGS
    def test_width_mismatch(self, clip, rng):
        sc = MinMaxScaler(clip=clip).fit(rng.random((5, 3)))
        with pytest.raises(ValueError, match="features"):
            sc.transform(rng.random((2, 4)))

    @given(MATS)
    @settings(max_examples=30, deadline=None)
    def test_minmax_always_in_unit_box(self, x):
        out = MinMaxScaler().fit_transform(x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @given(MATS)
    @settings(max_examples=30, deadline=None)
    def test_transform_idempotent_on_training_data(self, x):
        sc = MinMaxScaler().fit(x)
        np.testing.assert_allclose(sc.transform(x), sc.transform(x))
