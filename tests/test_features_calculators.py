"""Tests for the feature calculators — correctness against naive references
plus hypothesis property tests (finiteness, invariances)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal

from repro.features import calculator_names, default_calculators, full_calculators
from repro.features.calculators import (
    _approximate_entropy,
    _autocorrelation,
    _benford_correlation,
    _binned_entropy,
    _c3,
    _cid_ce,
    _energy_ratio_by_chunks,
    _index_mass_quantile,
    _kurtosis,
    _lempel_ziv_complexity,
    _linear_trend,
    _longest_run,
    _longest_strike_above_mean,
    _mean_abs_change,
    _number_crossings_mean,
    _number_peaks,
    _permutation_entropy,
    _ratio_beyond_r_sigma,
    _sample_entropy,
    _skewness,
    _time_reversal_asymmetry,
    _welch,
)

# Telemetry-plausible magnitudes: denormal-range values trip float-equality
# edge cases (x == x.mean() under summation order) that no real metric hits.
_SANE = st.floats(-1e6, 1e6, allow_nan=False, width=64).map(
    lambda v: 0.0 if abs(v) < 1e-9 else v
)
BATCHES = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(8, 40)), elements=_SANE)


class TestRegistry:
    def test_default_has_many_features(self):
        names = calculator_names(default_calculators())
        assert len(names) >= 90
        assert len(set(names)) == len(names)

    def test_full_superset_of_default(self):
        default = set(calculator_names(default_calculators()))
        full = set(calculator_names(full_calculators()))
        assert default < full
        assert {"approximate_entropy", "sample_entropy"} <= full

    def test_calculator_output_shape_enforced(self):
        from repro.features import Calculator

        bad = Calculator("bad", lambda x: np.zeros(3), ("bad",))
        with pytest.raises(ValueError, match="shape"):
            bad(np.zeros((2, 5)))

    @pytest.mark.parametrize("calc", full_calculators(), ids=lambda c: c.name)
    def test_every_calculator_finite_on_edge_cases(self, calc):
        cases = [
            np.zeros((2, 16)),  # constant zero
            np.ones((2, 16)) * 7.5,  # constant non-zero
            np.tile(np.arange(16.0), (2, 1)),  # linear ramp
            np.array([[1.0, -1.0] * 8, [1e9] * 16]),  # alternating / huge
        ]
        for x in cases:
            out = calc(x)
            assert np.all(np.isfinite(out)), f"{calc.name} produced non-finite values"


class TestDescriptive:
    def test_skewness_matches_scipy_convention(self):
        rng = np.random.default_rng(0)
        x = rng.gamma(2.0, size=(1, 5000))
        # Gamma(2) has skewness 2/sqrt(2) ~ 1.414.
        assert _skewness(x)[0] == pytest.approx(np.sqrt(2.0), rel=0.15)

    def test_kurtosis_of_gaussian_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 20000))
        assert abs(_kurtosis(x)[0]) < 0.15

    def test_constant_series_zero_moments(self):
        x = np.full((3, 10), 4.2)
        assert np.all(_skewness(x) == 0)
        assert np.all(_kurtosis(x) == -3.0)  # m4/m2^2 -> 0, minus 3


class TestChanges:
    def test_mean_abs_change_reference(self):
        x = np.array([[0.0, 2.0, 1.0, 4.0]])
        assert _mean_abs_change(x)[0] == pytest.approx((2 + 1 + 3) / 3)

    def test_cid_ce_monotone_in_roughness(self):
        smooth = np.sin(np.linspace(0, 2 * np.pi, 100))[None, :]
        rough = np.random.default_rng(0).standard_normal((1, 100))
        assert _cid_ce(rough, False)[0] > _cid_ce(smooth, False)[0]


class TestRuns:
    def test_longest_run_reference(self):
        mask = np.array([[True, True, False, True, True, True, False]])
        assert _longest_run(mask)[0] == 3

    def test_longest_run_all_false(self):
        assert _longest_run(np.zeros((1, 5), dtype=bool))[0] == 0

    def test_longest_run_all_true(self):
        assert _longest_run(np.ones((1, 5), dtype=bool))[0] == 5

    def test_longest_strike_above_mean(self):
        x = np.array([[0.0, 10.0, 10.0, 10.0, 0.0, 0.0]])
        assert _longest_strike_above_mean(x)[0] == 3

    @given(arrays(np.bool_, st.tuples(st.integers(1, 4), st.integers(1, 30))))
    @settings(max_examples=50, deadline=None)
    def test_longest_run_matches_naive(self, mask):
        def naive(row):
            best = cur = 0
            for v in row:
                cur = cur + 1 if v else 0
                best = max(best, cur)
            return best

        expected = [naive(row) for row in mask]
        np.testing.assert_array_equal(_longest_run(mask), expected)


class TestPeaksAndCrossings:
    def test_number_peaks_reference(self):
        x = np.array([[0.0, 5.0, 0.0, 0.0, 6.0, 0.0, 1.0]])
        assert _number_peaks(x, 1)[0] == 2

    def test_number_peaks_support_filters(self):
        # Two neighbouring bumps fail support-2 peaks.
        x = np.array([[0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 0.0]])
        assert _number_peaks(x, 2)[0] == 0

    def test_crossings_reference(self):
        x = np.array([[0.0, 2.0, 0.0, 2.0]])  # mean 1: above/below flips 3x
        assert _number_crossings_mean(x)[0] == 3

    def test_index_mass_quantile(self):
        x = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert _index_mass_quantile(x, 0.5)[0] == pytest.approx(0.5)
        front = np.array([[10.0, 0.0, 0.0, 0.0]])
        assert _index_mass_quantile(front, 0.5)[0] == pytest.approx(0.25)


class TestDispersion:
    def test_ratio_beyond_sigma_gaussian(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 50000))
        assert _ratio_beyond_r_sigma(x, 1.0)[0] == pytest.approx(0.317, abs=0.02)
        assert _ratio_beyond_r_sigma(x, 2.0)[0] == pytest.approx(0.046, abs=0.01)


class TestTrendAndCorrelation:
    def test_linear_trend_exact_line(self):
        x = (3.0 * np.arange(20.0) + 2.0)[None, :]
        slope, rvalue, resid = _linear_trend(x)[0]
        assert slope == pytest.approx(3.0)
        assert rvalue == pytest.approx(1.0)
        assert resid == pytest.approx(0.0, abs=1e-9)

    def test_autocorrelation_periodic(self):
        x = np.tile([1.0, -1.0], 50)[None, :]
        assert _autocorrelation(x, 2)[0] == pytest.approx(1.0)
        assert _autocorrelation(x, 1)[0] == pytest.approx(-1.0)

    def test_autocorrelation_lag_too_large(self):
        assert _autocorrelation(np.ones((1, 5)), 10)[0] == 0.0

    def test_c3_reference(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        expected = np.mean([3 * 2 * 1, 4 * 3 * 2])
        assert _c3(x, 1)[0] == pytest.approx(expected)

    def test_time_reversal_asymmetry_symmetric_signal(self):
        x = np.sin(np.linspace(0, 8 * np.pi, 400))[None, :]
        assert abs(_time_reversal_asymmetry(x, 1)[0]) < 1e-3


class TestEntropy:
    def test_binned_entropy_uniform_vs_constant(self):
        uniform = np.linspace(0, 1, 100)[None, :]
        constant = np.full((1, 100), 3.0)
        assert _binned_entropy(uniform)[0] > 2.0
        assert _binned_entropy(constant)[0] == 0.0

    def test_benford_on_benford_data(self):
        rng = np.random.default_rng(0)
        # Log-uniform data follows Benford's law closely.
        x = 10 ** rng.uniform(0, 5, size=(1, 20000))
        assert _benford_correlation(x)[0] > 0.98

    def test_benford_on_constant(self):
        assert _benford_correlation(np.full((1, 50), 999.0))[0] <= 0.5

    def test_approximate_entropy_regular_vs_random(self):
        t = np.arange(200.0)
        regular = np.sin(t / 5.0)[None, :]
        noise = np.random.default_rng(0).standard_normal((1, 200))
        assert _approximate_entropy(regular)[0] < _approximate_entropy(noise)[0]

    def test_sample_entropy_regular_vs_random(self):
        t = np.arange(200.0)
        regular = np.sin(t / 5.0)[None, :]
        noise = np.random.default_rng(0).standard_normal((1, 200))
        assert _sample_entropy(regular)[0] < _sample_entropy(noise)[0]

    def test_permutation_entropy_bounds(self):
        noise = np.random.default_rng(0).standard_normal((2, 300))
        pe = _permutation_entropy(noise)
        assert np.all((pe > 0.8) & (pe <= 1.0))
        ramp = np.arange(50.0)[None, :]
        assert _permutation_entropy(ramp)[0] == pytest.approx(0.0, abs=1e-9)

    def test_lempel_ziv_random_exceeds_constant(self):
        noise = np.random.default_rng(0).standard_normal((1, 256))
        period = np.tile([0.0, 1.0], 128)[None, :]
        assert _lempel_ziv_complexity(noise)[0] > _lempel_ziv_complexity(period)[0]


class TestChunks:
    def test_energy_ratio_sums_to_one(self):
        x = np.random.default_rng(0).standard_normal((3, 100))
        chunks = _energy_ratio_by_chunks(x)
        np.testing.assert_allclose(chunks.sum(axis=1), 1.0)

    def test_energy_concentrated(self):
        x = np.zeros((1, 100))
        x[0, :10] = 5.0
        chunks = _energy_ratio_by_chunks(x)
        assert chunks[0, 0] == pytest.approx(1.0)


class TestWelchReplica:
    """The NumPy Welch is the same bits as ``scipy.signal.welch``."""

    @staticmethod
    def _batch(rng, t):
        rows = rng.normal(size=(8, t)) * 10.0 ** rng.uniform(-8, 8, size=(8, 1))
        rows[1] = np.nan
        rows[2] = 3.25
        rows[3] = 0.0
        rows[4, t // 2] = np.nan
        rows[5] = 1e8 + rng.normal(size=t)  # large offset, small signal
        return rows

    def test_bits_equal_scipy_over_every_length(self):
        # Every length up to 300 (odd nperseg and T < 64 included), then
        # long series: from eight segments on (T >= 288) the mean over
        # segments is a pairwise sum, so their layout decides the bits.
        rng = np.random.default_rng(2024)
        for t in [*range(1, 301), 480, 1440, 8640]:
            x = self._batch(rng, t)
            nperseg = min(64, t)
            want_f, want = signal.welch(x, fs=1.0, nperseg=nperseg, axis=-1)
            got_f, got = _welch(x, nperseg)
            assert np.array_equal(got_f, want_f), t
            assert np.array_equal(got, want, equal_nan=True), t


class TestProperties:
    @given(BATCHES)
    @settings(max_examples=40, deadline=None)
    def test_all_default_calculators_finite(self, x):
        for calc in default_calculators():
            out = calc(x)
            assert np.all(np.isfinite(out)), calc.name

    @given(BATCHES)
    @settings(max_examples=30, deadline=None)
    def test_scale_invariant_features(self, x):
        """Features defined on mean-relative structure ignore positive scaling."""
        scaled = x * 3.0
        for name, func in [
            ("crossings", _number_crossings_mean),
            ("strike", _longest_strike_above_mean),
        ]:
            np.testing.assert_allclose(func(x), func(scaled), err_msg=name)

    @given(BATCHES)
    @settings(max_examples=30, deadline=None)
    def test_shift_invariant_features(self, x):
        """Dispersion features ignore additive offsets."""
        shifted = x + 100.0
        np.testing.assert_allclose(
            _ratio_beyond_r_sigma(x, 1.0), _ratio_beyond_r_sigma(shifted, 1.0), atol=1e-9
        )
        np.testing.assert_allclose(
            _mean_abs_change(x), _mean_abs_change(shifted), rtol=1e-6, atol=1e-6
        )
