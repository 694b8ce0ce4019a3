"""Tests for Chi-square feature selection and its variance filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import ChiSquareSelector, chi2_scores
from repro.telemetry import SampleSet


def labeled_set(n=40, seed=0):
    """Half healthy, half anomalous; f0 discriminative, f1 noise, f2 constant."""
    rng = np.random.default_rng(seed)
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    f0 = np.where(y == 1, 0.9, 0.1) + 0.02 * rng.random(n)
    f1 = rng.random(n)
    f2 = np.full(n, 0.5)
    return SampleSet(np.column_stack([f0, f1, f2]), ["f0", "f1", "f2"], y)


class TestChi2Scores:
    def test_discriminative_feature_scores_highest(self):
        s = labeled_set()
        scores = chi2_scores(s.features, s.labels)
        assert scores[0] > scores[1]

    def test_requires_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            chi2_scores(np.array([[-1.0, 1.0]]*4), np.array([0, 0, 1, 1]))

    def test_requires_two_classes(self):
        with pytest.raises(ValueError, match="both"):
            chi2_scores(np.ones((4, 2)), np.zeros(4, dtype=int))

    def test_independent_feature_scores_near_zero(self):
        # A feature identical across classes carries no signal.
        y = np.array([0, 0, 1, 1])
        x = np.array([[1.0], [2.0], [1.0], [2.0]])
        assert chi2_scores(x, y)[0] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(4, 30), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_scores_non_negative(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((2 * n, 3))
        y = np.array([0] * n + [1] * n)
        assert np.all(chi2_scores(x, y) >= 0)


class TestChiSquareSelector:
    def test_selects_discriminative_first(self):
        s = labeled_set()
        sel = ChiSquareSelector(k=1).fit(s)
        assert sel.selected_names_ == ("f0",)

    def test_constant_feature_never_selected(self):
        s = labeled_set()
        sel = ChiSquareSelector(k=3).fit(s)
        assert "f2" not in sel.selected_names_

    def test_transform_projects(self):
        s = labeled_set()
        sel = ChiSquareSelector(k=2).fit(s)
        out = sel.transform(s)
        assert out.n_features == 2

    def test_transform_applies_to_other_sets(self):
        s = labeled_set(seed=0)
        other = labeled_set(seed=9)
        sel = ChiSquareSelector(k=2).fit(s)
        assert sel.transform(other).feature_names == sel.selected_names_

    def test_top_features_ranked(self):
        s = labeled_set()
        sel = ChiSquareSelector(k=2).fit(s)
        pairs = sel.top_features(2)
        assert pairs[0][0] == "f0"
        assert pairs[0][1] >= pairs[1][1]

    def test_ignores_unlabeled(self):
        s = labeled_set()
        labels = s.labels.copy()
        labels[:4] = -1
        s2 = SampleSet(s.features, s.feature_names, labels)
        sel = ChiSquareSelector(k=1).fit(s2)
        assert sel.selected_names_ == ("f0",)

    def test_k_capped_at_varying_features(self):
        s = labeled_set()
        sel = ChiSquareSelector(k=100).fit(s)
        assert len(sel.selected_names_) == 2  # f2 is constant

    def test_all_constant_rejected(self):
        y = np.array([0, 0, 1, 1])
        s = SampleSet(np.column_stack([np.full(4, 2.0), np.ones(4)]), ["a", "b"], y)
        with pytest.raises(ValueError, match="constant"):
            ChiSquareSelector(k=1).fit(s)

    def test_unfitted_transform(self):
        from repro.util import NotFittedError

        with pytest.raises(NotFittedError):
            ChiSquareSelector().transform(labeled_set())

    def test_needs_minimal_supervision_only(self):
        """Selection works with very few anomalous samples (paper: 24)."""
        rng = np.random.default_rng(0)
        n_h, n_a = 60, 4
        y = np.array([0] * n_h + [1] * n_a)
        signal = np.concatenate([rng.normal(0.2, 0.02, n_h), rng.normal(0.8, 0.02, n_a)])
        noise = rng.random(n_h + n_a)
        s = SampleSet(np.column_stack([noise, signal]), ["noise", "signal"], y)
        sel = ChiSquareSelector(k=1).fit(s)
        assert sel.selected_names_ == ("signal",)


class TestVarianceRule:
    """A set with no anomalous row is ranked by per-column variance."""

    @staticmethod
    def unlabeled_set(labels=None):
        rng = np.random.default_rng(3)
        n = 30
        # Column variances grow with the index: f3 > f2 > f1 > f0; f4 constant.
        x = np.column_stack(
            [rng.permutation(np.linspace(0.0, 1.0, n)) * (i + 1) for i in range(4)]
            + [np.full(n, 2.0)]
        )
        return SampleSet(x, [f"f{i}" for i in range(5)], labels)

    def test_unlabeled_keeps_top_variance_in_column_order(self):
        s = self.unlabeled_set()
        sel = ChiSquareSelector(k=2).fit(s)
        assert sel.selected_names_ == ("f2", "f3")
        np.testing.assert_array_equal(sel.scores_, s.features.var(axis=0))
        assert [name for name, _ in sel.top_features(2)] == ["f3", "f2"]

    def test_all_healthy_and_all_unlabeled_rank_alike(self):
        base = ChiSquareSelector(k=3).fit(self.unlabeled_set())
        for labels in (np.zeros(30, dtype=int), np.full(30, -1)):
            sel = ChiSquareSelector(k=3).fit(self.unlabeled_set(labels))
            assert sel.selected_names_ == base.selected_names_
            np.testing.assert_array_equal(sel.scores_, base.scores_)

    def test_variance_spans_unlabeled_rows_too(self):
        # f0 is constant over the labeled rows and varies over the rest.
        x = np.column_stack([[1.0, 1.0, 1.0, 5.0, -5.0, 9.0], np.arange(6.0) * 0.1])
        s = SampleSet(x, ["f0", "f1"], [0, 0, 0, -1, -1, -1])
        assert ChiSquareSelector(k=1).fit(s).selected_names_ == ("f0",)

    def test_ties_broken_by_column_index(self):
        col = np.array([0.0, 1.0, 0.0, 1.0])
        s = SampleSet(np.column_stack([col * 0.5, col, col, col]), ["a", "b", "c", "d"])
        assert ChiSquareSelector(k=2).fit(s).selected_names_ == ("b", "c")

    def test_constant_columns_kept_when_k_exceeds_varying(self):
        s = self.unlabeled_set()
        sel = ChiSquareSelector(k=100).fit(s)
        assert sel.selected_names_ == ("f0", "f1", "f2", "f3", "f4")

    def test_masked_variance_on_mixed_set(self):
        # f0 is observed on half the rows only, constant there: its 0-fill
        # would give it the largest variance; observed, it has none.
        n = 8
        present = np.ones((n, 3), dtype=bool)
        present[n // 2 :, 0] = False
        x = np.column_stack([
            np.where(present[:, 0], 7.0, 0.0),
            np.linspace(0.0, 1.0, n),
            np.linspace(0.0, 0.5, n),
        ])
        s = SampleSet(x, ["f0", "f1", "f2"], present=present)
        sel = ChiSquareSelector(k=2).fit(s)
        assert sel.selected_names_ == ("f1", "f2")
        expected = [x[present[:, j], j].var() for j in range(3)]
        np.testing.assert_allclose(sel.scores_, expected, atol=1e-12)
