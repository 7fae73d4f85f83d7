"""Tests for the balanced-error reporting conventions."""

import numpy as np
import pytest

from imbloss.datagen import gaussian_mixture
from imbloss.metrics import balanced_error, confusion, per_class_error
from imbloss.trainer import LinearModel, predict_batch
from oracles import eval_balanced_loss


class _FixedPrediction:
    """Model stub that always predicts one class."""

    def __init__(self, cls, n):
        self.cls, self.n = cls, n

    def scores(self, X):
        out = np.zeros((len(X), self.n))
        out[:, self.cls - 1] = 1.0
        return out


class _Oracle:
    """Model stub that predicts a stored label per row index."""

    def __init__(self, labels, n):
        self.labels, self.n = np.asarray(labels), n

    def scores(self, X):
        out = np.zeros((len(X), self.n))
        out[np.arange(len(X)), self.labels - 1] = 1.0
        return out


def toy_test_set(counts=(40, 10), seed=0):
    n = len(counts)
    means = 6.0 * np.eye(n)[:, :2]
    return gaussian_mixture(n, 2, list(counts), means, np.ones(n), seed)


class TestBalancedError:
    def test_perfect_classifier(self):
        data = toy_test_set()
        model = _Oracle(data.labels, data.n)
        assert balanced_error(model, data) == 0.0

    def test_always_majority_binary(self):
        data = toy_test_set()
        model = _FixedPrediction(1, 2)
        assert balanced_error(model, data) == pytest.approx(1.0)

    def test_range(self):
        data = toy_test_set()
        model = _FixedPrediction(2, 2)
        value = balanced_error(model, data)
        assert 0.0 <= value <= data.n

    def test_equals_mean_prior_weighted_loss(self):
        data = toy_test_set(counts=(33, 21, 11), seed=3)
        model = LinearModel.init_random(3, 2, seed=4)
        priors = data.stats().priors
        preds = predict_batch(model, data.features)
        direct = np.mean([
            eval_balanced_loss(int(p), int(y), priors)
            for p, y in zip(preds, data.labels)
        ])
        assert balanced_error(model, data) == pytest.approx(direct, abs=1e-12)

    def test_absent_class_rejected(self):
        data = toy_test_set()
        data.labels[:] = 1
        model = _FixedPrediction(1, 2)
        with pytest.raises(ValueError):
            balanced_error(model, data)


class TestPerClassError:
    def test_perfect(self):
        data = toy_test_set()
        model = _Oracle(data.labels, data.n)
        np.testing.assert_array_equal(per_class_error(model, data), [0.0, 0.0])

    def test_entries_in_unit_interval_and_sum(self):
        data = toy_test_set(counts=(15, 25, 35), seed=5)
        model = LinearModel.init_random(3, 2, seed=6)
        rates = per_class_error(model, data)
        assert np.all((rates >= 0.0) & (rates <= 1.0))
        assert rates.mean() == pytest.approx(balanced_error(model, data) / 3)


class TestConfusion:
    def test_perfect_is_diagonal(self):
        data = toy_test_set()
        model = _Oracle(data.labels, data.n)
        counts = confusion(model, data)
        np.testing.assert_array_equal(counts, np.diag([40, 10]))
        assert counts.dtype == np.int64

    def test_total_and_row_sums(self):
        data = toy_test_set(counts=(12, 18), seed=7)
        model = LinearModel.init_random(2, 2, seed=8)
        counts = confusion(model, data)
        assert counts.sum() == data.m
        np.testing.assert_array_equal(counts.sum(axis=1), data.class_counts())

    def test_per_class_error_derivable_from_rows(self):
        data = toy_test_set(counts=(9, 21), seed=9)
        model = LinearModel.init_random(2, 2, seed=10)
        counts = confusion(model, data)
        rates = per_class_error(model, data)
        derived = 1.0 - np.diag(counts) / counts.sum(axis=1)
        np.testing.assert_allclose(rates, derived, atol=0.0)
