"""Evaluation metrics for imbalanced test sets.

The headline metric is the *balanced error*: the sum of per-class error
rates (total error, not divided by the number of classes), which equals
the empirical mean of the prior-weighted zero-one loss under the test
set's own empirical class priors. Its range is [0, n].
"""

from __future__ import annotations

import numpy as np

from .datagen import Dataset
from .trainer import predict_batch


def _check_all_classes_present(test: Dataset) -> np.ndarray:
    counts = test.class_counts()
    if np.any(counts == 0):
        missing = int(np.argmax(counts == 0)) + 1
        raise ValueError(f"class {missing} is absent from the test set")
    return counts


def confusion(model, test: Dataset) -> np.ndarray:
    """(n, n) int64 counts: [i, j] is the number of true-class-(i+1)
    examples predicted (j+1); trace / m is the plain accuracy."""
    preds = predict_batch(model, test.features)
    counts = np.zeros((test.n, test.n), dtype=np.int64)
    np.add.at(counts, (test.labels - 1, preds - 1), 1)
    return counts


def per_class_error(model, test: Dataset) -> np.ndarray:
    """Fraction of each true class that is misclassified."""
    counts = _check_all_classes_present(test)
    preds = predict_batch(model, test.features)
    wrong = np.zeros(test.n, dtype=np.int64)
    np.add.at(wrong, test.labels - 1, (preds != test.labels).astype(np.int64))
    return wrong / counts


def balanced_error(model, test: Dataset) -> float:
    """Sum over classes of the per-class test error rate; range [0, n].

    Equals the empirical mean of the prior-weighted zero-one loss with
    the test set's empirical priors.
    """
    return float(per_class_error(model, test).sum())
