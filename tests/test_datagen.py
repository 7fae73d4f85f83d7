"""Tests for imbalance profiles, synthetic samples, and file I/O."""

import numpy as np
import pytest

from imbloss.datagen import (
    Dataset,
    figure1_distribution,
    gaussian_mixture,
    imbalance_ratio,
    longtail_counts,
    read_dataset_csv,
    step_counts,
    write_dataset_csv,
)


class TestLongtailCounts:
    def test_two_classes(self):
        np.testing.assert_array_equal(longtail_counts(2, 100, 100), [100, 1])

    def test_ratio_one_is_balanced(self):
        np.testing.assert_array_equal(longtail_counts(5, 40, 1), [40] * 5)

    def test_three_classes_decade_steps(self):
        np.testing.assert_array_equal(longtail_counts(3, 100, 100), [100, 10, 1])

    def test_non_increasing_and_head_pinned(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(10, 2000))
            ratio = float(rng.uniform(1, 500))
            counts = longtail_counts(n, m, ratio)
            assert counts[0] == m
            assert np.all(np.diff(counts) <= 0)
            assert counts.min() >= 1

    def test_achieved_ratio_near_requested(self):
        for n, m, ratio in [(10, 500, 100), (10, 5000, 100), (7, 333, 47),
                            (4, 1000, 10), (2, 100, 100)]:
            counts = longtail_counts(n, m, ratio)
            achieved = imbalance_ratio(counts)
            tol = max(0.02, 2.0 / counts.min())
            assert abs(achieved - ratio) / ratio <= tol


class TestStepCounts:
    def test_two_group_split(self):
        np.testing.assert_array_equal(step_counts(4, 100, 100, 0.5),
                                      [100, 100, 1, 1])

    def test_ratio_one(self):
        np.testing.assert_array_equal(step_counts(6, 50, 1, 0.5), [50] * 6)

    def test_ten_class_example(self):
        counts = step_counts(10, 500, 10, 0.5)
        np.testing.assert_array_equal(counts[:5], [500] * 5)
        np.testing.assert_array_equal(counts[5:], [50] * 5)

    def test_two_distinct_values(self):
        counts = step_counts(9, 200, 25, 0.4)
        assert len(np.unique(counts)) == 2
        assert np.ceil(9 * 0.4) == np.sum(counts == counts.min())


class TestImbalanceRatio:
    def test_examples(self):
        assert imbalance_ratio([100, 1]) == 100.0
        assert imbalance_ratio([7, 7, 7]) == 1.0
        assert imbalance_ratio([100, 10, 1]) == 100.0


class TestGaussianMixture:
    def test_counts_honored(self):
        means = np.zeros((3, 2))
        data = gaussian_mixture(3, 2, [4, 7, 2], means, np.ones(3), seed=0)
        np.testing.assert_array_equal(data.class_counts(), [4, 7, 2])

    def test_zero_scale_collapses_to_means(self):
        means = np.array([[1.0, -2.0], [3.0, 4.0]])
        data = gaussian_mixture(2, 2, [5, 5], means, np.zeros(2), seed=0)
        np.testing.assert_array_equal(data.features[:5], np.tile(means[0], (5, 1)))
        np.testing.assert_array_equal(data.features[5:], np.tile(means[1], (5, 1)))

    def test_sample_means_concentrate(self):
        rng = np.random.default_rng(1)
        means = rng.normal(0, 2, (4, 6))
        counts = np.array([400, 300, 200, 100])
        scales = np.array([0.5, 1.0, 1.5, 2.0])
        data = gaussian_mixture(4, 6, counts, means, scales, seed=11)
        for k in range(4):
            rows = data.features[data.labels == k + 1]
            dev = np.abs(rows.mean(axis=0) - means[k])
            assert np.all(dev <= 4 * scales[k] / np.sqrt(counts[k]))


class TestFigure1Distribution:
    def test_class_fraction_concentrates(self):
        m = 40_000
        data = figure1_distribution(m, seed=2)
        frac = np.mean(data.labels == 1)
        assert abs(frac - 0.125) <= 4 * np.sqrt(0.125 * 0.875 / m)

    def test_x1_support(self):
        data = figure1_distribution(5000, seed=3)
        x1 = data.features[:, 0]
        assert x1.min() >= 0.0 and x1.max() <= 1.0

    def test_conditional_ratio_is_standard_normal_shifted(self):
        data = figure1_distribution(60_000, seed=4)
        x1, x2 = data.features[:, 0], data.features[:, 1]
        keep = x1 > 1e-9
        t = x2[keep] / x1[keep]
        for cls, center in [(1, 1.0), (2, -1.0)]:
            tc = t[data.labels[keep] == cls]
            assert abs(tc.mean() - center) < 5.0 / np.sqrt(tc.size)
            assert abs(tc.var() - 1.0) < 0.05


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        data = gaussian_mixture(3, 4, [3, 2, 4], np.zeros((3, 4)), np.ones(3),
                                seed=12)
        csv = tmp_path / "sample.csv"
        meta = tmp_path / "sample.meta.json"
        write_dataset_csv(data, csv, meta)
        back = read_dataset_csv(csv, meta, 3)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.n == data.n
        assert back.meta["counts"] == [3, 2, 4]

    def test_deterministic_bytes(self, tmp_path):
        data = figure1_distribution(50, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        meta = tmp_path / "meta.json"
        write_dataset_csv(data, p1, meta)
        write_dataset_csv(data, p2, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_one_based_labels(self, tmp_path):
        data = figure1_distribution(10, seed=1)
        path = tmp_path / "f.csv"
        write_dataset_csv(data, path, tmp_path / "f.meta.json")
        lines = path.read_text().splitlines()
        assert lines[0] == "f0,f1,label"
        labels = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
        assert labels <= {1, 2}


class TestDatasetValidation:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [1, 3], n=2)

    def test_stats_requires_every_class(self):
        data = Dataset(np.zeros((2, 2)), [1, 1], n=2)
        with pytest.raises(ValueError):
            data.stats()
