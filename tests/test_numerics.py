"""Tests for the stable scalar/vector primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imbloss.numerics import (
    argmax_highest,
    finite_diff_gradient,
    gradient_rel_error,
    log_softmax,
    log_sum_exp,
    softmax,
)

score_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=-700.0, max_value=700.0),
)


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_single_term_is_identity(self):
        for a in (-3.5, 0.0, 1e-9, 123.456, -700.0, 700.0):
            assert log_sum_exp([a]) == pytest.approx(a, abs=0.0)

    def test_shift_identity(self):
        rng = np.random.default_rng(0)
        c = 7.3
        for _ in range(200):
            v = rng.normal(0, 5, size=rng.integers(2, 10))
            assert log_sum_exp(v + c) - log_sum_exp(v) == pytest.approx(c, abs=1e-12)

    def test_bracketed_by_max(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            v = rng.normal(0, 100, n)
            lse = log_sum_exp(v)
            assert v.max() <= lse <= v.max() + math.log(n) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.inf])
        with pytest.raises(ValueError):
            log_sum_exp([np.nan])


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3),
                                   atol=1e-15)

    def test_closed_form(self):
        np.testing.assert_allclose(softmax([math.log(4.0), 0.0]), [0.8, 0.2],
                                   atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.normal(0, 3, size=rng.integers(2, 8))
            np.testing.assert_allclose(softmax(v), softmax(v + 5.0), atol=1e-12)

    def test_sums_to_one_even_for_huge_logits(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.uniform(-700, 700, size=rng.integers(2, 8))
            assert abs(softmax(v).sum() - 1.0) < 1e-12

    def test_argmax_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.normal(0, 10, size=rng.integers(2, 8))
            if np.sum(v == v.max()) == 1:
                assert np.argmax(softmax(v)) == np.argmax(v)

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0, 4, 6)
        np.testing.assert_allclose(np.exp(log_softmax(v)), softmax(v), atol=1e-14)


class TestFiniteDiffGradient:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda v: float(np.sum(v**2)), [1.0, 2.0])
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda v: 3.25, [0.3, -0.7, 1.1])
        np.testing.assert_allclose(grad, np.zeros(3), atol=0.0)

    def test_log_sum_exp_gradient_is_softmax(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(0, 2, 5)
            fd = finite_diff_gradient(lambda u: log_sum_exp(u), v)
            assert gradient_rel_error(softmax(v), fd) < 1e-6

    def test_rejects_bad_step_and_nonfinite_f(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, [1.0], step=0.0)
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: float("nan"), [1.0])


class TestArgmaxHighest:
    def test_ties_go_to_highest_index(self):
        assert argmax_highest([2.0, 2.0]) == 1
        assert argmax_highest([1.0, 3.0, 3.0, 0.0]) == 2
        assert argmax_highest([0.0, 0.0, 0.0]) == 2

    def test_unique_max(self):
        assert argmax_highest([3.0, 1.0, 2.0]) == 0

    def test_stacks_reduce_the_last_axis_row_by_row(self):
        rng = np.random.default_rng(9)
        # few distinct values, so most rows hold ties
        stack = rng.integers(0, 3, (4, 50, 5)).astype(float)
        top = argmax_highest(stack)
        assert top.shape == (4, 50)
        for index in np.ndindex(4, 50):
            row = stack[index]
            ref = max(i for i in range(5) if row[i] == row.max())
            assert top[index] == ref == argmax_highest(row)
        assert isinstance(argmax_highest(stack[0, 0]), int)

    def test_rejects_empty_and_scalar(self):
        with pytest.raises(ValueError):
            argmax_highest(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            argmax_highest(1.0)


class TestSimplexProperties:
    @given(score_vectors)
    @settings(max_examples=200, deadline=None)
    def test_softmax_lands_on_the_simplex(self, v):
        p = softmax(v)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) < 1e-12

    @given(score_vectors)
    @settings(max_examples=200, deadline=None)
    def test_log_sum_exp_bracketed_by_max(self, v):
        lse = log_sum_exp(v)
        assert v.max() - 1e-12 <= lse <= v.max() + math.log(v.size) + 1e-12
