"""Tests for the stable scalar/vector primitives."""

import numpy as np
import pytest

from imbloss.numerics import argmax_highest, finite_diff_gradient
from oracles import gradient_rel_error


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
            fd = finite_diff_gradient(
                lambda u: np.log(np.sum(np.exp(u - u.max()))) + u.max(), v)
            softmax = np.exp(v - v.max()) / np.sum(np.exp(v - v.max()))
            assert gradient_rel_error(softmax, fd) < 1e-6

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

