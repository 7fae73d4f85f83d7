"""Tests for the stable scalar/vector primitives."""

import numpy as np
import pytest

from imbloss.numerics import (argmax_highest, finite_diff_gradient,
                              newton_minimize)
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



def quadratic(centers, curvature):
    """objective(ids, rows) of f(x) = (x - c)^T A (x - c) / 2, c the center
    of each row's point: the values and gradients, each row's reduced
    alone, as newton_minimize requires."""
    def objective(ids, rows):
        diff = rows - centers[ids]
        grads = np.sum(diff[:, :, None] * curvature, axis=1)
        return 0.5 * np.sum(diff * grads, axis=1), grads
    return objective


class TestNewtonMinimize:
    curvature = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])

    def solve(self, centers, starts, radius=np.inf, block=1):
        objective = quadratic(centers, self.curvature)
        ids = np.arange(len(starts))
        return newton_minimize(objective, starts, *objective(ids, starts),
                               np.eye(3), block, radius=radius)

    def test_unbounded_reaches_the_minimizer(self):
        centers = np.array([[3.0, -2.0, 5.0], [0.1, 0.2, -0.3]])
        points, values = self.solve(centers, np.zeros((2, 3)))
        np.testing.assert_allclose(points, centers, rtol=0, atol=1e-8)
        np.testing.assert_allclose(values, 0.0, rtol=0, atol=1e-15)

    def test_bounded_ends_on_the_sphere_at_a_kkt_point(self):
        radius = 1.5
        centers = np.array([[3.0, -2.0, 5.0], [-4.0, 0.5, 0.0]])
        points, values = self.solve(centers, np.zeros((2, 3)), radius)
        objective = quadratic(centers, self.curvature)
        at, grads = objective(np.arange(2), points)
        np.testing.assert_array_equal(at, values)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), radius,
                                   rtol=0, atol=1e-12)
        # the projected-gradient residual x - P(x - g) vanishes at a KKT
        # point of the ball
        stepped = points - grads
        stepped *= radius / np.maximum(
            radius, np.linalg.norm(stepped, axis=1, keepdims=True))
        assert np.linalg.norm(points - stepped, axis=1).max() < 1e-8

    def test_lockstep_equals_solo_calls_where_the_ball_binds_for_some(self):
        # the ball binds for the first, third and fifth centers only
        rng = np.random.default_rng(3)
        centers = np.array([[3.0, -2.0, 5.0], [0.3, 0.2, -0.4],
                            [-4.0, 0.5, 0.0], [0.0, -0.9, 0.1],
                            [1.0, 1.0, 1.0]])
        starts = rng.uniform(-0.5, 0.5, centers.shape)
        radius = 1.2
        points, values = self.solve(centers, starts, radius, block=2)
        bound = np.isclose(np.linalg.norm(points, axis=1), radius,
                           rtol=0, atol=1e-12)
        assert bound.tolist() == [True, False, True, False, True]
        for i in range(len(centers)):
            point, value = self.solve(centers[i:i + 1], starts[i:i + 1],
                                      radius)
            assert point.tobytes() == points[i:i + 1].tobytes()
            assert value.tobytes() == values[i:i + 1].tobytes()
