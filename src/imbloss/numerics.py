"""Numerically stable float64 primitives shared by every other module.

All arithmetic in this package is IEEE-754 float64 with no mixed
precision: the downstream consistency checks need to detect slacks on
the order of 1e-10, which narrower types cannot resolve.

Everything here is a pure function and safe to call concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Central-difference step: with float64, h ~ 1e-5 balances the O(h^2)
# truncation error against the O(eps/h) cancellation error.
DEFAULT_FD_STEP = 1e-5


def as_finite_array(values, name: str = "input") -> np.ndarray:
    """Convert to a float64 array, rejecting NaN/inf entries."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return arr


def softplus(x) -> float | np.ndarray:
    """log(1 + exp(x)), stable for large |x|."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
    return float(out) if out.ndim == 0 else out


def finite_diff_gradient(
    f: Callable[[np.ndarray], float],
    point,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central-difference gradient (f(v + h e_i) - f(v - h e_i)) / (2h).

    The workhorse oracle for checking analytic gradients. Non-finite
    values of f are rejected rather than silently propagated.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    base = as_finite_array(point, "point").copy()
    grad = np.empty_like(base)
    for i in range(base.size):
        orig = base[i]
        base[i] = orig + step
        f_plus = float(f(base))
        base[i] = orig - step
        f_minus = float(f(base))
        base[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(
                f"f returned a non-finite value near coordinate {i}: "
                f"f(+h)={f_plus}, f(-h)={f_minus}"
            )
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def argmax_highest(values):
    """Index of the maximum along the last axis, ties to the highest."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("values must have a non-empty last axis")
    top = arr.shape[-1] - 1 - np.argmax(arr[..., ::-1], axis=-1)
    return int(top) if top.ndim == 0 else top
