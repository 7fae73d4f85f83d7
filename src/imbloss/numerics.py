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


def log_sum_exp(scores) -> float | np.ndarray:
    """log(sum(exp(scores))) along the last axis, shifted by the max.

    Satisfies max(v) <= log_sum_exp(v) <= max(v) + log(n) and the shift
    identity log_sum_exp(v + c) = log_sum_exp(v) + c up to rounding.
    """
    arr = as_finite_array(scores, "scores")
    if arr.shape[-1] == 0:
        raise ValueError("scores must have at least one entry")
    m = np.max(arr, axis=-1, keepdims=True)
    out = np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(arr - m), axis=-1))
    return float(out) if out.ndim == 0 else out


def softmax(scores) -> np.ndarray:
    """Softmax along the last axis.

    Entry i equals exp(v_i - log_sum_exp(v)); computed as exp(v - max)
    normalized by its own sum so the output sums to 1 to within a few
    ulps even for entries as large as +-700.
    """
    arr = as_finite_array(scores, "scores")
    if arr.shape[-1] == 0:
        raise ValueError("scores must have at least one entry")
    e = np.exp(arr - np.max(arr, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(scores) -> np.ndarray:
    """log(softmax(scores)) along the last axis, without forming exp(v)."""
    arr = as_finite_array(scores, "scores")
    if arr.shape[-1] == 0:
        raise ValueError("scores must have at least one entry")
    shifted = arr - np.max(arr, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


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


def gradient_rel_error(analytic, reference) -> float:
    """Worst per-coordinate |a - r| / max(1, |a|).

    The denominator floor of 1 keeps tiny coordinates from inflating the
    error; this is the comparison used by every gradient check here.
    """
    a = np.asarray(analytic, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    denom = np.maximum(1.0, np.abs(a))
    return float(np.max(np.abs(a - r) / denom))


def argmax_highest(values):
    """Index of the maximum along the last axis, ties to the highest."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("values must have a non-empty last axis")
    top = arr.shape[-1] - 1 - np.argmax(arr[..., ::-1], axis=-1)
    return int(top) if top.ndim == 0 else top
