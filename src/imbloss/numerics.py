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


def newton_steps(gradients, points, grad, basis, block: int):
    """Newton directions d = -H^-1 g of the (P, k) rows ``points`` with
    gradients ``grad`` on the span of the orthonormal (k, r) ``basis``,
    their squared decrements g^T H^-1 g, unit-capped steps 1 / max(1, |d|)
    and the eigenpairs (curv, vecs) of basis^T H basis. Row j of a point's
    H is (g(x + h e_j) - g(x - h e_j)) / 2h, h = DEFAULT_FD_STEP,
    symmetrized, from one ``gradients(rows, tile)`` call per ``block``
    points (tile row i a moved copy of point rows[i]); its eigenvalues are
    taken in absolute value and floored at 1e-12 of the largest (and 1e-30).
    """
    count, k = points.shape
    h, diag = DEFAULT_FD_STEP, np.arange(k)
    hess = np.empty((count, k, k))
    for start in range(0, count, block):
        rows = np.arange(count)[start:start + block].repeat(2 * k)
        # per point, x + h e_j for each j, then x - h e_j
        tile = points[rows].reshape(-1, 2, k, k)
        tile[:, 0, diag, diag] += h
        tile[:, 1, diag, diag] -= h
        tile_grad = gradients(rows, tile.reshape(-1, k)).reshape(-1, 2, k, k)
        hess[start:start + block] = (
            tile_grad[:, 0] - tile_grad[:, 1]) / (2 * h)
    sym = 0.5 * (hess + hess.transpose(0, 2, 1))
    curv, vecs = np.linalg.eigh(basis.T @ sym @ basis)
    curv = np.abs(curv)
    curv = np.maximum(curv, np.maximum(
        1e-12 * curv.max(axis=1, keepdims=True), 1e-30))
    coef = grad[:, None] @ basis @ vecs
    scaled = coef / curv[:, None, :]
    decrement = (scaled @ coef.transpose(0, 2, 1)).reshape(-1)
    d = -(scaled @ vecs.transpose(0, 2, 1) @ basis.T)
    length = np.sqrt(d @ d.transpose(0, 2, 1)).reshape(-1)
    return (d.reshape(count, k), decrement, 1.0 / np.maximum(1.0, length),
            curv, vecs)


def argmax_highest(values):
    """Index of the maximum along the last axis, ties to the highest."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("values must have a non-empty last axis")
    top = arr.shape[-1] - 1 - np.argmax(arr[..., ::-1], axis=-1)
    return int(top) if top.ndim == 0 else top
