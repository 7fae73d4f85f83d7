"""Numerically stable float64 primitives shared by every other module.

All arithmetic in this package is IEEE-754 float64 with no mixed
precision: the downstream consistency checks need to detect slacks on
the order of 1e-10, which narrower types cannot resolve.

Everything here is safe to call concurrently, and pure but for
``project_rows``, which scales its argument in place.
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


def project_rows(weights, norm_bound) -> bool:
    """Scale in place every row of ``weights`` (last axis) whose L2 norm
    exceeds norm_bound back onto the bound; whether any row did. Rounding
    can leave a scaled row above the bound."""
    norms = np.linalg.norm(weights, axis=-1, keepdims=True)
    over = norms > norm_bound
    if over.any():
        # Rows within the bound are scaled by exactly 1.0.
        weights *= np.divide(norm_bound, norms, out=np.ones_like(norms),
                             where=over)
    return over.any()


def _sphere_target(point, grad, curv, axes, radius):
    """The minimizer on ||z|| = radius of the model g.(z - x) +
    (z - x)^T H (z - x) / 2 at x = ``point``, H = axes diag(curv) axes^T
    with orthonormal ``axes`` spanning x, whose own minimizer lies outside:
    z = (H + lam I)^-1 (H x - g), Newton's method on 1/radius = 1/||z(lam)||
    rising from lam = 0 until lam stops rising (More & Sorensen 1983,
    "Computing a trust region step")."""
    beta = curv * (point @ axes) - grad @ axes  # H x - g, eigenbasis
    lam = 0.0
    while True:
        z = beta / (curv + lam)
        rise = (z @ z / (z @ (z / (curv + lam)))
                * (np.sqrt(z @ z) / radius - 1.0))
        if not lam + rise > lam:
            return axes @ z
        lam += rise


def newton_minimize(objective, points, value, grad, basis, block, *,
                    radius=np.inf, max_steps=10_000):
    """Damped Newton from each of the (P, k) rows ``points`` over the ball
    ||x|| <= radius, in lockstep; the final points and their values.

    ``value`` and ``grad`` are the objective and its gradient at the
    points; ``objective(ids, rows)`` returns both at an (R, k) array of
    iterates, row i one of point ids[i], each row's as if alone. The
    points move on the span of the orthonormal (k, r) ``basis``, which
    holds them when the ball binds.

    A point's direction is d = -H^-1 g on the basis, H from central
    differences of g (step DEFAULT_FD_STEP), symmetrized, one objective
    call per ``block`` points, its eigenvalues taken in absolute value and
    floored at 1e-12 of the largest (and 1e-30); its decrement g^T H^-1 g;
    its step 1 / max(1, |d|). A target x + d outside the ball gives way to
    the minimizer of the same model on the sphere, decrement -g.d. The
    trial point x + step d, projected until the projection is a no-op, is
    taken if f <= f(x) - 0.1 step decrement (a new direction follows),
    else the step halves: the cap and the halving keep the iterates out of
    plateaus such as the conditional errors' at one-hot softmax limits. A
    point stops when its new decrement, or its halved step times its
    decrement, falls below 1e-15 max(1, |f(x)|), or after ``max_steps``
    trial steps.

    One objective call per iteration takes every point's trial step. Each
    point leaves at the iteration its solo solve stops, with the solo
    (P = 1) result bit for bit: the per-point reductions are stacked
    matmuls and ``eigh`` calls, the BLAS and LAPACK calls of that point
    alone.
    """
    count, k = points.shape
    h, diag = DEFAULT_FD_STEP, np.arange(k)
    final, final_value = points.copy(), value.copy()
    ids = np.arange(count)
    # per point: its direction, decrement and step, whether it moved since
    # its direction was taken, and whether it stops
    direction, decrement = np.zeros_like(points), np.zeros(count)
    step, fresh = np.ones(count), np.ones(count, dtype=bool)
    done = ~fresh
    for _ in range(max_steps):
        if fresh.any():
            at = np.flatnonzero(fresh)
            hess = np.empty((at.size, k, k))
            for start in range(0, at.size, block):
                rows = at[start:start + block].repeat(2 * k)
                # per point, x + h e_j for each j, then x - h e_j
                tile = points[rows].reshape(-1, 2, k, k)
                tile[:, 0, diag, diag] += h
                tile[:, 1, diag, diag] -= h
                tile_grad = objective(ids[rows], tile.reshape(-1, k))[1]
                tile_grad = tile_grad.reshape(-1, 2, k, k)
                hess[start:start + block] = (
                    tile_grad[:, 0] - tile_grad[:, 1]) / (2 * h)
            sym = 0.5 * (hess + hess.transpose(0, 2, 1))
            curv, vecs = np.linalg.eigh(basis.T @ sym @ basis)
            curv = np.abs(curv)
            curv = np.maximum(curv, np.maximum(
                1e-12 * curv.max(axis=1, keepdims=True), 1e-30))
            coef = grad[at][:, None] @ basis @ vecs
            scaled = coef / curv[:, None, :]
            decrement[at] = (scaled @ coef.transpose(0, 2, 1)).reshape(-1)
            d = -(scaled @ vecs.transpose(0, 2, 1) @ basis.T)
            step[at] = 1.0 / np.maximum(
                1.0, np.sqrt(d @ d.transpose(0, 2, 1)).reshape(-1))
            direction[at] = d.reshape(-1, k)
            outside = np.linalg.norm(points[at] + direction[at],
                                     axis=1) > radius
            for j, i in zip(np.flatnonzero(outside).tolist(),
                            at[outside].tolist()):
                direction[i] = _sphere_target(
                    points[i], grad[i], curv[j], basis @ vecs[j],
                    radius) - points[i]
                decrement[i] = -(grad[i] @ direction[i])
                step[i] = 1.0 / max(1.0, np.linalg.norm(direction[i]))
            done |= fresh & (decrement < 1e-15 * np.maximum(1.0, abs(value)))
        if done.any():
            final[ids[done]], final_value[ids[done]] = points[done], value[done]
            stay = ~done
            (ids, points, value, grad, direction, decrement, step,
             fresh) = (a[stay] for a in (ids, points, value, grad, direction,
                                         decrement, step, fresh))
            if ids.size == 0:
                break
        candidate = points + step[:, None] * direction
        while project_rows(candidate, radius):
            pass
        cand_value, cand_grad = objective(ids, candidate)
        fresh = cand_value <= value - 0.1 * step * decrement
        points = np.where(fresh[:, None], candidate, points)
        value = np.where(fresh, cand_value, value)
        grad = np.where(fresh[:, None], cand_grad, grad)
        step = np.where(fresh, step, 0.5 * step)
        done = ~fresh & (step * decrement
                         < 1e-15 * np.maximum(1.0, abs(value)))
    final[ids], final_value[ids] = points, value
    return final, final_value


def argmax_highest(values):
    """Index of the maximum along the last axis, ties to the highest."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("values must have a non-empty last axis")
    top = arr.shape[-1] - 1 - np.argmax(arr[..., ::-1], axis=-1)
    return int(top) if top.ndim == 0 else top
