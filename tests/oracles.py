"""Independent reference oracles the tests compare the library against,
each assembled term by term from its definition."""

import numpy as np

from imbloss.losses import _LOG_PROB_FLOOR, PROB_FLOOR
from imbloss.numerics import as_finite_array, softplus


def log_softmax(scores) -> np.ndarray:
    """log(softmax(scores)) along the last axis, without forming exp(v)."""
    arr = as_finite_array(scores, "scores")
    if arr.shape[-1] == 0:
        raise ValueError("scores must have at least one entry")
    shifted = arr - np.max(arr, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


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


def gla_pointwise_minimizer(point, q: float) -> np.ndarray:
    """Adjusted-softmax target of the logit-adjusted generalized loss.

    The minimizing adjusted softmax puts mass proportional to
    p(y|x)^(1/(1-q)); at q = 0 it is the posterior itself.
    """
    if not (0.0 <= q < 1.0):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    powered = point.cond ** (1.0 / (1.0 - q))
    return powered / powered.sum()


def eval_balanced_loss(prediction: int, label: int, priors) -> float:
    """Prior-weighted misclassification: 0 if correct, else 1 / p(label)."""
    priors = as_finite_array(priors, "priors")
    n = priors.size
    if not (1 <= label <= n and 1 <= prediction <= n):
        raise ValueError(f"prediction/label must lie in 1..{n}")
    if priors[label - 1] <= 0:
        raise ValueError("label prior must be positive")
    return 0.0 if prediction == label else float(1.0 / priors[label - 1])


def bal_regret_bruteforce(point, predicted: int) -> float:
    """Conditional balanced error of a ConditionalPoint's prediction minus
    the best one, both assembled term by term from the 0/1 loss."""
    def cond_error(label):
        return sum(
            point.cond[y - 1] * eval_balanced_loss(label, y, point.priors)
            for y in range(1, point.n + 1)
        )
    if predicted not in point.reachable:
        raise ValueError(f"predicted label {predicted} is not reachable")
    best = min(cond_error(label) for label in point.reachable)
    return cond_error(predicted) - best


def focal_loss_and_grad(gamma, scores, labels, want_grad=True):
    """FOCAL values (1 - u)^gamma * -log u, u the label's softmax floored at
    1e-300 under the log, and their score gradients, row-major on one
    (m, n) block: the reference the class-major loss core reproduces bit
    for bit."""
    m, n = scores.shape
    rows, idx = np.arange(m), labels - 1
    onehot = np.zeros((m, n))
    onehot[rows, idx] = 1.0
    # log_softmax without its finiteness check, which a
    # diverging run's row would fail for the whole table
    shifted = scores - scores.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_u = logp[rows, idx]
    ce = -np.maximum(log_u, _LOG_PROB_FLOOR)
    u = np.exp(log_u)
    one_minus_u = np.maximum(1.0 - u, 0.0)
    values = one_minus_u**gamma * ce
    if not want_grad:
        return values, None
    probs = np.exp(logp)
    # dL/du with the u -> 1 limit handled explicitly (both terms -> 0).
    if gamma == 0.0:
        dl_du = -1.0 / np.maximum(u, PROB_FLOOR)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            dl_du = np.where(
                one_minus_u > 0.0,
                -gamma * one_minus_u ** (gamma - 1.0) * ce
                - one_minus_u**gamma / np.maximum(u, PROB_FLOOR),
                0.0,
            )
    du_ds = u[:, None] * (onehot - probs)
    grads = dl_du[:, None] * du_ds
    return values, grads


def equal_loss_and_grad(gated, scores, labels, want_grad=True):
    """EQUAL values -log of the label's softmax over the classes that
    ``gated`` (an (m, n) 0/1 array: the drawn gates times the block's
    rare-class mask) leaves in, the label always in, and their score
    gradients, row-major on one (m, n) block: the reference the
    class-major loss core reproduces bit for bit."""
    m, n = scores.shape
    rows, idx = np.arange(m), labels - 1
    onehot = np.zeros((m, n))
    onehot[rows, idx] = 1.0
    live = gated * (1.0 - onehot) == 0.0
    # Log-sum-exp over the classes left ungated (the true class always
    # is), shifted by their max: a gated class scoring far above them
    # would underflow every ungated term to 0 and the loss to -inf.
    shifted = scores - np.where(live, scores, -np.inf).max(axis=1,
                                                           keepdims=True)
    masked = np.exp(np.where(live, shifted, -np.inf))
    denom = masked.sum(axis=1)
    values = np.log(denom) - shifted[rows, idx]
    grads = masked / denom[:, None] - onehot if want_grad else None
    return values, grads


def _comp_sum_psi(x, tau):
    """Psi(x) = Phi^tau(e^{-x}) with the comp-sum transform Phi^tau.

    Phi^tau(u) = log(1 + u) at tau = 1, ((1 + u)^(1 - tau) - 1) / (1 - tau)
    otherwise; decreasing in x, with Psi(0) = log 2 at tau = 1.
    """
    sp = softplus(-np.asarray(x, dtype=np.float64))  # log(1 + e^{-x})
    if tau == 1.0:
        return sp
    return np.expm1((1.0 - tau) * sp) / (1.0 - tau)


def _comp_sum_psi_prime(x, tau):
    """d/dx Psi(x) = -e^{-x} (1 + e^{-x})^{-tau}."""
    return -np.exp(-x - tau * softplus(-x))


def csmax_loss_and_grad(scores, idx, cost, rho, tau, want_grad):
    """CSMAX values cost * Psi((s_y - s_j*) / rho), j* the smallest index of
    the top score, and their score (sub)gradients, row-major on one (m, n)
    block with 0-based labels ``idx`` and one cost per row: the reference
    the class-major loss core reproduces bit for bit."""
    m, n = scores.shape
    rows = np.arange(m)
    gaps = (scores[rows, idx][:, None] - scores) / rho
    # Psi is strictly decreasing, so the max over y' is attained where the
    # competing score is largest; ties resolve to the smallest index.
    top = scores.max(axis=1, keepdims=True)
    attain = scores >= top  # exact-equality tie set
    jstar = np.argmax(attain, axis=1)  # first True = smallest attaining index
    vstar = gaps[rows, jstar]
    values = cost * _comp_sum_psi(vstar, tau)
    grads = None
    if want_grad:
        slope = cost * _comp_sum_psi_prime(vstar, tau) / rho
        grads = np.zeros((m, n))
        grads[rows, idx] += slope
        grads[rows, jstar] -= slope
    return values, grads
