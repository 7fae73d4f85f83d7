"""Loss families for multi-class classification under class imbalance.

Implements closed-form values and analytic score gradients for:

* ``CE``     plain cross-entropy (softmax log loss),
* ``WCE``    class-weighted cross-entropy, weight m / m_y,
* ``LA``     logit-adjusted cross-entropy, logits shifted by tau * log p(y),
* ``EQUAL``  equalization loss with per-class Bernoulli gating of the
             softmax denominator,
* ``CB``     class-balanced weighting (1 - gamma) / (1 - gamma^(m_y / m)),
* ``FOCAL``  focal modulation (1 - p_y)^gamma of the log loss,
* ``LDAM``   label-distribution-aware margin, true-class logit shifted
             down by C / m_y^(1/4),
* ``GCE``    generalized cross-entropy Psi^q(softmax_y),
* ``GLA``    generalized logit-adjusted loss: GCE on logits shifted by
             log p(y) / (1 - q),
* ``GCA``    generalized class-aware loss: GCE weighted by 1 / p(y) with
             all scores divided by the true class's confidence margin,
* ``CSMAX``  cost-sensitive max-margin surrogate
             c * max_y' Psi((s_y - s_y') / rho) with a comp-sum link
             (c = 1/p(y) when evaluated through a LossSpec; eval_csmax
             takes the cost explicitly).

Conventions used throughout the package:

* class labels are 1-based integers in 1..n;
* every loss is evaluated in log space (log-softmax) wherever a log
  follows a softmax, so large logits never cancel catastrophically;
* softmax probabilities are floored at 1e-300 before -log so the q = 0
  link saturates instead of overflowing;
* the class weight for weighted losses is the single canonical array
  ``ClassStats.inv_priors`` (m / m_k), so "1 / prior" and "m / m_k" are
  the same float everywhere.

All evaluation is pure given its inputs; the EQUAL loss's randomness is
injected by the caller (a generator or explicit draws), never global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_finite_array, log_softmax, softplus

FAMILIES = (
    "CE", "WCE", "LA", "EQUAL", "CB", "FOCAL", "LDAM",
    "GCE", "GLA", "GCA", "CSMAX",
)

# Probability floor applied before -log; invisible at test tolerances but
# keeps the q = 0 link finite for arbitrarily bad score vectors.
PROB_FLOOR = 1e-300
_LOG_PROB_FLOOR = math.log(PROB_FLOOR)


class ClassStats:
    """Per-class training counts and the empirical label distribution.

    ``priors[k]`` is m_k / m and ``inv_priors[k]`` is m / m_k. The latter
    is the canonical class weight used by every weighted loss so that
    the "1 / p(y)" and "m / m_y" forms coincide exactly.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty vector")
        if np.any(counts < 1):
            raise ValueError(f"every class needs at least one example, got {counts}")
        self.counts = counts
        self.total = int(counts.sum())
        self.priors = counts / self.total
        self.inv_priors = self.total / counts
        self.log_priors = np.log(self.priors)
        self.p_min = float(self.priors.min())
        self.n = int(counts.size)

    @classmethod
    def from_labels(cls, labels, n: int | None = None) -> "ClassStats":
        """Build stats from 1-based labels; every class in 1..n must occur."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("labels must be non-empty")
        n = int(n if n is not None else labels.max())
        if labels.min() < 1 or labels.max() > n:
            raise ValueError(f"labels must lie in 1..{n}")
        counts = np.bincount(labels - 1, minlength=n)
        return cls(counts)

    def __repr__(self) -> str:
        return f"ClassStats(counts={self.counts.tolist()})"


class PriorStats:
    """Class statistics given directly as a label distribution.

    Duck-types the parts of :class:`ClassStats` the losses need when the
    class marginal is a known distribution rather than empirical counts
    (the substrate of all distribution-level consistency checks). Losses
    that need raw integer counts (LDAM) reject PriorStats.

    ``priors`` is one marginal (a vector), or an (m, n) array holding one
    marginal per score row of the batch it is evaluated with; every
    statistic then has that shape and ``p_min`` is per row.
    """

    counts = None

    def __init__(self, priors):
        priors = as_finite_array(priors, "priors")
        if priors.ndim not in (1, 2) or priors.size == 0:
            raise ValueError("priors must be a non-empty vector or (m, n) array")
        if np.any(priors <= 0):
            raise ValueError("priors must be strictly positive")
        sums = priors.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"priors must sum to 1, got {sums!r}")
        self.priors = priors
        self.inv_priors = 1.0 / priors
        self.log_priors = np.log(priors)
        self.p_min = (float(priors.min()) if priors.ndim == 1
                      else priors.min(axis=1))
        self.n = int(priors.shape[-1])

    def __repr__(self) -> str:
        return f"PriorStats(priors={self.priors.tolist()})"


@dataclass(frozen=True)
class LossSpec:
    """Tagged descriptor of a loss family and its hyperparameters.

    Exactly the hyperparameters required by ``family`` must be set:

    ====== =======================================================
    CE      (none)
    WCE     (none)
    LA      tau > 0
    EQUAL   eq_p in (0, 1), eq_lambda in (0, 1)
    CB      gamma in (0, 1)
    FOCAL   gamma >= 0
    LDAM    cap_c > 0
    GCE     q in [0, 1)
    GLA     q in [0, 1)
    GCA     q in [0, 1), margins: positive per-class vector
    CSMAX   rho_margin > 0, psi_tau >= 0
    ====== =======================================================
    """

    family: str
    q: float | None = None
    tau: float | None = None
    margins: tuple[float, ...] | None = None
    gamma: float | None = None
    cap_c: float | None = None
    eq_p: float | None = None
    eq_lambda: float | None = None
    rho_margin: float | None = None
    psi_tau: float | None = None

    _REQUIRED = {
        "CE": (),
        "WCE": (),
        "LA": ("tau",),
        "EQUAL": ("eq_p", "eq_lambda"),
        "CB": ("gamma",),
        "FOCAL": ("gamma",),
        "LDAM": ("cap_c",),
        "GCE": ("q",),
        "GLA": ("q",),
        "GCA": ("q", "margins"),
        "CSMAX": ("rho_margin", "psi_tau"),
    }

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        required = self._REQUIRED[self.family]
        fields = ("q", "tau", "margins", "gamma", "cap_c",
                  "eq_p", "eq_lambda", "rho_margin", "psi_tau")
        for name in fields:
            value = getattr(self, name)
            if name in required and value is None:
                raise ValueError(f"{self.family} requires {name}")
            if name not in required and value is not None:
                raise ValueError(f"{self.family} does not accept {name}")
        if self.margins is not None:
            margins = tuple(float(r) for r in self.margins)
            if any(r <= 0 for r in margins) or len(margins) == 0:
                raise ValueError(f"margins must be positive, got {margins}")
            object.__setattr__(self, "margins", margins)
        if self.q is not None and not (0.0 <= self.q < 1.0):
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.family == "CB" and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"CB gamma must lie in (0, 1), got {self.gamma}")
        if self.family == "FOCAL" and self.gamma < 0:
            raise ValueError(f"FOCAL gamma must be >= 0, got {self.gamma}")
        if self.cap_c is not None and self.cap_c <= 0:
            raise ValueError(f"cap_c must be positive, got {self.cap_c}")
        if self.eq_p is not None and not (0.0 < self.eq_p < 1.0):
            raise ValueError(f"eq_p must lie in (0, 1), got {self.eq_p}")
        if self.eq_lambda is not None and not (0.0 < self.eq_lambda < 1.0):
            raise ValueError(f"eq_lambda must lie in (0, 1), got {self.eq_lambda}")
        if self.rho_margin is not None and self.rho_margin <= 0:
            raise ValueError(f"rho_margin must be positive, got {self.rho_margin}")
        if self.psi_tau is not None and self.psi_tau < 0:
            raise ValueError(f"psi_tau must be >= 0, got {self.psi_tau}")

    def hyperparams(self) -> dict:
        """Non-None hyperparameters as a plain dict (for reports/configs)."""
        out = {}
        for name in ("q", "tau", "margins", "gamma", "cap_c",
                     "eq_p", "eq_lambda", "rho_margin", "psi_tau"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


def psi_q(t: float, q: float) -> float:
    """Generalized cross-entropy link: -log(t) at q = 0, else (1 - t^q)/q.

    t = 0 is accepted only at q = 0, where the value saturates at
    -log(1e-300) instead of overflowing.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if q == 0.0:
        if t < 0:
            raise ValueError(f"t must be in [0, 1] for q = 0, got {t}")
        return -math.log(max(t, PROB_FLOOR))
    if t <= 0:
        raise ValueError(f"t must be positive for q > 0, got {t}")
    return (1.0 - t**q) / q


def default_gca_margins(stats: ClassStats) -> np.ndarray:
    """Per-class confidence margins m_k^(1/3) normalized to sum 1.

    The cube-root profile gives rare classes smaller margins; the
    normalization keeps the vector scale-free.
    """
    roots = np.cbrt(stats.counts.astype(np.float64))
    return roots / roots.sum()


# ---------------------------------------------------------------------------
# Batch core. scores is (m, n); labels is (m,) of 1-based ints. All the
# scalar entry points below are thin wrappers over these so the trainer and
# the per-example API cannot drift apart.
# ---------------------------------------------------------------------------


def _check_batch(scores, labels, n_expected=None):
    scores = as_finite_array(scores, "scores")
    if scores.ndim == 1:
        scores = scores[None, :]
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError("scores must be (m, n) with n >= 2")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != scores.shape[0]:
        raise ValueError("scores and labels must have the same length")
    n = scores.shape[1]
    if n_expected is not None and n != n_expected:
        raise ValueError(f"scores have {n} classes, expected {n_expected}")
    if labels.min() < 1 or labels.max() > n:
        raise ValueError(f"labels must lie in 1..{n}")
    return scores, labels


def _gce_core(adjusted, idx, q):
    """Psi^q of softmax(adjusted) at each row's label (0-based idx).

    Returns (values, probs, label_prob_pow_q) so gradient code can reuse
    the softmax. Values use the log-softmax path with the 1e-300 floor.
    """
    logp = log_softmax(adjusted)
    rows = np.arange(adjusted.shape[0])
    log_t = logp[rows, idx]
    if q == 0.0:
        values = -np.maximum(log_t, _LOG_PROB_FLOOR)
        t_pow_q = np.ones_like(log_t)
    else:
        t_pow_q = np.exp(q * log_t)
        values = (1.0 - t_pow_q) / q
    return values, np.exp(logp), t_pow_q


def _label_stat(table, rows, idx):
    """Each row's entry of a per-class statistic at its label (0-based
    idx): ``table[idx]`` for one marginal, ``table[rows, idx]`` for one
    marginal per row."""
    return table[idx] if table.ndim == 1 else table[rows, idx]


def draw_equal_gates(spec: LossSpec, rng: np.random.Generator, shape):
    """EQUAL's Bernoulli(eq_p) gate draws: a 0/1 float array of ``shape``."""
    return (rng.random(shape) < spec.eq_p).astype(np.float64)


def batch_loss_and_grad(
    spec: LossSpec,
    scores,
    labels,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng: np.random.Generator | None = None,
    want_grad: bool = True,
):
    """Per-example loss values and score gradients for a batch.

    ``equal_draws`` (an (m, n) 0/1 array) fixes the EQUAL loss's Bernoulli
    gate; otherwise the draws come from ``rng``. A :class:`PriorStats` with
    (m, n) priors gives each row its own class marginal. Returns
    ``(values, grads)`` where grads is None when want_grad is False.
    """
    family = spec.family
    needs_stats = family not in ("CE", "FOCAL", "GCE")
    if needs_stats and stats is None:
        raise ValueError(f"{family} requires ClassStats")
    scores, labels = _check_batch(scores, labels, stats.n if stats else None)
    m, n = scores.shape
    if stats is not None and stats.priors.ndim == 2 and len(stats.priors) != m:
        raise ValueError(f"stats have {len(stats.priors)} rows, expected {m}")
    idx = labels - 1
    rows = np.arange(m)
    onehot = np.zeros((m, n))
    onehot[rows, idx] = 1.0

    if family in ("CE", "WCE", "LA", "CB", "LDAM"):
        if family == "LA":
            adjusted = scores + spec.tau * stats.log_priors
        elif family == "LDAM":
            if stats.counts is None:
                raise ValueError("LDAM needs integer class counts (ClassStats)")
            delta = spec.cap_c / stats.counts.astype(np.float64) ** 0.25
            adjusted = scores.copy()
            adjusted[rows, idx] -= delta[idx]
        else:
            adjusted = scores
        values, probs, _ = _gce_core(adjusted, idx, 0.0)
        if family == "WCE":
            weight = _label_stat(stats.inv_priors, rows, idx)
        elif family == "CB":
            gamma = spec.gamma
            weight = (1.0 - gamma) / (
                1.0 - gamma ** _label_stat(stats.priors, rows, idx))
        else:
            weight = np.ones(m)
        values = weight * values
        grads = weight[:, None] * (probs - onehot) if want_grad else None
        return values, grads

    if family == "FOCAL":
        gamma = spec.gamma
        logp = log_softmax(scores)
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

    if family in ("GCE", "GLA"):
        q = spec.q
        if family == "GLA":
            adjusted = scores + stats.log_priors / (1.0 - q)
        else:
            adjusted = scores
        values, probs, t_pow_q = _gce_core(adjusted, idx, q)
        grads = t_pow_q[:, None] * (probs - onehot) if want_grad else None
        return values, grads

    if family == "GCA":
        q = spec.q
        margins = np.asarray(spec.margins, dtype=np.float64)
        if margins.size != n:
            raise ValueError(f"margins have length {margins.size}, expected {n}")
        rho = margins[idx]
        scaled = scores / rho[:, None]
        values, probs, t_pow_q = _gce_core(scaled, idx, q)
        weight = _label_stat(stats.inv_priors, rows, idx)
        values = weight * values
        grads = None
        if want_grad:
            grads = (weight / rho * t_pow_q)[:, None] * (probs - onehot)
        return values, grads

    if family == "EQUAL":
        if equal_draws is None:
            if rng is None:
                raise ValueError("EQUAL needs equal_draws or an rng")
            equal_draws = draw_equal_gates(spec, rng, (m, n))
        draws = np.asarray(equal_draws, dtype=np.float64)
        if draws.shape != (m, n):
            raise ValueError(f"equal_draws must be shape {(m, n)}")
        rare = (stats.priors < spec.eq_lambda).astype(np.float64)
        weights = 1.0 - draws * rare * (1.0 - onehot)
        # Masked log-sum-exp over classes with weight 1 (weights are 0/1
        # and the true class always has weight 1).
        shifted = scores - scores.max(axis=1, keepdims=True)
        masked = np.exp(shifted) * weights
        denom = masked.sum(axis=1)
        values = np.log(denom) - shifted[rows, idx]
        grads = masked / denom[:, None] - onehot if want_grad else None
        return values, grads

    if family == "CSMAX":
        cost = _label_stat(stats.inv_priors, rows, idx)
        return _csmax_batch(scores, idx, cost, spec.rho_margin, spec.psi_tau,
                            want_grad)

    raise ValueError(f"unknown loss family {family!r}")


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
    x = np.asarray(x, dtype=np.float64)
    return -np.exp(-x - tau * softplus(-x))


def _csmax_batch(scores, idx, cost, rho, tau, want_grad):
    m, n = scores.shape
    rows = np.arange(m)
    gaps = (scores[rows, idx][:, None] - scores) / rho
    # Psi is strictly decreasing, so the max over y' is attained where the
    # competing score is largest; ties resolve to the smallest index.
    top = scores.max(axis=1, keepdims=True)
    attain = scores >= top  # exact-equality tie set
    jstar = np.argmax(attain, axis=1)  # first True = smallest attaining index
    vstar = gaps[rows, jstar]
    values = np.asarray(cost, dtype=np.float64) * _comp_sum_psi(vstar, tau)
    grads = None
    if want_grad:
        slope = np.asarray(cost) * _comp_sum_psi_prime(vstar, tau) / rho
        grads = np.zeros((m, n))
        grads[rows, idx] += slope
        grads[rows, jstar] -= slope
    return values, grads


# ---------------------------------------------------------------------------
# Scalar entry points.
# ---------------------------------------------------------------------------


def eval_loss(
    spec: LossSpec,
    scores,
    label: int,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng: np.random.Generator | None = None,
) -> float:
    """Loss value of any family on a single score vector."""
    draws = None if equal_draws is None else np.asarray(equal_draws)[None, :]
    values, _ = batch_loss_and_grad(
        spec, np.asarray(scores)[None, :], [label], stats,
        equal_draws=draws, rng=rng, want_grad=False,
    )
    return float(values[0])


def eval_grad(
    spec: LossSpec,
    scores,
    label: int,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gradient of the loss with respect to the score vector.

    EQUAL must be conditioned on fixed draws (or a generator supplying
    them); CSMAX returns the subgradient of the smallest maximizing index
    at ties.
    """
    draws = None if equal_draws is None else np.asarray(equal_draws)[None, :]
    _, grads = batch_loss_and_grad(
        spec, np.asarray(scores)[None, :], [label], stats,
        equal_draws=draws, rng=rng,
    )
    return grads[0]


def eval_csmax(
    scores,
    label: int,
    cost: float,
    rho_margin: float,
    psi_tau: float,
) -> float:
    """Cost-sensitive max surrogate c * max_y' Psi((s_y - s_y') / rho).

    The max runs over all y' including the label itself, whose term is
    Psi(0); with the logistic link (psi_tau = 1) that floor is log 2.
    """
    if rho_margin <= 0:
        raise ValueError(f"rho_margin must be positive, got {rho_margin}")
    if cost < 0:
        raise ValueError(f"cost must be >= 0, got {cost}")
    scores, labels = _check_batch(np.asarray(scores)[None, :], [label])
    values, _ = _csmax_batch(scores, labels - 1, np.array([cost]),
                             rho_margin, psi_tau, want_grad=False)
    return float(values[0])


def eval_balanced_loss(prediction: int, label: int, priors) -> float:
    """Prior-weighted misclassification: 0 if correct, else 1 / p(label)."""
    priors = as_finite_array(priors, "priors")
    n = priors.size
    if not (1 <= label <= n and 1 <= prediction <= n):
        raise ValueError(f"prediction/label must lie in 1..{n}")
    if priors[label - 1] <= 0:
        raise ValueError("label prior must be positive")
    return 0.0 if prediction == label else float(1.0 / priors[label - 1])
