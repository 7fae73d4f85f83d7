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
             c * max_y' Psi((s_y - s_y') / rho) with a comp-sum link,
             c = 1/p(y).

CE, WCE, LA, CB, LDAM, GCE, GLA and GCA (the Psi families) share one code
path, weight_y * Psi^q(softmax(adjusted scores)_y): ``loss_table`` turns
each (LossSpec, class statistics) pair into per-class numbers (shifts, a
divisor, a weight and q), so one call evaluates any mix of them. That
path is class-major: it transposes the adjusted scores once to (n, m), so
every reduction and broadcast over the classes runs along m-long rows,
and it adds the classes in the exact order of numpy's last-axis sum over
a row: one by one for n < 8, numpy's pairwise tree of eight running sums
for 8 <= n <= 128, and numpy's own sum beyond. Its values and gradients
are therefore bit for bit those of the row-major log-softmax. Adjusted
scores that overflow give non-finite values, which a caller such as the
trainer reads as divergence.

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
from dataclasses import dataclass, fields

import numpy as np

from .numerics import as_finite_array, softplus

FAMILIES = (
    "CE", "WCE", "LA", "EQUAL", "CB", "FOCAL", "LDAM",
    "GCE", "GLA", "GCA", "CSMAX",
)
PSI_FAMILIES = ("CE", "WCE", "LA", "CB", "LDAM", "GCE", "GLA", "GCA")

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
        self.n = counts.size

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
    """

    counts = None

    def __init__(self, priors):
        priors = as_finite_array(priors, "priors")
        if priors.ndim != 1 or priors.size == 0:
            raise ValueError("priors must be a non-empty vector")
        if np.any(priors <= 0):
            raise ValueError("priors must be strictly positive")
        if abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1, got {priors.sum()!r}")
        self.priors = priors
        self.inv_priors = 1.0 / priors
        self.log_priors = np.log(priors)
        self.p_min = float(priors.min())
        self.n = priors.size

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
        for name in HYPERPARAMETERS:
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
        for name in HYPERPARAMETERS:
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        return out


# LossSpec's hyperparameter names, in field order.
HYPERPARAMETERS = tuple(f.name for f in fields(LossSpec))[1:]


def default_gca_margins(stats: ClassStats) -> np.ndarray:
    """Per-class confidence margins m_k^(1/3) normalized to sum 1.

    The cube-root profile gives rare classes smaller margins; the
    normalization keeps the vector scale-free.
    """
    roots = np.cbrt(stats.counts.astype(np.float64))
    return roots / roots.sum()


@dataclass(frozen=True, eq=False)
class LossTable:
    """Per-class loss parameters of B blocks of score rows, one row per
    block, as :func:`loss_table` builds them; B * s score rows hold block
    b in rows b * s to (b + 1) * s - 1.

    A Psi family is weight_y * Psi^q(softmax(s')_y) with s' = (s -
    neg_shift - label_shift_y e_y) / rho_y, every (B, n) column read at
    the row's block, and q one per block. ``gate`` marks the classes
    EQUAL may gate out, ``weight`` is also CSMAX's cost, and ``spec`` is
    the one spec of a FOCAL, EQUAL or CSMAX table (None for Psi).
    """

    neg_shift: np.ndarray
    label_shift: np.ndarray
    rho: np.ndarray
    weight: np.ndarray
    gate: np.ndarray
    q: np.ndarray
    spec: LossSpec | None

    def __getitem__(self, blocks) -> "LossTable":
        """The table of the selected blocks (an index array or a mask)."""
        return LossTable(*(getattr(self, f.name)[blocks]
                           for f in fields(self)[:-1]), self.spec)


def loss_table(blocks, n: int) -> LossTable:
    """The LossTable of ``blocks``, (LossSpec, stats) pairs over n classes.

    Any mix of Psi families (CE, WCE, LA, CB, LDAM, GCE, GLA, GCA) may
    share a table; FOCAL, EQUAL and CSMAX need one spec for every block.
    A parameter a family lacks is an exact identity: x - 0.0 (which keeps
    -0.0, where x + 0.0 would not), x / 1.0, x * 1.0 and q = 0.
    """
    specs = [spec for spec, _ in blocks]
    psi = all(spec.family in PSI_FAMILIES for spec in specs)
    if not psi and any(spec != specs[0] for spec in specs):
        raise ValueError("FOCAL, EQUAL and CSMAX need one spec per table")
    zero, one = np.zeros(n), np.ones(n)
    rows = []
    for spec, stats in blocks:
        family = spec.family
        if stats is None and family not in ("CE", "FOCAL", "GCE"):
            raise ValueError(f"{family} requires ClassStats")
        if stats is not None and stats.n != n:
            raise ValueError(f"stats have {stats.n} classes, expected {n}")
        q = spec.q or 0.0
        neg_shift, label_shift, rho, weight, gate = zero, zero, one, one, zero
        if family == "LA":
            neg_shift = -(spec.tau * stats.log_priors)
        elif family == "GLA":
            neg_shift = -(stats.log_priors / (1.0 - q))
        elif family == "LDAM":
            if stats.counts is None:
                raise ValueError("LDAM needs integer class counts (ClassStats)")
            label_shift = spec.cap_c / stats.counts.astype(np.float64) ** 0.25
        elif family == "GCA":
            rho = np.asarray(spec.margins, dtype=np.float64)
            if rho.size != n:
                raise ValueError(
                    f"margins have length {rho.size}, expected {n}")
        elif family == "CB":
            weight = (1.0 - spec.gamma) / (1.0 - spec.gamma ** stats.priors)
        elif family == "EQUAL":
            gate = (stats.priors < spec.eq_lambda).astype(np.float64)
        if family in ("WCE", "GCA", "CSMAX"):
            weight = stats.inv_priors
        rows.append((neg_shift, label_shift, rho, weight, gate, q))
    return LossTable(*(np.array(column) for column in zip(*rows)),
                     spec=None if psi else specs[0])


# ---------------------------------------------------------------------------
# Batch core. scores is (m, n); labels is (m,) of 1-based ints. All the
# scalar entry points below are thin wrappers over these so the trainer and
# the per-example API cannot drift apart.
# ---------------------------------------------------------------------------


def _check_batch(scores, labels, n_expected):
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


def _class_sum(values):
    """Sum over axis 0 of a class-major (n, m) array, in the order numpy's
    last-axis sum adds each row of the row-major (m, n) array.

    That order is sequential for n < 8; for 8 <= n <= 128 it keeps eight
    running sums over blocks of eight classes, adds them as the tree
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the
    leftover classes one by one; beyond 128 classes it is numpy's own.
    """
    n = len(values)
    if n < 8:  # numpy adds the rows of an axis-0 sum one by one
        return values.sum(axis=0)
    if n > 128:
        return np.ascontiguousarray(values.T).sum(axis=1)
    tail = n - n % 8
    acc = values[:8]
    for i in range(8, tail, 8):
        acc = acc + values[i:i + 8]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in values[tail:]:
        total += row
    return total


def _exp(x):
    """np.exp(x), bit for bit, without numpy's slow path for underflow.

    numpy's vectorized exp slows down tenfold or more on every SIMD block
    that holds an entry below about -707.5, where its result nears the
    subnormals (numpy 2.4, AVX-512); trained scores put many there. Such entries are set
    apart: below -746 the result is exactly 0.0, and the few in between
    are computed on their own.
    """
    if x.min() >= -700.0:
        return np.exp(x)
    low = x < -700.0
    out = np.exp(np.maximum(x, -700.0))
    out *= ~low
    band = low & (x >= -746.0)
    out[band] = np.exp(x[band])
    return out


def _psi_batch(table, scores, idx, at, want_grad):
    """weight_y * Psi^q(softmax(adjusted scores)_y) and its gradient, every
    column of the table applied to every row. Class-major, (n, m): each
    element takes the float operations of the row-major log-softmax, and
    the class sums its order (_class_sum), so the bits are the same.
    """
    m, n = scores.shape
    label_at = idx * m + np.arange(m)  # each label in the flat (n, m) array
    adjusted = scores.T.copy()
    by_block = adjusted.reshape(n, len(table.q), -1)  # a view
    by_block -= table.neg_shift.T[:, :, None]
    adjusted.ravel()[label_at] -= table.label_shift.ravel()[at]
    rho = table.rho.ravel()[at]
    adjusted /= rho
    weight = table.weight.ravel()[at]
    q = table.q.repeat(m // len(table.q))
    # log-softmax over the classes, then Psi^q in log space with the
    # 1e-300 floor at q = 0.
    logp = adjusted  # shifted by the class max, in place
    logp -= logp.max(axis=0)
    logp -= np.log(_class_sum(_exp(logp)))
    log_t = logp.ravel()[label_at]
    t_pow_q = np.exp(q * log_t)  # exactly 1.0 where q = 0
    psi = -np.maximum(log_t, _LOG_PROB_FLOOR)  # the q = 0 link
    np.divide(1.0 - t_pow_q, q, out=psi, where=q != 0.0)
    values = weight * psi
    if not want_grad:
        return values, None
    probs = _exp(logp)
    probs.ravel()[label_at] -= 1.0
    probs *= weight / rho * t_pow_q
    return values, np.ascontiguousarray(probs.T)


def batch_loss_and_grad(
    spec,
    scores,
    labels,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng=None,
    want_grad: bool = True,
):
    """Per-example loss values and score gradients for a batch.

    ``spec`` is a LossSpec with ``stats`` the class statistics it reads,
    or a :class:`LossTable` whose blocks split the score rows evenly; a
    caller that evaluates one stack many times builds its table once.
    ``equal_draws`` (an (m, n) 0/1 array) fixes the EQUAL loss's Bernoulli
    gate; otherwise each block draws its gates from ``rng``, a Generator
    or one per block. Returns ``(values, grads)``, grads an (m, n)
    C-contiguous array or None when want_grad is False.

    The LossSpec form checks its input: finite scores, one label in 1..n
    per row. The table form is for callers that produce their own (m, n)
    float64 scores and 1-based int64 labels, and checks their shapes only:
    the class count, and rows that split into the blocks. There a
    non-finite score row gives non-finite or floored values and gradients
    in its own row, and every other row is as without it.
    """
    if isinstance(spec, LossTable):
        if stats is not None:
            raise ValueError("a LossTable carries its own class statistics")
        table = spec
        if scores.shape[1] != table.rho.shape[1]:
            raise ValueError(f"scores have {scores.shape[1]} classes, "
                             f"expected {table.rho.shape[1]}")
    else:
        scores, labels = _check_batch(scores, labels,
                                      stats.n if stats else None)
        table = loss_table([(spec, stats)], scores.shape[1])
    m, n = scores.shape
    blocks = len(table.q)
    if m % blocks:
        raise ValueError(f"{m} score rows do not split into {blocks} blocks")
    size = m // blocks
    idx = labels - 1
    # each row's (block, label) entry in a flattened (B, n) table column
    at = (idx.reshape(blocks, size) + np.arange(0, blocks * n, n)[:, None]
          ).ravel()
    if table.spec is None:
        return _psi_batch(table, scores, idx, at, want_grad)

    spec = table.spec
    family = spec.family
    rows = np.arange(m)
    onehot = np.zeros((m, n))
    onehot[rows, idx] = 1.0
    if family == "FOCAL":
        gamma = spec.gamma
        # numerics.log_softmax without its finiteness check, which a
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

    if family == "EQUAL":
        if equal_draws is None:
            if rng is None:
                raise ValueError("EQUAL needs equal_draws or an rng")
            gens = [rng] if isinstance(rng, np.random.Generator) else rng
            equal_draws = np.concatenate([
                (gen.random((size, n)) < spec.eq_p).astype(np.float64)
                for gen in gens])
        draws = np.asarray(equal_draws, dtype=np.float64)
        if draws.shape != (m, n):
            raise ValueError(f"equal_draws must be shape {(m, n)}")
        gated = (draws.reshape(blocks, size, n)
                 * table.gate[:, None, :]).reshape(m, n)
        weights = 1.0 - gated * (1.0 - onehot)
        # Masked log-sum-exp over classes with weight 1 (weights are 0/1
        # and the true class always has weight 1).
        shifted = scores - scores.max(axis=1, keepdims=True)
        masked = np.exp(shifted) * weights
        denom = masked.sum(axis=1)
        values = np.log(denom) - shifted[rows, idx]
        grads = masked / denom[:, None] - onehot if want_grad else None
        return values, grads

    # CSMAX, whose cost 1/p(y) is the table's weight
    return _csmax_batch(scores, idx, table.weight.ravel()[at],
                        spec.rho_margin, spec.psi_tau, want_grad)


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
    values = cost * _comp_sum_psi(vstar, tau)
    grads = None
    if want_grad:
        slope = cost * _comp_sum_psi_prime(vstar, tau) / rho
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
