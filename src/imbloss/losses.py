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

``loss_table`` turns each (LossSpec, class statistics) pair into table
columns (shifts, a divisor, a weight, q, gamma, EQUAL's gates and CSMAX's
psi_tau), so one call evaluates any mix of families, all their blocks
of one class count (their stats' n, which the table checks); a column
that no block of a table uses is skipped. A table's CSMAX blocks take a
short code path of their own, and the other families one shared path,
weight_y * Psi^q(softmax(adjusted scores)_y), FOCAL's times
(1 - softmax_y)^gamma, EQUAL's with its gated classes at -inf. Both are
class-major, (n, m), so every reduction and broadcast over the classes
runs along m-long rows. With a table, ``batch_loss_and_grad`` takes
class-major (n, blocks, size) scores, as the trainer's forward pass
writes them, and answers in that layout; with a LossSpec it takes
row-major (m, n) scores, which it transposes once on the way in and the
gradient once on the way out. The shared path adds the classes in the
exact order of numpy's last-axis sum over a row: one by one for n < 8,
numpy's pairwise tree of eight running sums for 8 <= n <= 128, and
numpy's own sum beyond. Its values and gradients are therefore bit for
bit those of the row-major log-softmax. It takes one exp per call where
the softmax saturates (a log-sum-exp of exactly 0), a second one only
over the rows where it does not. Adjusted scores that overflow give
non-finite values, which a caller such as the trainer reads as
divergence.

Conventions used throughout the package:

* class labels are 1-based integers in 1..n;
* every loss is evaluated in log space (log-softmax) wherever a log
  follows a softmax, so large logits never cancel catastrophically;
* softmax probabilities are floored at 1e-300 before -log so the q = 0
  link saturates instead of overflowing (EQUAL's are not);
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
        whole = np.asarray(counts, dtype=np.float64)
        if not np.all(np.isfinite(whole) & (np.trunc(whole) == whole)):
            raise ValueError(f"counts must be whole numbers, got {counts}")
        counts = whole.astype(np.int64)
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

    Exactly the hyperparameters required by ``family`` must be set, each
    finite, every margin included:

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
            object.__setattr__(self, "margins",
                               tuple(float(r) for r in self.margins))
        for name, value in self.hyperparams().items():
            if not np.all(np.isfinite(value)):
                raise ValueError(
                    f"{self.family} {name} must be finite, got {value}")
        if self.margins is not None and (
                any(r <= 0 for r in self.margins) or not self.margins):
            raise ValueError(f"margins must be positive, got {self.margins}")
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

    A row's loss is weight_y * Psi^q(softmax(s')_y) with s' = (s -
    neg_shift - label_shift_y e_y) / rho_y, every (B, n) column read at
    the row's block, and q, gamma, eq_p and psi_tau one per block; a
    column other than gate and q that no block sets is None. ``gate``
    marks the classes EQUAL gates out with probability eq_p, FOCAL's gamma
    is as in (1 - softmax_y)^gamma, and other families hold NaN in both.
    A CSMAX block's loss is _csmax_batch's, its weight the cost 1/p(y),
    its rho its rho_margin at every class, and its psi_tau the link's,
    which other families hold as NaN.
    """

    neg_shift: np.ndarray | None
    label_shift: np.ndarray | None
    rho: np.ndarray | None
    weight: np.ndarray | None
    gate: np.ndarray
    q: np.ndarray
    gamma: np.ndarray | None
    eq_p: np.ndarray | None
    psi_tau: np.ndarray | None

    def __getitem__(self, blocks) -> "LossTable":
        """The table of the selected blocks (an index array or a mask)."""
        columns = (getattr(self, f.name) for f in fields(self))
        return LossTable(*(c if c is None else c[blocks] for c in columns))


def loss_table(blocks, n: int) -> LossTable:
    """The LossTable of ``blocks``, (LossSpec, stats) pairs over n classes.

    Any mix of families may share a table; a block whose stats do not
    have exactly n classes is rejected. A parameter a family lacks is an
    exact identity: x - 0.0 (which keeps -0.0, where x + 0.0 would not),
    x / 1.0, x * 1.0, gate 0 and q = 0, or NaN for gamma, eq_p and
    psi_tau. A column that no block sets is None, decided here once per
    table, and skipped.
    """
    zero, one, nan = np.zeros(n), np.ones(n), math.nan
    rows = []
    for spec, stats in blocks:
        family = spec.family
        if stats is None and family not in ("CE", "FOCAL", "GCE"):
            raise ValueError(f"{family} requires ClassStats")
        if stats is not None and stats.n != n:
            raise ValueError(f"stats have {stats.n} classes, expected {n}")
        q = spec.q or 0.0
        gamma = spec.gamma if family == "FOCAL" else nan
        eq_p = nan if spec.eq_p is None else spec.eq_p
        psi_tau = nan if spec.psi_tau is None else spec.psi_tau
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
        elif family == "CSMAX":
            rho = np.full(n, spec.rho_margin)
        if family in ("WCE", "GCA", "CSMAX"):
            weight = stats.inv_priors
        rows.append((neg_shift, label_shift, rho, weight, gate, q, gamma,
                     eq_p, psi_tau))
    # a column that no block sets holds only the shared zero, one or NaN
    unset = (zero, zero, one, one, None, None, nan, nan, nan)
    return LossTable(*(None if all(c is u for c in column)
                       else np.array(column)
                       for column, u in zip(zip(*rows), unset)))


# ---------------------------------------------------------------------------
# Batch core. scores is class-major, (n, blocks, size) with a table, or
# (m, n) at the LossSpec boundary; labels is (m,) of 1-based ints. All the
# scalar entry points below are thin wrappers over these so the trainer and
# the per-example API cannot drift apart.
# ---------------------------------------------------------------------------


def _check_batch(scores, labels):
    scores = as_finite_array(scores, "scores")
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise ValueError("scores must be (m, n) with n >= 2")
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != scores.shape[0]:
        raise ValueError("scores and labels must have the same length")
    if not labels.size:
        raise ValueError("the batch is empty: scores and labels hold no rows")
    if labels.dtype.kind not in "biu" and (labels.dtype.kind != "f" or np.any(
            np.trunc(labels) != labels)):
        raise ValueError(f"labels must be integers, got {labels}")
    n = scores.shape[1]
    if labels.min() < 1 or labels.max() > n:
        raise ValueError(f"labels must lie in 1..{n}")
    return scores, labels.astype(np.int64, copy=False)


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
    are computed on their own; -inf (a gated EQUAL class) takes numpy's
    quick 0.0.
    """
    if (lo := x.min()) >= -700.0 or (lo == -np.inf and x.min(
            initial=np.inf, where=x != lo) >= -700.0):
        return np.exp(x)
    low = x < -700.0
    out = np.exp(np.maximum(x, -700.0))
    out *= ~low
    band = low & (x >= -746.0)
    out[band] = np.exp(x[band])
    return out


def _label_entries(idx, blocks, n):
    """Each row's (block, label) entry in a flattened (B, n) table column."""
    return (idx.reshape(blocks, -1) + np.arange(0, blocks * n, n)[:, None]
            ).ravel()


def _pow(base, exponent, size):
    """base ** exponent, one exponent per block of ``size`` entries of
    base, bit for bit numpy's power with each as a scalar, which is
    square, sqrt or reciprocal at 2, 0.5 or -1."""
    out = np.power(base, exponent.repeat(size))
    for at, fast in ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal)):
        hit = exponent == at
        if hit.any():
            rows = hit.repeat(size)
            out[rows] = fast(base[rows])
    return out


def _gated(table, idx, draws, rng):
    """The mask of the classes EQUAL gates out of its rows, marked by the
    block's gate, drawn, and not the label, class-major (n, m) as
    ``draws``. Without draws only EQUAL blocks draw, each a (size, n)
    array from its generator, which may serve other draws as well."""
    m, (blocks, n) = len(idx), table.gate.shape
    size = m // blocks
    if draws is None:
        if rng is None:
            raise ValueError("EQUAL needs equal_draws or an rng")
        gens = [rng] * blocks if isinstance(rng, np.random.Generator) else rng
        draws = np.zeros((n, m))
        for b in np.flatnonzero(~np.isnan(table.eq_p)):
            draws[:, b * size:(b + 1) * size] = (
                gens[b].random((size, n)) < table.eq_p[b]).T
    gated = draws * table.gate.T.repeat(size, axis=1) != 0.0
    gated[idx, np.arange(m)] = False
    return gated


def _psi_batch(table, scores, idx, draws, rng):
    """weight_y * Psi^q(softmax(adjusted scores)_y) and its gradient, every
    column of the table applied to every row (a None column is skipped,
    being an identity), and EQUAL's gated classes at -inf. Class-major:
    scores is an (n, m) array of any strides, which is not written. Of
    the adjustments, in their order (the negative shift, the label shift,
    the division by the margins), the first writes a new C-contiguous
    array, a copy when it is the label shift or there is none, and the
    others adjust it in place. The gradient is a new C-contiguous (n, m)
    array.
    Each element takes the float operations of the row-major log-softmax,
    and the class sums its order (_class_sum), so the bits are the same.

    One exp serves both the log-sum-exp and, in a saturated row, the
    gradient's softmax. A row is saturated when its class sum is exactly
    1.0: the max class's exp(0) = 1 and the others vanish next to it.
    Its log-sum-exp is then exactly 0.0, so logp = shifted - 0.0 is
    shifted bit for bit (-0.0 included) and exp(logp) is the first exp.
    GCA's division by margins of 0.03 to 0.2 saturates most rows of a
    trained model. Only the other rows take a second exp, gathered when
    they are at most half of the rows, else as one exp over every row;
    the log-sum-exp is subtracted from those rows and the label entries
    only.
    EQUAL's softmax is the first exp over the class sum, and its loss
    takes no 1e-300 floor. FOCAL's gradient takes u = softmax_y, then
    -dL/du, as two products, as in the row-major chain rule. FOCAL's
    modulation and EQUAL's floor reach their rows through per-row masks,
    a factor of 1.0 or the shared floor in every other row.
    """
    n, m = scores.shape
    blocks = len(table.q)
    size = m // blocks
    label_at = idx * m + np.arange(m)  # each label in the flat (n, m) array
    if (table.label_shift is not None or table.rho is not None
            or table.weight is not None):
        at = _label_entries(idx, blocks, n)
    rho = weight = 1.0
    if table.rho is not None:
        rho = table.rho.ravel()[at]
    if table.weight is not None:
        weight = table.weight.ravel()[at]
    # The first adjustment writes a new C-contiguous array, the others
    # adjust it in place.
    if table.neg_shift is None and table.label_shift is None:
        adjusted = (scores.copy() if table.rho is None
                    else np.divide(scores, rho, order="C"))
    else:
        adjusted = (scores.copy() if table.neg_shift is None else np.subtract(
            scores.reshape(n, blocks, size), table.neg_shift.T[:, :, None],
            order="C").reshape(n, m))
        if table.label_shift is not None:
            adjusted.ravel()[label_at] -= table.label_shift.ravel()[at]
        if table.rho is not None:
            adjusted /= rho
    equal, floor = None, _LOG_PROB_FLOOR
    if table.eq_p is not None:  # EQUAL: no floor
        adjusted[_gated(table, idx, draws, rng)] = -np.inf
        equal = ~np.isnan(table.eq_p)  # per block
        floor = np.where(equal.repeat(size), -np.inf, floor)
    q = table.q.repeat(size)
    # log-softmax over the classes, then Psi^q in log space with the
    # 1e-300 floor at q = 0.
    shifted = adjusted  # by the class max, in place
    shifted -= shifted.max(axis=0)
    expd = _exp(shifted)
    sums = _class_sum(expd)
    lse = np.log(sums)
    log_t = shifted.ravel()[label_at] - lse
    t_pow_q = np.exp(q * log_t)  # exactly 1.0 where q = 0
    psi = -np.maximum(log_t, floor)  # the q = 0 link
    np.divide(1.0 - t_pow_q, q, out=psi, where=q != 0.0)
    values = psi if table.weight is None else weight * psi
    if table.gamma is not None:  # FOCAL: (1 - u)^gamma * psi, u = t
        focal = ~np.isnan(table.gamma).repeat(size)  # per row
        u = np.exp(log_t)
        one_minus_u = np.maximum(1.0 - u, 0.0)
        modulation = np.where(focal, _pow(one_minus_u, table.gamma, size),
                              1.0)
        values = modulation * values  # weight 1.0 in a FOCAL row
    rest = lse != 0.0  # the rows that are not saturated
    if equal is not None:  # the other rows' sums are 1.0 or go unread
        rest.reshape(blocks, size)[equal] = False
        expd /= sums
    rest = np.flatnonzero(rest)
    if 2 * rest.size > m and equal is None:
        del expd  # not alive through the second exp: a lower peak
        shifted -= lse
        probs = _exp(shifted)
    else:
        probs = expd
        # few entries, or EQUAL rows to keep: numpy's slow path on their
        # underflows costs less than _exp's passes over them
        if rest.size:
            probs[:, rest] = np.exp(shifted.take(rest, axis=1) - lse[rest])
    probs.ravel()[label_at] -= 1.0
    if table.gamma is not None:
        # dL/du with the u -> 1 limit handled explicitly (both terms -> 0)
        floored_u = np.maximum(u, PROB_FLOOR)
        with np.errstate(divide="ignore", invalid="ignore"):
            dl_du = np.where(one_minus_u > 0.0, -table.gamma.repeat(size)
                             * _pow(one_minus_u, table.gamma - 1.0, size)
                             * psi - modulation / floored_u, 0.0)
        dl_du = np.where(table.gamma.repeat(size) == 0.0, -1.0 / floored_u,
                         dl_du)  # gamma 0: the log loss's -1/u
        probs *= np.where(focal, u, 1.0)
        t_pow_q = np.where(focal, -dl_du, t_pow_q)
    if table.rho is not None or table.weight is not None:
        t_pow_q = weight / rho * t_pow_q
    probs *= t_pow_q
    return values, probs


def batch_loss_and_grad(
    spec,
    scores,
    labels,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng=None,
):
    """Per-example loss values and score gradients for a batch.

    ``spec`` is a LossSpec with ``stats`` the class statistics it reads,
    or a :class:`LossTable` whose blocks split the rows evenly; a caller
    that evaluates one stack many times builds its table once.
    ``equal_draws`` (a 0/1 array shaped as the scores) fixes the EQUAL
    loss's Bernoulli gate; otherwise each EQUAL block draws its gates from
    ``rng``, a Generator or one per block, as a (size, n) array, and the
    blocks of other families draw nothing. Returns ``(values, grads)``:
    values one per row (m,), and grads a C-contiguous array in the
    layout of the scores.

    The LossSpec form takes row-major (m, n) scores and checks its input:
    finite scores, a row or more, labels integral in 1..n, n-class stats.
    The table form takes class-major (n, blocks, size) scores, where row
    s of block b is scores[:, b, s] with label labels[b * size + s]. It
    is for callers that produce their own float64 scores and 1-based
    int64 labels, and checks their shape only. There a non-finite score
    row gives non-finite or floored values and gradients in its own row,
    and every other row is as without it. The loss core works class-major
    on one copy of the scores, which are not written: the LossSpec form
    costs a transposing copy in and one out, the table form a plain copy
    in and none out.
    """
    if isinstance(spec, LossTable):
        if stats is not None:
            raise ValueError("a LossTable carries its own class statistics")
        return _table_loss_and_grad(spec, scores, labels, equal_draws, rng)
    scores, labels = _check_batch(scores, labels)
    draws = None if equal_draws is None else np.atleast_1d(
        equal_draws).T[:, None]
    values, grads = _table_loss_and_grad(
        loss_table([(spec, stats)], scores.shape[1]), scores.T[:, None],
        labels, draws, rng)
    return values, np.ascontiguousarray(grads[:, 0].T)


def _table_loss_and_grad(table, scores, labels, draws, rng):
    """batch_loss_and_grad's table form."""
    blocks, n = table.gate.shape
    if scores.shape[:-1] != (n, blocks):
        raise ValueError("a LossTable takes class-major (n, blocks, size) "
                         f"scores, here ({n}, {blocks}, size), got shape "
                         f"{scores.shape}")
    m = blocks * scores.shape[2]
    idx = labels - 1
    cols = scores.reshape(n, m)
    if draws is not None:
        if np.shape(draws) != scores.shape:
            raise ValueError("equal_draws must be shaped as the scores")
        draws = np.reshape(draws, (n, m))
    if table.psi_tau is None:  # no CSMAX block
        values, grads = _psi_batch(table, cols, idx, draws, rng)
    else:  # each path on its blocks' rows alone, answered in block order
        csmax = ~np.isnan(table.psi_tau)
        values, grads = np.empty(m), np.empty((n, m))
        if not (rng is None or isinstance(rng, np.random.Generator)):
            rng = [rng[b] for b in np.flatnonzero(~csmax)]
        for part in (p for p in (csmax, ~csmax) if p.any()):
            at = np.flatnonzero(part.repeat(m // blocks))
            sub = table[part], cols[:, at], idx[at]
            part_values, part_grads = (
                _csmax_batch(*sub) if part is csmax else
                _psi_batch(*sub, None if draws is None else draws[:, at], rng))
            values[at] = part_values
            grads[:, at] = part_grads
    return values, grads.reshape(scores.shape)


def _csmax_batch(table, scores, idx):
    """CSMAX's weight_y * Psi((s_y - s_j) / rho_y) and its subgradient, j
    the first top score, Psi(x) = log(1 + e^{-x}) at psi_tau = 1, else
    ((1 + e^{-x})^(1 - tau) - 1) / (1 - tau). Class-major, as _psi_batch,
    in the float operations of the row-major form, so with its bits."""
    n, m = scores.shape
    at = _label_entries(idx, len(table.q), n)
    cost, rho = table.weight.ravel()[at], table.rho.ravel()[at]
    tau, cols = table.psi_tau.repeat(m // len(table.q)), np.arange(m)
    # Psi is strictly decreasing, so the max over j is attained where the
    # competing score is largest; argmax takes the first of a tie.
    top = np.argmax(scores >= scores.max(axis=0), axis=0)
    gap = (scores[idx, cols] - scores[top, cols]) / rho
    softplus_gap = softplus(-gap)  # log(1 + e^{-gap})
    with np.errstate(divide="ignore", invalid="ignore"):  # at tau = 1
        link = np.expm1((1.0 - tau) * softplus_gap) / (1.0 - tau)
    values = cost * np.where(tau == 1.0, softplus_gap, link)
    # d/dx Psi(x) = -e^{-x} (1 + e^{-x})^{-tau}
    slope = cost * -np.exp(-gap - tau * softplus_gap) / rho
    grads = np.zeros((n, m))
    grads[idx, cols] += slope
    grads[top, cols] -= slope
    return values, grads


# ---------------------------------------------------------------------------
# Scalar entry points.
# ---------------------------------------------------------------------------


def _one_row(spec, scores, label, stats, equal_draws, rng):
    """batch_loss_and_grad on one score vector and its label."""
    draws = None if equal_draws is None else np.asarray(equal_draws)[None, :]
    values, grads = batch_loss_and_grad(
        spec, np.asarray(scores)[None, :], [label], stats,
        equal_draws=draws, rng=rng,
    )
    return values[0], grads[0]


def eval_loss(
    spec: LossSpec,
    scores,
    label: int,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng: np.random.Generator | None = None,
) -> float:
    """Loss value of any family on a single score vector, as a float: the
    value of the one-row call whose gradient :func:`eval_grad` reads."""
    return float(_one_row(spec, scores, label, stats, equal_draws, rng)[0])


def eval_grad(
    spec: LossSpec,
    scores,
    label: int,
    stats: ClassStats | None = None,
    *,
    equal_draws=None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gradient of the loss with respect to the score vector, the (n,)
    row of the one-row call whose value :func:`eval_loss` reads.

    EQUAL must be conditioned on fixed draws (or a generator supplying
    them); CSMAX returns the subgradient of the smallest maximizing index
    at ties.
    """
    return _one_row(spec, scores, label, stats, equal_draws, rng)[1]
