"""Numeric oracles for consistency, margin, and bound properties.

Everything here works at the level of a single input x of a finite
distribution: a :class:`ConditionalPoint` carries the label posterior
p(y|x), the class marginal p(y), and optionally the subset of labels a
hypothesis set can reach at x.

The key quantities:

* the prior-weighted (balanced) conditional regret
  max_{y in reachable} p(y|x)/p(y) - p(pred|x)/p(pred);
* pointwise-optimal labels for the balanced objective
  (argmax p(y|x)/p(y)) and for logit-adjusted losses with temperature
  tau (argmax p(y|x)/p(y)^tau) -- these disagree for tau != 1, which is
  what ``find_la_disagreement`` hunts for;
* conditional errors sum_y p(y|x) loss(scores, y), computed row-wise by
  one function, ``conditional_errors``, for the minimizer below;
* closed-form best conditional errors of the generalized losses over
  unconstrained scores, cross-checked by an independent minimizer, the
  damped Newton driver ``numerics.newton_minimize``; it solves many
  points of any n, one class count at a time, the points of one n in
  lockstep, and each point's result equals its solo solve bit for bit;
* conditional-regret bound checks: the balanced regret of any score
  vector must be covered by sqrt(2 t) / p_min (logit-adjusted family,
  q = 0; with an extra (1-q) correction for q in (0,1)) and by
  sqrt(2 n^q t) / sqrt(p_min) (class-aware family, unit margins), where
  t is the surrogate conditional regret. Both families share one batched
  check of many points of any n and q, one class count at a time, and a
  point's report entries are the same bits alone or among others;
* margin machinery: the ramp loss Phi_rho, the row-wise cost-sensitive
  margin loss (runner-up reading), Monte-Carlo empirical Rademacher
  complexity of norm-bounded linear scorers, the resulting generalization
  bound check, and the pointwise logistic upper bound on cost * Phi_rho.

All computations are pure; fuzzing helpers take explicit generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .losses import LossSpec, PriorStats, batch_loss_and_grad, loss_table
from .numerics import (argmax_highest, as_finite_array, newton_minimize,
                       softplus)
from .trainer import predict_batch

# Tolerance absorbing float error in the closed-form entropy/Tsallis
# expressions entering the bound checks.
SLACK_TOL = -1e-9


class ConditionalPoint:
    """Label posterior and class marginal at one input.

    ``reachable`` lists the 1-based labels attainable by the hypothesis
    set at this input; None means all labels (a regular hypothesis set).
    """

    def __init__(self, cond, priors, reachable=None):
        cond = np.asarray(cond, dtype=np.float64)
        priors = np.asarray(priors, dtype=np.float64)
        if cond.shape != priors.shape or cond.ndim != 1 or cond.size < 2:
            raise ValueError("cond and priors must be equal-length vectors, n >= 2")
        check_point_rows(cond, priors)
        self.cond = cond
        self.priors = priors
        self.n = cond.size
        if reachable is None:
            self.reachable = tuple(range(1, self.n + 1))
        else:
            labels = tuple(sorted(set(int(r) for r in reachable)))
            if not labels or labels[0] < 1 or labels[-1] > self.n:
                raise ValueError(f"reachable must be a non-empty subset of 1..{self.n}")
            self.reachable = labels

    @property
    def p_min(self) -> float:
        return float(self.priors.min())

    @property
    def ratios(self) -> np.ndarray:
        """p(y|x) / p(y) for every label."""
        return self.cond / self.priors

    @property
    def is_regular(self) -> bool:
        return len(self.reachable) == self.n

    def __repr__(self) -> str:
        return (f"ConditionalPoint(cond={self.cond.tolist()}, "
                f"priors={self.priors.tolist()}, reachable={self.reachable})")


def check_point_rows(cond, priors) -> None:
    """Raise ValueError unless each row (last axis) of ``cond`` and
    ``priors`` makes a :class:`ConditionalPoint`: both finite, cond >= 0,
    priors > 0, each summing to 1 within 1e-12.
    """
    for name, arr in (("cond", cond), ("priors", priors)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite, got {arr!r}")
    if (cond < 0).any() or (abs(cond.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ValueError("cond must be a probability vector")
    if (priors <= 0).any() or (abs(priors.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ValueError("priors must be a strictly positive probability vector")


@dataclass(frozen=True)
class RegretReport:
    """Target/surrogate conditional regrets and the bound between them,
    float64 arrays with one entry per checked point.

    ``slack`` is bound_value - target_regret; a negative slack beyond
    float tolerance falsifies the bound being checked.
    """

    target_regret: np.ndarray
    surrogate_regret: np.ndarray
    bound_value: np.ndarray

    @property
    def slack(self) -> np.ndarray:
        return self.bound_value - self.target_regret

    @property
    def holds(self) -> np.ndarray:
        return self.slack >= SLACK_TOL


def _argmax_highest_restricted(values, reachable) -> int:
    """1-based argmax over a reachable subset, ties to the highest label."""
    reach = np.asarray(reachable, dtype=np.int64)
    sub = np.asarray(values)[reach - 1]
    return int(reach[argmax_highest(sub)])


def bal_regret(point: ConditionalPoint, predicted: int) -> float:
    """Conditional regret of the prior-weighted zero-one objective.

    max over reachable labels of p(y|x)/p(y) minus the predicted label's
    ratio; zero exactly when the prediction attains the max.
    """
    if predicted not in point.reachable:
        raise ValueError(f"predicted label {predicted} is not reachable")
    ratios = point.ratios
    reach = np.asarray(point.reachable) - 1
    return float(ratios[reach].max() - ratios[predicted - 1])


def bayes_balanced_label(point: ConditionalPoint) -> int:
    """argmax over reachable labels of p(y|x)/p(y), ties to highest index."""
    return _argmax_highest_restricted(point.ratios, point.reachable)


def bayes_la_label(point: ConditionalPoint, tau: float) -> int:
    """Pointwise-optimal label of the logit-adjusted loss at temperature tau.

    argmax over reachable labels of p(y|x)/p(y)^tau; at tau = 1 this is
    the balanced-optimal label, at tau = 0 the plain posterior argmax.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return _argmax_highest_restricted(
        point.cond / point.priors**tau, point.reachable)


def conditional_errors(table, cond, scores):
    """sum_y cond[y] * loss(scores, y) per row of the (P, n) arrays, and
    its score gradients, from one loss call on the class-major (n, P*n)
    tile of every row's labels under ``table``, a LossTable over n
    classes of one block per row or one for all.

    The stacked matmuls (P,1,n) @ (P,n,1) and (P,1,n) @ (P,n,n) make per
    row the BLAS calls of ``cond @ values`` and ``cond @ grads`` on that
    row alone, so they round identically.
    """
    count, n = scores.shape
    labels = np.arange(1, n + 1)[None].repeat(count, axis=0)
    values, grads = batch_loss_and_grad(  # tile column p * n + y: row p
        table, np.repeat(scores.T, n, axis=1).reshape(n, len(table.q), -1),
        labels.ravel())
    weights = cond[:, None]
    errors = (weights @ values.reshape(count, n, 1)).reshape(-1)
    # (P, n, n), per row, per label, per class: contiguous, as one row's
    # ``cond @ grads`` reads them, so the stacked matmul rounds the same
    grads = grads.reshape(n, count, n).transpose(1, 2, 0).copy()
    return errors, (weights @ grads).reshape(count, n)


def _entropy(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def _gce_best(p, q: float) -> float:
    """min over the simplex of sum_y p_y Psi^q(s_y).

    Shannon entropy at q = 0; otherwise (1 - Z^(1-q)) / q with
    Z = sum_y p_y^(1/(1-q)) (a Tsallis-entropy form), attained at
    s proportional to p^(1/(1-q)).
    """
    if q == 0.0:
        return _entropy(p)
    z = float(np.sum(np.asarray(p) ** (1.0 / (1.0 - q))))
    return (1.0 - z ** (1.0 - q)) / q


def best_conditional_error(family: str, point: ConditionalPoint, q: float) -> float:
    """Closed-form best conditional error over unconstrained scores.

    For the logit-adjusted generalized family (and the plain generalized
    cross-entropy) the prior shift is a bijection of the simplex, so the
    optimum equals the generalized-entropy functional of p(.|x). For
    the class-aware family with unit margins the reweighted posterior
    q(y|x) = (p(y|x)/p(y)) / Z(x) reduces it to Z(x) times that
    functional of q(.|x).
    """
    if not (0.0 <= q < 1.0):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if family in ("GLA", "GCE"):
        return _gce_best(point.cond, q)
    if family == "GCA":
        ratios = point.ratios
        z = float(ratios.sum())
        return z * _gce_best(ratios / z, q)
    raise ValueError(f"unsupported family {family!r}")


# Points per Hessian tile of the conditional-error oracle, which holds 2n
# score rows of n labels per point, so that a class count's tiles stay
# small at any `--budget`. `verify bayes` at its default budget (about 100
# points per class count) peaks at 39.3-39.4 MiB with tiles of 64 points
# and at 39.8-40.2 MiB with one tile per class count (peak RSS from
# os.wait4, one BLAS thread, seeds 0-2).
_HESSIAN_BLOCK = 64


def minimize_conditional_errors(spec, points, *, max_steps: int = 10_000):
    """Independent numeric oracle: damped Newton on unconstrained scores,
    one (scores, value) per point, in input order; ``spec`` is one LossSpec
    or a list of one per point, of any mix of families.

    Each point starts at the lower of two score vectors: its adjusted
    origin, the scores its loss table's ``neg_shift`` cancels, and s = 0
    (the origin on a tie). The adjusted origin keeps GLA at large q off
    the saturation plateau that s = 0 sits on; s = 0 is the exact optimum,
    with the scores of tied ratios tied, where p(y|x) = p(y). The losses
    are invariant to adding a constant to every score, so the points run
    the damped Newton driver ``numerics.newton_minimize``, unbounded, on
    an orthonormal basis of the sum-zero subspace of their scores. They
    solve one class count n at a time, in ascending n, the points of one
    n together (``_newton_solve``).

    With class-dependent GCA margins a point can have no finite minimizer
    (margins (1, 0.5, 2) at q = 0.7: the infimum is at s_2 -> -inf); such
    a point runs until its stop test or ``max_steps``.
    """
    specs = [spec] * len(points) if isinstance(spec, LossSpec) else spec
    if len(specs) != len(points):
        raise ValueError("need one loss spec per point")
    results = [None] * len(points)
    for n in sorted({p.n for p in points}):
        ids = [i for i, p in enumerate(points) if p.n == n]
        solved = _newton_solve([specs[i] for i in ids],
                               [points[i] for i in ids], max_steps)
        for i, result in zip(ids, solved):
            results[i] = result
    return results


def _newton_solve(specs, points, max_steps):
    """``minimize_conditional_errors`` over points of one class count n:
    one driver call from each point's lower start, whose objective is one
    ``conditional_errors`` call, each point's rows with its own block of
    one ``loss_table`` over n classes (its spec and marginal), with
    Hessian tiles of ``_HESSIAN_BLOCK`` points; results in their order.
    """
    count, n = len(points), points[0].n
    cond = np.array([p.cond for p in points])
    table = loss_table([(spec, PriorStats(p.priors))
                        for spec, p in zip(specs, points)], n)
    starts = np.zeros((count, 2, n))  # per point, origin then zero
    if table.neg_shift is not None:
        starts[:, 0] = table.neg_shift
    starts = starts.reshape(-1, n)
    pair = np.repeat(np.arange(count), 2)
    values, grads = conditional_errors(table[pair], cond[pair], starts)
    pick = 2 * np.arange(count) + (values[1::2] < values[::2])
    scores, value = newton_minimize(
        lambda ids, rows: conditional_errors(table[ids], cond[ids], rows),
        starts[pick], values[pick], grads[pick], _sum_zero_basis(n),
        _HESSIAN_BLOCK, max_steps=max_steps)
    return [(row, float(v)) for row, v in zip(scores, value)]


def _sum_zero_basis(n):
    """(n, n - 1) orthonormal basis of the vectors of R^n summing to zero:
    column k - 1 is (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1)), k ones."""
    k = np.arange(1, n)
    rows = np.arange(n)[:, None]
    return ((rows < k) - k * (rows == k)) / np.sqrt(k * (k + 1.0))


def _log_normalize(logits) -> np.ndarray:
    """Row-wise log softmax of (P, n) logits with sub-eps accuracy on each
    row's dominant entry.

    The usual m + log(sum(exp(. - m))) normalizer rounds 1 + tiny to 1,
    an absolute error of order eps shared by every output entry; the
    regret computations below need the normalizer exact to the relative
    precision of the non-max mass, so the max term's exp(0) = 1 is set
    to 0.0 and the remainder goes through log1p.
    """
    top = np.argmax(logits, axis=1)[:, None]
    # subtract the max first: adding log1p(rest) to the O(1) top logit
    # would absorb the tiny correction before it reaches the top entry
    shifted = logits - np.take_along_axis(logits, top, axis=1)
    rest = np.exp(shifted)
    np.put_along_axis(rest, top, 0.0, axis=1)
    return shifted - np.log1p(rest.sum(axis=1))[:, None]


def _surrogate_regrets(family, cond, priors, scores, q) -> np.ndarray:
    """Surrogate conditional regrets, one per row of the (P, N) arrays
    with ``q`` one per row: sum_y w_y [Psi^q(t_achieved) - Psi^q(t_target)].

    Computing the regret as conditional_errors - best_conditional_error
    cancels catastrophically once the achieved softmax saturates: near
    q = 1 the guaranteed regret scales like p_min^(2/(1-q)) and can sit
    fifty orders of magnitude below the two conditional errors. Working
    per class in the log domain keeps full relative precision at both
    the t -> 0 and t -> 1 ends (exp for small t^q, expm1 for large).
    For GCA (unit margins) the prior-ratio weights reduce the regret to
    the plain generalized cross-entropy regret under the reweighted
    posterior, scaled by the normalizer. Both the q = 0 and the q > 0
    terms are computed for every row, and each row takes its own. The
    terms of zero-weight entries (impossible labels, cond 0) are zeroed;
    adding 0.0 keeps a row sum exact.
    """
    q = q[:, None]
    # log 0 = -inf at zero weights, then 0 * -inf and -inf - -inf there
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "GLA":
            weights = cond
            log_achieved = _log_normalize(scores + np.log(priors) / (1.0 - q))
            log_dist = np.log(cond)
        else:
            weights = cond / priors
            log_achieved = _log_normalize(scores)
            log_dist = np.log(weights / weights.sum(axis=1, keepdims=True))
        log_target = _log_normalize((1.0 / (1.0 - q)) * log_dist)
        u_t = q * log_target
        u_a = q * log_achieved
        big = (u_t > -0.693) & (u_a > -0.693)  # both t^q above ~1/2
        terms = weights * np.where(
            q == 0.0, log_target - log_achieved,
            np.where(big, np.expm1(u_t) - np.expm1(u_a),
                     np.exp(u_t) - np.exp(u_a)))
    regret = np.where(weights > 0.0, terms, 0.0).sum(axis=1)
    return np.divide(regret, q[:, 0], out=regret, where=q[:, 0] != 0.0)


def regret_reports(family: str, cond, priors, scores, q) -> RegretReport:
    """The core of :func:`check_regret_bounds` on the (P, n) float64 rows
    ``cond``, ``priors`` and ``scores`` of one class count n, all labels
    reachable, ``q`` one value or one per row; the caller has checked the
    rows (:func:`check_point_rows`, finite scores) and ``family``. The
    bounds are sqrt(2t) / (p_min^(1/(1-q)) sqrt(1-q)) (GLA) and
    sqrt(2 n^q t) / sqrt(p_min) (GCA), t the surrogate regret floored at
    0, their powers libm's through Python's float ``**`` row by row:
    numpy's ``np.power`` differs from it in the last bit on a few percent
    of rows. A row's entries are the same bits alone or among others.
    """
    count, n = np.shape(cond)
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), (count,))
    ratios = cond / priors
    predicted = argmax_highest(scores)
    target = ratios.max(axis=1) - ratios[np.arange(count), predicted]
    surrogate = _surrogate_regrets(family, cond, priors, scores, q)
    t = np.where(surrogate < 0.0, 0.0, surrogate)
    p_min = priors.min(axis=1)
    if family == "GLA":
        power = [p ** e for p, e in zip(p_min.tolist(),
                                        (1.0 / (1.0 - q)).tolist())]
        bound = np.sqrt(2.0 * t) / (np.array(power) * np.sqrt(1.0 - q))
    else:
        power = [n ** q_k for q_k in q.tolist()]
        bound = np.sqrt(2.0 * np.array(power) * t) / np.sqrt(p_min)
    return RegretReport(target, surrogate, bound)


def check_regret_bounds(family: str, points, scores, q) -> RegretReport:
    """Conditional-regret bound checks of one family: one
    :class:`RegretReport` whose entries follow the (point, score vector)
    pairs in input order; ``q`` is one value or one per point.

    ``family`` is "GLA" (logit-adjusted) or "GCA" (class-aware); every
    point needs all labels reachable. The balanced regret of
    argmax(scores), ties to the highest label, must not exceed the
    family's bound transform of the surrogate conditional regret, checked
    by :func:`regret_reports` one class count at a time.

    The GCA transform, ``verify bounds``, ``best_conditional_error("GCA")``
    and criterion 7's GCA leg use unit margins; ``imbloss train`` and
    criterion 10 default to cube-root margins, which no bound here covers.
    """
    if family not in ("GLA", "GCA"):
        raise ValueError(f"unsupported family {family!r}")
    if not all(point.is_regular for point, _ in zip(points, scores,
                                                    strict=True)):
        raise ValueError("bound check requires all labels reachable")
    rows = [as_finite_array(row, "scores") for row in scores]
    for point, row in zip(points, rows):
        if row.shape != (point.n,):
            raise ValueError(f"scores must have {point.n} entries per point")
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), (len(points),))
    if not ((q >= 0.0) & (q < 1.0)).all():
        raise ValueError(f"q must lie in [0, 1), got {q}")
    columns = np.empty((3, len(points)))
    for n in sorted({point.n for point in points}):
        ids = [i for i, point in enumerate(points) if point.n == n]
        report = regret_reports(
            family, np.array([points[i].cond for i in ids]),
            np.array([points[i].priors for i in ids]),
            np.array([rows[i] for i in ids]), q[ids])
        columns[:, ids] = (report.target_regret, report.surrogate_regret,
                           report.bound_value)
    return RegretReport(*columns)


# ---------------------------------------------------------------------------
# Margin machinery.
# ---------------------------------------------------------------------------


def phi_rho(u, rho):
    """Ramp loss min(1, max(0, 1 - u/rho)): 1 at margin 0, 0 at margin rho;
    ``rho`` is one value or an array broadcasting against ``u``."""
    if not np.all(np.asarray(rho) > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    return np.clip(1.0 - np.asarray(u, dtype=np.float64) / rho, 0.0, 1.0)


def margin_losses(scores, labels, costs, rho) -> np.ndarray:
    """Cost-sensitive margin loss cost * max_{y' != y} Phi_rho(s_y - s_y')
    of each row of the (m, n) scores, with 1-based labels, one cost per
    row and ``rho`` one value or one per row.

    The max runs over the competing labels only (the runner-up reading,
    under which the loss dominates cost * 1[argmax != y]). Phi_rho is
    non-increasing and rounding is monotone, so it is Phi_rho of the gap
    to the runner-up score, bit for bit.
    """
    scores = as_finite_array(scores, "scores")
    labels, costs = np.asarray(labels), np.asarray(costs, dtype=np.float64)
    m, n = scores.shape
    if n < 2 or not np.all(costs >= 0):
        raise ValueError("need n >= 2 classes and costs >= 0")
    if np.any((labels < 1) | (labels > n)):
        raise ValueError(f"labels must lie in 1..{n}")
    rows = np.arange(m)
    own = scores[rows, labels - 1]
    masked = scores.copy()
    masked[rows, labels - 1] = -np.inf
    return costs * phi_rho(own - masked.max(axis=1), rho)


# Sign entries per block of Rademacher trials, 4 MB of draws and signs:
# every trial of ``verify margin`` (30 of 500 x 3) fits in one block.
_RADEMACHER_BLOCK = 1 << 18


def empirical_rademacher_linear(
    sample: Dataset, norm_bound: float, trials: int, seed
):
    """Monte-Carlo empirical Rademacher complexity of the bounded linear family.

    For per-class-norm-bounded linear scorers the inner supremum is exact:
    sup_h sum_{i,y} eps_iy h(x_i, y) = norm_bound * sum_y ||sum_i eps_iy x_i||_2,
    so only the expectation over sign matrices is estimated. Returns
    (estimate, standard_error).
    """
    if not (norm_bound >= 0 and trials >= 1):
        raise ValueError("need norm_bound >= 0 and trials >= 1")
    X = sample.features
    m, n = X.shape[0], sample.n
    rng = np.random.default_rng(seed)
    # a block of trials' (m, n) signs in one draw, in trial order, and one
    # product per trial, as X.T @ eps; the blocks bound the memory
    block = max(1, _RADEMACHER_BLOCK // (m * n))
    draws = np.empty(trials)
    for start in range(0, trials, block):
        size = min(block, trials - start)
        eps = 2.0 * rng.integers(0, 2, size=(size, m, n)) - 1.0
        draws[start:start + size] = norm_bound * np.linalg.norm(
            np.matmul(X.T, eps), axis=1).sum(axis=1) / m
    stderr = float(draws.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(draws.mean()), stderr


@dataclass(frozen=True)
class MarginBoundReport:
    """One evaluation of the cost-sensitive margin generalization bound."""

    empirical_margin_risk: float
    rademacher_estimate: float
    rademacher_stderr: float
    complexity_term: float
    deviation_term: float
    rhs: float
    test_balanced_risk: float
    holds: bool


def check_theorem5_bound(
    model,
    train: Dataset,
    test: Dataset,
    rho: float,
    norm_bound: float,
    delta: float,
    trials: int,
    seed,
) -> MarginBoundReport:
    """Evaluate the margin bound

        risk(L) <= margin_risk_S(h) + 4 Cbar sqrt(2n) Rad_S(H)
                   + 3 sqrt(log(2/delta) / (2m))

    with costs c(y) = 1/p_hat(y) from the training stats (so Cbar is
    1/p_min), the empirical margin risk on the training sample, and the
    left side estimated as the cost-weighted test error.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    stats = train.stats()
    costs = stats.inv_priors
    cbar = 1.0 / stats.p_min
    m, n = train.m, train.n

    train_scores = model.scores(train.features)
    emp = float(np.mean(margin_losses(train_scores, train.labels,
                                      costs[train.labels - 1], rho)))
    rad, rad_se = empirical_rademacher_linear(train, norm_bound, trials, seed)
    complexity = 4.0 * cbar * math.sqrt(2.0 * n) * rad
    deviation = 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * m))
    rhs = emp + complexity + deviation

    preds = predict_batch(model, test.features)
    lhs = float(np.mean(costs[test.labels - 1] * (preds != test.labels)))
    return MarginBoundReport(emp, rad, rad_se, complexity, deviation, rhs,
                             lhs, lhs <= rhs)


def check_lamargin(
    c_y: float,
    c_yprime: float,
    c_min: float,
    c_max: float,
    v_grid,
    rho_grid,
) -> float:
    """Worst slack of c(y) Phi_rho(v) <= C_max log(1 + (c(y)/c(y')) e^{-v/rho}).

    C_max = c_max / log(1 + c_min/c_max). Evaluates the inequality on the
    cartesian grid and returns min(rhs - lhs); the inequality is tight at
    v = 0 with equal costs.
    """
    if not (0 < c_min <= min(c_y, c_yprime) and max(c_y, c_yprime) <= c_max):
        raise ValueError("need 0 < c_min <= c_y, c_yprime <= c_max")
    v = as_finite_array(v_grid, "v_grid")
    c_max_const = c_max / math.log1p(c_min / c_max)
    log_ratio = math.log(c_y / c_yprime)
    worst = np.inf
    for rho in np.asarray(rho_grid, dtype=np.float64):
        if not rho > 0:
            raise ValueError("rho grid entries must be positive")
        lhs = c_y * phi_rho(v, rho)
        rhs = c_max_const * softplus(log_ratio - v / rho)
        worst = min(worst, float(np.min(rhs - lhs)))
    return worst


# ---------------------------------------------------------------------------
# Fuzzing substrate and the stored-witness search.
# ---------------------------------------------------------------------------


def floored_simplex(w, floor: float) -> np.ndarray:
    """floor + (1 - n floor) w / sum(w) along the last axis, of length n:
    non-negative weights onto the simplex of n classes, every entry >=
    floor."""
    n = np.shape(w)[-1]
    return floor + (1.0 - n * floor) * (w / w.sum(axis=-1, keepdims=True))


def random_conditional_point(
    rng: np.random.Generator,
    n: int,
    floor: float = 0.05,
    ratio_gap: float = 0.0,
) -> ConditionalPoint:
    """Random point with all posterior/prior entries >= floor.

    With ratio_gap in (0, 1), resamples until the top two balanced ratios
    are separated by that relative gap, avoiding knife-edge argmaxes in
    checks that compare labels across independently computed optima. No
    point has a gap of 1 or more: every ratio is positive.
    """
    if not (0.0 < floor < 1.0 / n):
        raise ValueError(f"floor must lie in (0, 1/{n})")
    if not (0.0 <= ratio_gap < 1.0):
        raise ValueError(f"ratio_gap must lie in [0, 1), got {ratio_gap}")
    while True:
        cond = floored_simplex(rng.random(n), floor)
        point = ConditionalPoint(cond, floored_simplex(rng.random(n), floor))
        if ratio_gap > 0.0:
            top = np.sort(point.ratios)[::-1]
            if (top[0] - top[1]) / top[0] < ratio_gap:
                continue
        return point


def find_la_disagreement(tau: float) -> ConditionalPoint | None:
    """First two-class grid point where the logit-adjusted optimal label
    (temperature tau) differs from the balanced-optimal label.

    Scans cond x prior products of the grid 0.05, 0.10, ..., 0.95 in a
    fixed order, skipping knife-edge points whose relative top-two ratio
    gap (for either criterion) is below 1e-9, so the stored witness is
    robust to rounding. Returns None when no disagreement exists on the
    grid (e.g. tau = 1).
    """
    grid = np.round(np.arange(1, 20) * 0.05, 10)
    for prior1 in grid:
        for p1 in grid:
            point = ConditionalPoint((p1, 1.0 - p1), (prior1, 1.0 - prior1))
            for ratios in (point.ratios, point.cond / point.priors**tau):
                top = np.sort(ratios)[::-1]
                if (top[0] - top[1]) / top[0] < 1e-9:
                    break
            else:
                if bayes_la_label(point, tau) != bayes_balanced_label(point):
                    return point
    return None
