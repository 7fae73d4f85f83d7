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
  one function, ``conditional_errors``, for the descent below and the
  minimizability gap;
* closed-form best conditional errors of the generalized losses over
  unconstrained scores, cross-checked by an independent gradient-descent
  minimizer; it descends many points in lockstep (one loss call per
  iteration for all of them), and each point's result equals its solo
  descent bit for bit;
* conditional-regret bound checks: the balanced regret of any score
  vector must be covered by sqrt(2 t) / p_min (logit-adjusted family,
  q = 0; with an extra (1-q) correction for q in (0,1)) and by
  sqrt(2 n^q t) / sqrt(p_min) (class-aware family, unit margins), where
  t is the surrogate conditional regret. Both families share one batched
  check that computes many points row-wise, grouped by n, and a point's
  report is the same bits alone or among others;
* margin machinery: the ramp loss Phi_rho, the row-wise cost-sensitive
  margin loss (runner-up reading), Monte-Carlo empirical Rademacher
  complexity of norm-bounded linear scorers, the resulting generalization
  bound check, and the pointwise logistic upper bound on cost * Phi_rho;
* exact minimizability-gap computation for finite hypothesis lists on a
  finite joint.

All computations are pure; fuzzing helpers take explicit generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, DiscreteJoint
from .losses import LossSpec, PriorStats, batch_loss_and_grad
from .numerics import argmax_highest, as_finite_array, softplus
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
        cond = as_finite_array(cond, "cond")
        priors = as_finite_array(priors, "priors")
        if cond.shape != priors.shape or cond.ndim != 1 or cond.size < 2:
            raise ValueError("cond and priors must be equal-length vectors, n >= 2")
        if np.any(cond < 0) or abs(cond.sum() - 1.0) > 1e-12:
            raise ValueError("cond must be a probability vector")
        if np.any(priors <= 0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be a strictly positive probability vector")
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


@dataclass(frozen=True)
class RegretReport:
    """Target/surrogate conditional regrets and the bound between them.

    ``slack`` is bound_value - target_regret; a negative slack beyond
    float tolerance falsifies the bound being checked.
    """

    target_regret: float
    surrogate_regret: float
    bound_value: float
    slack: float = field(init=False)

    def __post_init__(self):
        if self.target_regret < -1e-12 or self.surrogate_regret < -1e-12:
            raise ValueError(
                f"regrets must be >= 0 up to float error, got "
                f"target={self.target_regret}, surrogate={self.surrogate_regret}"
            )
        object.__setattr__(self, "slack", self.bound_value - self.target_regret)

    @property
    def holds(self) -> bool:
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
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return _argmax_highest_restricted(
        point.cond / point.priors**tau, point.reachable)


def gla_pointwise_minimizer(point: ConditionalPoint, q: float) -> np.ndarray:
    """Adjusted-softmax target of the logit-adjusted generalized loss.

    The minimizing adjusted softmax puts mass proportional to
    p(y|x)^(1/(1-q)); at q = 0 it is the posterior itself.
    """
    if not (0.0 <= q < 1.0):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    powered = point.cond ** (1.0 / (1.0 - q))
    return powered / powered.sum()


def conditional_errors(spec: LossSpec, cond, scores, stats, want_grad=False):
    """sum_y cond[y] * loss(scores, y) per row of the (P, n) arrays, and
    its score gradients when want_grad, from one loss call on the (P*n, n)
    tile of every row's labels; ``stats`` holds one marginal or one per
    tile row. The stacked matmuls (P,1,n) @ (P,n,1) and (P,1,n) @ (P,n,n)
    make per row the BLAS calls of ``cond @ values`` and ``cond @ grads``
    on that row alone, so they round identically.
    """
    count, n = scores.shape
    labels = np.tile(np.arange(1, n + 1), count)
    values, grads = batch_loss_and_grad(
        spec, np.repeat(scores, n, axis=0), labels, stats, want_grad=want_grad)
    weights = cond[:, None, :]
    errors = (weights @ values.reshape(-1, n, 1)).reshape(-1)
    if not want_grad:
        return errors, None
    return errors, (weights @ grads.reshape(-1, n, n)).reshape(-1, n)


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


def minimize_conditional_errors(
    spec: LossSpec,
    points,
    *,
    max_steps: int = 10_000,
    init_step: float = 0.5,
    tol: float = 1e-15,
):
    """Independent numeric oracle: gradient descent on unconstrained scores,
    one (scores, value) per point, in input order.

    Backtracking descent starting at step 0.5 with two safeguards: an
    Armijo sufficient-decrease test and a unit cap on the per-iteration
    movement. Together they keep the iterates from sailing over a basin
    into the saturation plateaus these losses have at one-hot softmax
    limits for q > 0, where gradients underflow and descent stalls. The
    step is halved on rejection and grown by 1.5x after a success, so
    flat directions (small posterior entries raised to 1/(1-q)) still
    converge to machine precision within the step budget. Stops when the
    relative per-step improvement falls below ``tol``.

    The points are grouped by class count n and each group descends
    together: one ``batch_loss_and_grad`` call per iteration covers the
    (P*n, n) tile of every point still descending, each row with its own
    point's marginal (a (P*n, n) :class:`PriorStats`). Every point keeps
    its own step, Armijo accept/reject and stopping test, and leaves the
    group at the iteration where its solo descent stops, so its result
    equals the solo (P = 1) one bit for bit.
    """
    return _solve_by_n(points, lambda members: _descend_group(
        spec, [points[i] for i in members], max_steps, init_step, tol))


def _solve_by_n(points, solve):
    """Group the points by class count n and call ``solve`` on the list
    of indices of each group; returns its per-index results in input
    order."""
    results = [None] * len(points)
    groups: dict[int, list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(point.n, []).append(i)
    for members in groups.values():
        for i, result in zip(members, solve(members)):
            results[i] = result
    return results


def _descend_group(spec, points, max_steps, init_step, tol):
    """The descent loop over points that share n; arrays are indexed by
    point, and ``active`` lists the points still descending.

    The gradient norms are stacked matmuls, (P,1,n) @ (P,n,1), which per
    point make the same BLAS dot call as ``np.linalg.norm`` on that point
    alone; the conditional errors round per point as well
    (:func:`conditional_errors`).
    """
    n = points[0].n
    count = len(points)
    cond = np.array([p.cond for p in points])
    priors = np.array([p.priors for p in points])
    max_move = 1.0
    stats = None

    def value_grad(scores, rows):
        nonlocal stats
        if stats is None or len(stats.priors) != len(rows) * n:  # rows shrank
            stats = PriorStats(np.repeat(priors[rows], n, axis=0))
        return conditional_errors(spec, cond[rows], scores, stats,
                                  want_grad=True)

    active = np.arange(count)
    scores = np.zeros((count, n))
    value, grad = value_grad(scores, active)
    step = np.full(count, init_step)
    for _ in range(max_steps):
        g = grad[active]
        gnorm = np.sqrt((g[:, None, :] @ g[:, :, None]).reshape(-1))
        moving = ~(gnorm < 1e-13)
        active, gnorm, g = active[moving], gnorm[moving], g[moving]
        if active.size == 0:
            break
        used = np.minimum(step[active], max_move / gnorm)
        candidate = scores[active] - used[:, None] * g
        cand_value, cand_grad = value_grad(candidate, active)
        # gnorm**2 on Python floats, as the per-point loop always computed
        # it: libm pow differs from gnorm * gnorm in the last bit for
        # about 0.1% of inputs, which could flip an Armijo decision.
        gnorm_sq = np.array([g**2 for g in gnorm.tolist()])
        old_value = value[active]
        accept = cand_value <= old_value - 0.1 * used * gnorm_sq
        grown = np.minimum(step[active] * 1.5, 1e6)
        halved = used * 0.5
        done = np.where(
            accept,
            old_value - cand_value < tol * np.maximum(1.0, np.abs(cand_value)),
            halved < 1e-14)
        step[active] = np.where(accept, grown, halved)
        took = active[accept]
        scores[took] = candidate[accept]
        value[took] = cand_value[accept]
        grad[took] = cand_grad[accept]
        active = active[~done]
        if active.size == 0:
            break
    return [(scores[i].copy(), float(value[i])) for i in range(count)]


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
    """Surrogate conditional regrets of points sharing n, one per row of
    the (P, n) arrays: sum_y w_y [Psi^q(t_achieved) - Psi^q(t_target)].

    Computing the regret as conditional_errors - best_conditional_error
    cancels catastrophically once the achieved softmax saturates: near
    q = 1 the guaranteed regret scales like p_min^(2/(1-q)) and can sit
    fifty orders of magnitude below the two conditional errors. Working
    per class in the log domain keeps full relative precision at both
    the t -> 0 and t -> 1 ends (exp for small t^q, expm1 for large).
    For GCA (unit margins) the prior-ratio weights reduce the regret to
    the plain generalized cross-entropy regret under the reweighted
    posterior, scaled by the normalizer. The terms of zero-weight entries
    (impossible labels, cond 0) are zeroed; adding 0.0 keeps a row sum
    exact.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf at impossible labels
        if family == "GLA":
            weights = cond
            log_achieved = _log_normalize(scores + np.log(priors) / (1.0 - q))
            log_dist = np.log(cond)
        else:
            weights = cond / priors
            log_achieved = _log_normalize(scores)
            log_dist = np.log(weights / weights.sum(axis=1, keepdims=True))
    log_target = _log_normalize((1.0 / (1.0 - q)) * log_dist)
    if q == 0.0:
        with np.errstate(invalid="ignore"):  # 0 * -inf at impossible labels
            terms = weights * (log_target - log_achieved)
    else:
        u_t = q * log_target
        u_a = q * log_achieved
        big = (u_t > -0.693) & (u_a > -0.693)  # both t^q above ~1/2
        terms = weights * np.where(big,
                                   np.expm1(u_t) - np.expm1(u_a),
                                   np.exp(u_t) - np.exp(u_a))
    regret = np.where(weights > 0.0, terms, 0.0).sum(axis=1)
    return regret if q == 0.0 else regret / q


def gla_bound_transform(t: float, p_min: float, q: float) -> float:
    """Regret transform of the logit-adjusted family,
    sqrt(2t) / (p_min^(1/(1-q)) sqrt(1-q)); sqrt(2t) / p_min at q = 0."""
    t = max(t, 0.0)
    return math.sqrt(2.0 * t) / (p_min ** (1.0 / (1.0 - q)) * math.sqrt(1.0 - q))


def gca_bound_transform(t: float, p_min: float, n: int, q: float) -> float:
    """Regret transform of the class-aware family (unit margins),
    sqrt(2 n^q t) / sqrt(p_min); sqrt(2t) / sqrt(p_min) at q = 0."""
    t = max(t, 0.0)
    return math.sqrt(2.0 * n**q * t) / math.sqrt(p_min)


def check_regret_bounds(family: str, points, scores, q: float) -> list:
    """Conditional-regret bound checks of one family at one q: one
    :class:`RegretReport` per (point, score vector), in input order.

    ``family`` is "GLA" (logit-adjusted) or "GCA" (class-aware, unit
    margins); every point needs all labels reachable. The balanced regret
    of argmax(scores), ties to the highest label, must not exceed the
    family's bound transform of the surrogate conditional regret. Points
    sharing n are computed together, row-wise; every row sum runs left to
    right, so a point's report equals its solo one bit for bit.
    """
    if family not in ("GLA", "GCA"):
        raise ValueError(f"unsupported family {family!r}")
    if not all(point.is_regular for point, _ in zip(points, scores,
                                                    strict=True)):
        raise ValueError("bound check requires all labels reachable")

    def check_group(members):
        n = points[members[0]].n
        cond = np.array([points[i].cond for i in members])
        priors = np.array([points[i].priors for i in members])
        group_scores = as_finite_array([scores[i] for i in members], "scores")
        if group_scores.shape != cond.shape:
            raise ValueError(f"scores must have {n} entries per point")
        ratios = cond / priors
        predicted = argmax_highest(group_scores)
        targets = ratios.max(axis=1) - ratios[np.arange(len(members)), predicted]
        surrogates = _surrogate_regrets(family, cond, priors, group_scores, q)
        reports = []
        for target, t, p_min in zip(targets.tolist(), surrogates.tolist(),
                                    priors.min(axis=1).tolist()):
            bound = (gla_bound_transform(t, p_min, q) if family == "GLA"
                     else gca_bound_transform(t, p_min, n, q))
            reports.append(RegretReport(target, t, bound))
        return reports

    return _solve_by_n(points, check_group)


# ---------------------------------------------------------------------------
# Margin machinery.
# ---------------------------------------------------------------------------


def phi_rho(u, rho: float):
    """Ramp loss min(1, max(0, 1 - u/rho)): 1 at margin 0, 0 at margin rho."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return np.clip(1.0 - np.asarray(u, dtype=np.float64) / rho, 0.0, 1.0)


def margin_losses(scores, labels, costs, rho) -> np.ndarray:
    """Cost-sensitive margin loss cost * max_{y' != y} Phi_rho(s_y - s_y')
    of each row of the (m, n) scores, with 1-based labels.

    The max runs over the competing labels only (the runner-up reading,
    under which the loss dominates cost * 1[argmax != y]). Phi_rho is
    non-increasing and rounding is monotone, so it is Phi_rho of the gap
    to the runner-up score, bit for bit.
    """
    scores = as_finite_array(scores, "scores")
    labels, costs = np.asarray(labels), np.asarray(costs, dtype=np.float64)
    m, n = scores.shape
    if n < 2 or np.any(costs < 0):
        raise ValueError("need n >= 2 classes and costs >= 0")
    if np.any((labels < 1) | (labels > n)):
        raise ValueError(f"labels must lie in 1..{n}")
    rows = np.arange(m)
    own = scores[rows, labels - 1]
    masked = scores.copy()
    masked[rows, labels - 1] = -np.inf
    return costs * phi_rho(own - masked.max(axis=1), rho)


def empirical_rademacher_linear(
    sample: Dataset, norm_bound: float, trials: int, seed
):
    """Monte-Carlo empirical Rademacher complexity of the bounded linear family.

    For per-class-norm-bounded linear scorers the inner supremum is exact:
    sup_h sum_{i,y} eps_iy h(x_i, y) = norm_bound * sum_y ||sum_i eps_iy x_i||_2,
    so only the expectation over sign matrices is estimated. Returns
    (estimate, standard_error).
    """
    if norm_bound < 0 or trials < 1:
        raise ValueError("need norm_bound >= 0 and trials >= 1")
    X = sample.features
    m, n = X.shape[0], sample.n
    rng = np.random.default_rng(seed)
    draws = np.empty(trials)
    for t in range(trials):
        eps = 2.0 * rng.integers(0, 2, size=(m, n)) - 1.0
        draws[t] = norm_bound * np.linalg.norm(X.T @ eps, axis=0).sum() / m
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
        if rho <= 0:
            raise ValueError("rho grid entries must be positive")
        lhs = c_y * phi_rho(v, rho)
        rhs = c_max_const * softplus(log_ratio - v / rho)
        worst = min(worst, float(np.min(rhs - lhs)))
    return worst


def minimizability_gap_finite(
    joint: DiscreteJoint, hypotheses, spec: LossSpec
) -> float:
    """Exact minimizability gap of a finite hypothesis list.

    Each hypothesis is a (num_x, n) score table. The gap is the best full
    risk minus the expectation over x of the best per-x conditional
    error, both computed by enumeration; it is always >= 0 and vanishes
    when the list contains every combination of per-x minimizers.
    """
    tables = [np.asarray(h, dtype=np.float64) for h in hypotheses]
    if not tables:
        raise ValueError("need at least one hypothesis")
    for table in tables:
        if table.shape != (joint.num_x, joint.n):
            raise ValueError(
                f"hypothesis tables must be {(joint.num_x, joint.n)}, "
                f"got {table.shape}"
            )
    cond_err, _ = conditional_errors(
        spec, np.tile(joint.cond_y_given_x, (len(tables), 1)),
        np.concatenate(tables), PriorStats(joint.p_y))
    cond_err = cond_err.reshape(len(tables), joint.num_x)
    risks = cond_err @ joint.p_x
    return float(risks.min() - joint.p_x @ cond_err.min(axis=0))


# ---------------------------------------------------------------------------
# Fuzzing substrate and the stored-witness search.
# ---------------------------------------------------------------------------


def random_conditional_point(
    rng: np.random.Generator,
    n: int,
    floor: float = 0.05,
    ratio_gap: float = 0.0,
) -> ConditionalPoint:
    """Random point with all posterior/prior entries >= floor.

    With ratio_gap > 0, resamples until the top two balanced ratios are
    separated by that relative gap, avoiding knife-edge argmaxes in
    checks that compare labels across independently computed optima.
    """
    if not (0.0 < floor < 1.0 / n):
        raise ValueError(f"floor must lie in (0, 1/{n})")
    while True:
        w = rng.random(n)
        cond = floor + (1.0 - n * floor) * (w / w.sum())
        w = rng.random(n)
        priors = floor + (1.0 - n * floor) * (w / w.sum())
        point = ConditionalPoint(cond, priors)
        if ratio_gap > 0.0:
            top = np.sort(point.ratios)[::-1]
            if (top[0] - top[1]) / top[0] < ratio_gap:
                continue
        return point


def find_la_disagreement(
    tau: float,
    grid=None,
    min_gap: float = 1e-9,
) -> ConditionalPoint | None:
    """First two-class grid point where the logit-adjusted optimal label
    (temperature tau) differs from the balanced-optimal label.

    Scans cond x prior products of a coarse simplex grid in a fixed
    order, skipping knife-edge points whose top-two ratio gap (for either
    criterion) is below min_gap, so the stored witness is robust to
    rounding. Returns None when no disagreement exists on the grid
    (e.g. tau = 1).
    """
    if grid is None:
        grid = np.round(np.arange(1, 20) * 0.05, 10)
    for prior1 in grid:
        for p1 in grid:
            point = ConditionalPoint((p1, 1.0 - p1), (prior1, 1.0 - prior1))
            for ratios in (point.ratios, point.cond / point.priors**tau):
                top = np.sort(ratios)[::-1]
                if (top[0] - top[1]) / top[0] < min_gap:
                    break
            else:
                if bayes_la_label(point, tau) != bayes_balanced_label(point):
                    return point
    return None
