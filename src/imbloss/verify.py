"""The numerical checks behind ``imbloss verify`` and the acceptance suite.

Each function runs one check of the paper's claims on a sample it is
given (points, an rng, or a dataset) and returns the evidence records
that ``imbloss verify`` writes, one JSON object per line. Nothing here
opens a file or prints. A record with ``"ok": False`` is a failed check;
``is_violation`` says which failed records the CLI counts.

Functions of the other modules are called through their module
(``theory.regret_reports``, ``trainer.train_lockstep``), so code that
replaces a module attribute, such as a tracer, sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import datagen, numerics, theory, trainer
from .losses import LossSpec


def bayes_points(rng: np.random.Generator, count: int):
    """``count`` random conditional points with 2..6 classes, drawn for
    ``bayes``."""
    return [theory.random_conditional_point(rng, int(rng.integers(2, 7)),
                                            ratio_gap=1e-3)
            for _ in range(count)]


def bayes(pairs):
    """Pointwise optimality of the logit-adjusted family, per (point, q).

    The conditional GLA error minimized by the damped Newton oracle
    ``theory.minimize_conditional_errors`` must match the closed form to
    1e-10, and its argmax label must be the balanced-optimal label. Every
    (point, q) is solved in one oracle call, in lockstep per class count.
    """
    pairs = list(pairs)
    solved = theory.minimize_conditional_errors(
        [LossSpec("GLA", q=q) for _, q in pairs], [p for p, _ in pairs])
    for trial, ((point, q), (scores, value)) in enumerate(zip(pairs, solved)):
        closed = theory.best_conditional_error("GLA", point, q)
        label = numerics.argmax_highest(scores) + 1
        expected = theory.bayes_balanced_label(point)
        yield {
            "trial": trial, "n": point.n, "q": q,
            "cond": point.cond.tolist(), "priors": point.priors.tolist(),
            "value": value, "closed": closed, "argmax_label": label,
            "balanced_label": expected,
            "ok": abs(value - closed) <= 1e-10 and label == expected,
        }


# Trials per block of the bounds suite. Checking all 10,000 default
# trials at once adds 18 MB to the command's 37 MB peak and a block of
# 1000 adds 1.4 MB; each saves at most 0.03 s of its 0.65 s (os.wait4,
# one BLAS thread).
_BOUNDS_BLOCK = 250


def bounds(rng: np.random.Generator, trials: int):
    """Conditional-regret bound fuzzing: one GLA and one GCA record per
    trial, q cycling through 0, 0.3, 0.5, 0.7, 0.9 with the trial index.

    Each trial draws n in 2..6, the weights that
    ``theory.random_conditional_point`` (floor 0.03) draws, then its
    scores. A block of ``_BOUNDS_BLOCK`` trials is checked one class
    count at a time: ``theory.floored_simplex`` maps the (trials, n)
    weights of that n onto the simplex, ``theory.check_point_rows``
    validates them once, and one ``theory.regret_reports`` call per
    family checks them. The block's records then follow in trial order,
    each with the bits of checking its trial's point alone.
    """
    qs = (0.0, 0.3, 0.5, 0.7, 0.9)
    for start in range(0, trials, _BOUNDS_BLOCK):
        size = min(_BOUNDS_BLOCK, trials - start)
        draws = [(rng.random(k), rng.random(k), rng.normal(0, 3, k))
                 for k in (int(rng.integers(2, 7)) for _ in range(size))]
        q = np.take(qs, (start + np.arange(size)) % len(qs))
        rows = {}  # trial -> cond, priors, scores, then a check per family
        for k in sorted({len(w) for w, _, _ in draws}):
            ids = [i for i, (w, _, _) in enumerate(draws) if len(w) == k]
            w_cond, w_prior, scores = map(np.array,
                                          zip(*(draws[i] for i in ids)))
            cond = theory.floored_simplex(w_cond, 0.03)
            priors = theory.floored_simplex(w_prior, 0.03)
            theory.check_point_rows(cond, priors)
            numerics.as_finite_array(scores, "scores")
            columns = [cond.tolist(), priors.tolist(), scores.tolist()]
            for family in ("GLA", "GCA"):
                report = theory.regret_reports(family, cond, priors, scores,
                                               q[ids])
                columns.append(zip(
                    report.target_regret.tolist(),
                    report.surrogate_regret.tolist(),
                    report.bound_value.tolist(), report.slack.tolist(),
                    report.holds.tolist()))
            rows.update(zip(ids, zip(*columns)))
        for i in range(size):
            cond, priors, scores, *checks = rows[i]
            for family, (target, surrogate, bound, slack, ok) in zip(
                    ("GLA", "GCA"), checks):
                yield {
                    "trial": start + i, "family": family, "n": len(cond),
                    "q": qs[(start + i) % len(qs)], "cond": cond,
                    "priors": priors, "scores": scores,
                    "target_regret": target, "surrogate_regret": surrogate,
                    "bound_value": bound, "slack": slack, "ok": ok,
                }


def ramp_grid():
    """The cost-weighted ramp is covered by the logistic bound on the full
    (v, rho, c_y, c_y') grid; one record with the worst slack."""
    v_grid = np.arange(-10.0, 10.0 + 1e-12, 0.01)
    costs = [1.0, 2.0, 10.0]
    worst = min(theory.check_lamargin(cy, cyp, 1.0, 10.0, v_grid,
                                      [0.1, 1.0, 10.0])
                for cy in costs for cyp in costs)
    return {"check": "ramp_log_inequality", "worst_slack": worst,
            "ok": worst >= -1e-12}


def domination(rng: np.random.Generator, trials: int):
    """The margin loss dominates the cost-weighted zero-one loss: one
    record per failing trial, in trial order, then a summary.

    Each trial draws n in 2..5, scores, a label, a cost and a rho, in that
    order. The draws are recorded first, scores padded to five classes;
    then the trials of each n are scored by one ``theory.margin_losses``
    call with a rho per row.
    """
    max_n = 5
    n = np.empty(trials, dtype=np.int64)
    scores = np.zeros((trials, max_n))
    labels = np.empty(trials, dtype=np.int64)
    costs, rhos = np.empty(trials), np.empty(trials)
    for trial in range(trials):
        n[trial] = k = int(rng.integers(2, max_n + 1))
        scores[trial, :k] = rng.normal(0, 2, k)
        labels[trial] = rng.integers(1, k + 1)
        costs[trial] = rng.uniform(0.0, 5.0)
        rhos[trial] = rng.uniform(0.2, 3.0)
    fails = np.zeros(trials, dtype=bool)
    for k in range(2, max_n + 1):
        rows = np.flatnonzero(n == k)
        predicted = numerics.argmax_highest(scores[rows, :k]) + 1
        loss = theory.margin_losses(scores[rows, :k], labels[rows],
                                    costs[rows], rhos[rows])
        fails[rows] = loss < costs[rows] * (predicted != labels[rows]) - 1e-12
    failing = np.flatnonzero(fails).tolist()
    for trial in failing:
        yield {"check": "domination", "trial": trial, "ok": False}
    yield {"check": "domination", "trials": trials, "failures": len(failing),
           "ok": not failing}


def _nonempty_counts(rng, total, probs):
    counts = rng.multinomial(total, probs)
    while np.any(counts == 0):
        counts = rng.multinomial(total, probs)
    return counts


def margin_bound(rng: np.random.Generator, resamples: int):
    """The margin generalization bound across fresh train/test draws of a
    3-class Gaussian task: one record per resample, then the rate, which
    must reach 85%.

    Every resample's train set and test draw are drawn first, in resample
    order; then all the resamples train in one lockstep call, each on its
    own train set. That stack holds the 500-row train sets twice, about
    5.6 MB at the default 100 resamples. A resample that diverges raises
    the TrainingDiverged that call returns for it, after the records of
    the ones before; each test set is drawn only for its own check."""
    probs = [0.6, 0.3, 0.1]
    # the sampling distribution is fixed; only train/test draws resample
    means = np.random.default_rng(123).normal(0, 2.0, (3, 6))
    train_sets, test_draws = [], []
    for _ in range(resamples):
        train_sets.append(datagen.gaussian_mixture(
            3, 6, _nonempty_counts(rng, 500, probs), means, np.ones(3),
            int(rng.integers(2**31))))
        test_draws.append((_nonempty_counts(rng, 2000, probs),
                           int(rng.integers(2**31))))
    outcomes = trainer.train_lockstep(
        [trainer.LinearModel.init_random(3, 6, rep, norm_bound=1.0,
                                         use_bias=False)
         for rep in range(resamples)],
        train_sets, LossSpec("WCE"),
        [trainer.TrainConfig(epochs=10, batch_size=50, lr0=0.05, seed=rep)
         for rep in range(resamples)])
    holds = 0
    for rep, (train_set, (counts, seed), outcome) in enumerate(zip(
            train_sets, test_draws, outcomes)):
        if isinstance(outcome, trainer.TrainingDiverged):
            raise outcome
        test_set = datagen.gaussian_mixture(3, 6, counts, means, np.ones(3),
                                            seed)
        report = theory.check_theorem5_bound(
            outcome[0], train_set, test_set, rho=0.5, norm_bound=1.0,
            delta=0.1, trials=30, seed=rep)
        holds += report.holds
        yield {"check": "margin_bound", "rep": rep, "rhs": report.rhs,
               "test_risk": report.test_balanced_risk, "ok": report.holds}
    required = math.ceil(0.85 * resamples)
    yield {"check": "margin_bound_rate", "holds": holds,
           "resamples": resamples, "required": required,
           "ok": holds >= required}


def la_disagreements():
    """The two-class grid search finds a point where the temperature-tau
    logit-adjusted label differs from the balanced label, for tau 0.5
    and 2."""
    for tau in (0.5, 2.0):
        point = theory.find_la_disagreement(tau)
        yield {
            "check": "la_disagreement", "tau": tau,
            "point": None if point is None else {
                "cond": point.cond.tolist(), "priors": point.priors.tolist()},
            "ok": point is not None and (
                theory.bayes_la_label(point, tau)
                != theory.bayes_balanced_label(point)),
        }


def figure1_angles(data, norm_bound: float):
    """Best-in-class no-bias linear boundaries on the Figure-1 sample.

    Returns ``(records, models)``: one ``figure1_angle`` record per
    objective (balanced, GCA, LA), then the thresholds record, which
    requires balanced and GCA within 2 degrees of horizontal and LA at
    least 5 degrees off; ``models`` maps each objective to its boundary.
    """
    family = trainer.BoundedLinearFamily(n=2, d=2, norm_bound=norm_bound)
    records, models, angles = [], {}, {}
    for name, objective in (("balanced", "balanced"),
                            ("GCA", LossSpec("GCA", q=0.0, margins=(1.0, 1.0))),
                            ("LA", LossSpec("LA", tau=1.0))):
        model, value = trainer.best_in_class_search(family, data, objective)
        models[name] = model
        angles[name] = trainer.boundary_angle_degrees(model)
        records.append({"check": "figure1_angle", "objective": name,
                        "angle_degrees": angles[name],
                        "objective_value": value})
    records.append({"check": "figure1_thresholds", **angles,
                    "ok": (angles["balanced"] <= 2.0 and angles["GCA"] <= 2.0
                           and angles["LA"] >= 5.0)})
    return records, models


def is_violation(record) -> bool:
    """Whether the CLI counts ``record`` as a violation: it failed, and it
    is neither a domination summary, which restates the failing trials
    before it, nor a single margin-bound resample, which is judged only
    through the rate."""
    if record.get("check") == "margin_bound" or "trials" in record:
        return False
    return not record.get("ok", True)
