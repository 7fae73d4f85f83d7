"""The numerical checks behind ``imbloss verify`` and the acceptance suite.

Each function runs one check of the paper's claims on a sample it is
given (points, an rng, or a dataset) and returns the evidence records
that ``imbloss verify`` writes, one JSON object per line. Nothing here
opens a file or prints. A record with ``"ok": False`` is a failed check;
``is_violation`` says which failed records the CLI counts.

Functions of the other modules are called through their module
(``theory.check_gla_bound``, ``trainer.train``), so code that replaces a
module attribute, such as a tracer, sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from . import datagen, theory, trainer
from .losses import LossSpec


def bayes_points(rng: np.random.Generator, count: int):
    """``count`` random conditional points with 2..6 classes, drawn for
    ``bayes``."""
    return [theory.random_conditional_point(rng, int(rng.integers(2, 7)),
                                            ratio_gap=1e-3)
            for _ in range(count)]


def bayes(pairs):
    """Pointwise optimality of the logit-adjusted family, per (point, q).

    The numerically minimized conditional GLA error must match the closed
    form to 1e-10, and its argmax label must be the balanced-optimal
    label. The points of each q are solved in one lockstep call.
    """
    pairs = list(pairs)
    solved = [None] * len(pairs)
    for q in dict.fromkeys(q for _, q in pairs):
        trials = [t for t, (_, tq) in enumerate(pairs) if tq == q]
        results = theory.minimize_conditional_errors(
            LossSpec("GLA", q=q), [pairs[t][0] for t in trials])
        for t, result in zip(trials, results):
            solved[t] = result
    for trial, ((point, q), (scores, value)) in enumerate(zip(pairs, solved)):
        closed = theory.best_conditional_error("GLA", point, q)
        label = int(np.argmax(scores)) + 1
        expected = theory.bayes_balanced_label(point)
        yield {
            "trial": trial, "n": point.n, "q": q,
            "cond": point.cond.tolist(), "priors": point.priors.tolist(),
            "value": value, "closed": closed, "argmax_label": label,
            "balanced_label": expected,
            "ok": abs(value - closed) <= 1e-10 and label == expected,
        }


def bounds(rng: np.random.Generator, trials: int):
    """Conditional-regret bound fuzzing: one GLA and one GCA record per
    trial, q cycling through 0, 0.3, 0.5, 0.7, 0.9."""
    qs = (0.0, 0.3, 0.5, 0.7, 0.9)
    for trial in range(trials):
        n = int(rng.integers(2, 7))
        q = qs[trial % len(qs)]
        point = theory.random_conditional_point(rng, n, floor=0.03)
        scores = rng.normal(0, 3, n)
        for family, check in (("GLA", theory.check_gla_bound),
                              ("GCA", theory.check_gca_bound)):
            report = check(point, scores, q)
            yield {
                "trial": trial, "family": family, "n": n, "q": q,
                "cond": point.cond.tolist(), "priors": point.priors.tolist(),
                "scores": scores.tolist(),
                "target_regret": report.target_regret,
                "surrogate_regret": report.surrogate_regret,
                "bound_value": report.bound_value, "slack": report.slack,
                "ok": report.holds,
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
    record per failing trial, then a summary."""
    failures = 0
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        scores = rng.normal(0, 2, n)
        label = int(rng.integers(1, n + 1))
        cost = float(rng.uniform(0.0, 5.0))
        rho = float(rng.uniform(0.2, 3.0))
        predicted = n - int(np.argmax(scores[::-1]))
        loss = theory.margin_loss(scores, label, cost, rho)
        if loss < cost * (predicted != label) - 1e-12:
            failures += 1
            yield {"check": "domination", "trial": trial, "ok": False}
    yield {"check": "domination", "trials": trials, "failures": failures,
           "ok": failures == 0}


def _nonempty_counts(rng, total, probs):
    counts = rng.multinomial(total, probs)
    while np.any(counts == 0):
        counts = rng.multinomial(total, probs)
    return counts


def margin_bound(rng: np.random.Generator, resamples: int):
    """The margin generalization bound across fresh train/test draws of a
    3-class Gaussian task: one record per resample, then the rate, which
    must reach 85%."""
    probs = [0.6, 0.3, 0.1]
    # the sampling distribution is fixed; only train/test draws resample
    means = np.random.default_rng(123).normal(0, 2.0, (3, 6))
    holds = 0
    for rep in range(resamples):
        train_set = datagen.gaussian_mixture(
            3, 6, _nonempty_counts(rng, 500, probs), means, np.ones(3),
            int(rng.integers(2**31)))
        test_set = datagen.gaussian_mixture(
            3, 6, _nonempty_counts(rng, 2000, probs), means, np.ones(3),
            int(rng.integers(2**31)))
        model = trainer.LinearModel.init_random(3, 6, rep, norm_bound=1.0,
                                                use_bias=False)
        model, _ = trainer.train(
            model, train_set, LossSpec("WCE"),
            trainer.TrainConfig(epochs=10, batch_size=50, lr0=0.05, seed=rep))
        report = theory.check_theorem5_bound(
            model, train_set, test_set, rho=0.5, norm_bound=1.0, delta=0.1,
            trials=30, seed=rep)
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
