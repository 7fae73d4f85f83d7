"""Independent reference oracles the tests compare the library against,
each assembled term by term from its definition."""

from imbloss.numerics import as_finite_array


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
