"""Pointwise consistency checks at a handful of illustrative points.

Shows (i) where logit adjustment with the wrong temperature picks a
different label than the balanced-optimal rule, (ii) that numerically
minimizing the generalized logit-adjusted loss recovers the balanced
label and the closed-form optimum, and (iii) the conditional-regret
bounds in action on random score vectors.
"""

import numpy as np

from imbloss import (
    ConditionalPoint,
    LossSpec,
    bal_regret,
    bayes_balanced_label,
    bayes_la_label,
    best_conditional_error,
    minimize_conditional_errors,
)
from imbloss.theory import check_regret_bounds, random_conditional_point

print("== temperature sensitivity of logit adjustment")
point = ConditionalPoint([0.05, 0.95], priors=[0.10, 0.90])
for tau in (0.0, 0.5, 1.0, 2.0):
    label = bayes_la_label(point, tau)
    marker = "  <- disagrees" if label != bayes_balanced_label(point) else ""
    print(f"  tau={tau:3.1f}: optimal label {label}{marker}")
print(f"  balanced-optimal label: {bayes_balanced_label(point)}\n")

print("== numeric minimization recovers the balanced label and the optimum")
rng = np.random.default_rng(0)
for q in (0.0, 0.5):
    point = random_conditional_point(rng, 4, ratio_gap=1e-3)
    [(scores, value)] = minimize_conditional_errors(LossSpec("GLA", q=q),
                                                    [point])
    closed = best_conditional_error("GLA", point, q)
    print(f"  q={q}: argmax label {int(np.argmax(scores)) + 1} "
          f"(balanced {bayes_balanced_label(point)}), "
          f"objective gap {abs(value - closed):.2e}")

print("\n== conditional-regret bounds on random scores")
rng = np.random.default_rng(1)
print(f"  {'family':6s} {'q':>4s} {'target':>9s} {'surrogate':>10s} "
      f"{'bound':>9s} {'slack':>9s}")
for trial in range(6):
    point = random_conditional_point(rng, 3)
    scores = rng.normal(0, 2, 3)
    q = (0.0, 0.5)[trial % 2]
    for family in ("GLA", "GCA"):
        [r] = check_regret_bounds(family, [point], [scores], q)
        print(f"  {family:6s} {q:4.1f} {r.target_regret:9.4f} "
              f"{r.surrogate_regret:10.4f} {r.bound_value:9.4f} "
              f"{r.slack:9.4f}")

print("\nevery slack is nonnegative: the bounds cover the balanced regret.")
print(f"sanity: predicting the balanced label has zero regret: "
      f"{bal_regret(point, bayes_balanced_label(point))}")
