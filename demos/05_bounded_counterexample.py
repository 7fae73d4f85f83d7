"""Where logit adjustment places its boundary under a norm bound.

On a skewed two-dimensional distribution (x1 uniform, x2 given x1 normal
with sign-dependent mean y*x1 and standard deviation x1, class 1 drawn
with probability 1/8), the best norm-bounded linear boundary for the
prior-weighted zero-one objective and for the class-aware loss is the
horizontal line x2 = 0 -- but the best boundary for the tau=1
logit-adjusted loss tilts away from horizontal. This demo reproduces the
geometry at reduced scale; the acceptance suite runs it at m = 50,000.
"""

import numpy as np

from imbloss import LossSpec, figure1_distribution
from imbloss.trainer import (
    BoundedLinearFamily,
    best_in_class_search,
    boundary_angle_degrees,
)

m = 20_000
data = figure1_distribution(m, seed=2)
print(f"sample: m={m}, class counts {data.class_counts().tolist()} "
      f"(skew ~ 1:7)\n")

family = BoundedLinearFamily(n=2, d=2, norm_bound=100.0)
objectives = [
    ("balanced 0-1", "balanced"),
    ("class-aware (q=0, unit margins)", LossSpec("GCA", q=0.0,
                                                 margins=(1.0, 1.0))),
    ("logit-adjusted (tau=1)", LossSpec("LA", tau=1.0)),
]
print(f"{'objective':34s} {'boundary angle vs x2=0':>24s}")
for name, objective in objectives:
    model, value = best_in_class_search(family, data, objective)
    angle = boundary_angle_degrees(model)
    print(f"{name:34s} {angle:20.2f} deg")

print("\nthe balanced and class-aware optima track the horizontal axis; the "
      "logit-adjusted optimum is visibly tilted, i.e. it is not the "
      "balanced-optimal classifier for this bounded family.")
