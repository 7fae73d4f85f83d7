"""Train linear models on a long-tailed mixture and compare balanced error.

Synthesizes a 6-class, 10-dimensional Gaussian mixture with a 50:1
long-tail, trains one linear model per loss family with identical
optimization settings, and reports the balanced error (sum of per-class
error rates) on an identically imbalanced test set.
"""

import numpy as np

from imbloss import (
    LossSpec,
    balanced_error,
    default_gca_margins,
    gaussian_mixture,
    longtail_counts,
    per_class_error,
)
from imbloss.trainer import LinearModel, TrainConfig, train_lockstep

n, d = 6, 10
rng = np.random.default_rng(42)
means = 1.0 * rng.standard_normal((n, d))
scales = np.ones(n)

train_counts = longtail_counts(n, 400, 50)
test_counts = longtail_counts(n, 150, 50)
train_set = gaussian_mixture(n, d, train_counts, means, scales, seed=1)
test_set = gaussian_mixture(n, d, test_counts, means, scales, seed=2)
stats = train_set.stats()
print(f"train counts {train_counts.tolist()}  test counts {test_counts.tolist()}\n")

cfg = TrainConfig(epochs=200, batch_size=64, lr0=0.1, momentum=0.9, seed=0)
specs = {
    "CE": LossSpec("CE"),
    "WCE": LossSpec("WCE"),
    "LA(tau=1)": LossSpec("LA", tau=1.0),
    "GLA(q=0.3)": LossSpec("GLA", q=0.3),
    "GCA(q=0, default margins)": LossSpec(
        "GCA", q=0.0, margins=tuple(default_gca_margins(stats))),
}

# The five Psi-family losses train as one lockstep stack, each run as it
# would alone.
outcomes = train_lockstep(
    [LinearModel.init_random(n, d, seed=0) for _ in specs], train_set,
    list(specs.values()), [cfg] * len(specs))

print(f"{'loss':28s} {'balanced error':>14s}   per-class error rates")
for name, (trained, history) in zip(specs, outcomes):
    err = balanced_error(trained, test_set)
    rates = np.round(per_class_error(trained, test_set), 2)
    print(f"{name:28s} {err:14.3f}   {rates}")

print("\nbalanced error sums the per-class rates, so a classifier that "
      "ignores the tail pays for every tail class in full.")
