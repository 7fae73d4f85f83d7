"""Cost-sensitive margin bound on a synthetic 3-class task.

Estimates the empirical Rademacher complexity of a norm-bounded linear
family by Monte Carlo, assembles the margin-based generalization bound,
and compares it with the cost-weighted test error of a trained model at
several margin scales.
"""

import numpy as np

from imbloss import (
    LossSpec,
    check_theorem5_bound,
    empirical_rademacher_linear,
    gaussian_mixture,
)
from imbloss.trainer import LinearModel, TrainConfig, train_lockstep

rng = np.random.default_rng(3)
means = rng.normal(0, 2.0, (3, 6))
train_set = gaussian_mixture(3, 6, [300, 150, 50], means, np.ones(3), seed=0)
test_set = gaussian_mixture(3, 6, [1200, 600, 200], means, np.ones(3), seed=1)

norm_bound = 1.0
rad, stderr = empirical_rademacher_linear(train_set, norm_bound, trials=200,
                                          seed=0)
print(f"empirical Rademacher complexity (norm {norm_bound} linear family, "
      f"m={train_set.m}): {rad:.4f} +- {stderr:.4f}")

model = LinearModel.init_random(3, 6, seed=0, norm_bound=norm_bound,
                                use_bias=False)
((model, _),) = train_lockstep(
    [model], train_set, LossSpec("WCE"),
    [TrainConfig(epochs=20, batch_size=50, lr0=0.05, seed=0)])

print(f"\n{'rho':>6s} {'margin risk':>12s} {'complexity':>11s} "
      f"{'deviation':>10s} {'bound rhs':>10s} {'test risk':>10s}  holds")
for rho in (0.1, 0.5, 2.0, 10.0):
    rep = check_theorem5_bound(model, train_set, test_set, rho=rho,
                               norm_bound=norm_bound, delta=0.1, trials=100,
                               seed=1)
    print(f"{rho:6.1f} {rep.empirical_margin_risk:12.3f} "
          f"{rep.complexity_term:11.3f} {rep.deviation_term:10.3f} "
          f"{rep.rhs:10.3f} {rep.test_balanced_risk:10.3f}  {rep.holds}")

print("\nlarger rho inflates the empirical margin term but the bound never "
      "dips below the true cost-weighted risk.")
