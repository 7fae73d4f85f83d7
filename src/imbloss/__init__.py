"""Surrogate losses, training, and consistency checks for imbalanced
multi-class classification.

The package is organized as a numpy library:

* :mod:`imbloss.numerics` -- the finiteness check, softplus, the
  finite-difference gradient oracle, a ties-to-highest argmax, the row
  norm cap and the damped Newton driver;
* :mod:`imbloss.losses` -- every loss family (values and analytic
  gradients), class statistics, loss specifications;
* :mod:`imbloss.datagen` -- long-tail / step / Gaussian / two-class
  synthetic data, plus the CSV format;
* :mod:`imbloss.trainer` -- linear and MLP scorers, SGD with Nesterov
  momentum, norm-bounded best-in-class search;
* :mod:`imbloss.metrics` -- balanced error, per-class error and the
  confusion counts;
* :mod:`imbloss.theory` -- numeric oracles for pointwise-optimal labels,
  conditional-regret bounds and margin bounds;
* :mod:`imbloss.verify` -- the checks behind ``imbloss verify`` and the
  acceptance suite, as pure functions returning evidence records;
* :mod:`imbloss.cli` -- the ``imbloss`` command (synth/train/verify/report).

Class labels are 1-based integers everywhere in the public API.
"""

from .losses import (
    ClassStats,
    LossSpec,
    PriorStats,
    default_gca_margins,
    eval_grad,
    eval_loss,
)
from .datagen import (
    Dataset,
    figure1_distribution,
    gaussian_mixture,
    imbalance_ratio,
    longtail_counts,
    step_counts,
)
from .metrics import balanced_error, confusion, per_class_error
from .numerics import finite_diff_gradient
from .theory import (
    ConditionalPoint,
    RegretReport,
    bal_regret,
    bayes_balanced_label,
    bayes_la_label,
    best_conditional_error,
    check_lamargin,
    check_theorem5_bound,
    empirical_rademacher_linear,
    find_la_disagreement,
    minimize_conditional_errors,
    phi_rho,
)
from .trainer import (
    BoundedLinearFamily,
    LinearModel,
    MlpModel,
    TrainConfig,
    best_in_class_search,
    boundary_angle_degrees,
    cosine_lr,
)

__version__ = "0.1.0"
