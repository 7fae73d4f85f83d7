"""Surrogate losses, training, and consistency checks for imbalanced
multi-class classification.

The package is organized as a numpy library:

* :mod:`imbloss.numerics` -- stable log-sum-exp/softmax primitives and
  the finite-difference gradient oracle;
* :mod:`imbloss.losses` -- every loss family (values and analytic
  gradients), class statistics, loss specifications;
* :mod:`imbloss.datagen` -- long-tail / step / Gaussian / two-class
  synthetic data and finite joint distributions, plus the CSV format;
* :mod:`imbloss.trainer` -- linear and MLP scorers, SGD with Nesterov
  momentum, norm-bounded best-in-class search;
* :mod:`imbloss.metrics` -- balanced error and friends;
* :mod:`imbloss.theory` -- numeric oracles for pointwise-optimal labels,
  conditional-regret bounds, margin bounds, and minimizability gaps;
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
    eval_balanced_loss,
    eval_csmax,
    eval_grad,
    eval_loss,
    psi_q,
)
from .datagen import (
    Dataset,
    DiscreteJoint,
    figure1_distribution,
    gaussian_mixture,
    imbalance_ratio,
    longtail_counts,
    random_discrete_joint,
    step_counts,
    subsample,
)
from .metrics import ConfusionMatrix, balanced_error, confusion, per_class_error
from .numerics import finite_diff_gradient, log_softmax, log_sum_exp, softmax
from .theory import (
    ConditionalPoint,
    RegretReport,
    bal_regret,
    bayes_balanced_label,
    bayes_la_label,
    best_conditional_error,
    check_gca_bound,
    check_gla_bound,
    check_lamargin,
    check_theorem5_bound,
    conditional_error,
    empirical_rademacher_linear,
    find_la_disagreement,
    gca_surrogate_regret,
    gla_pointwise_minimizer,
    gla_surrogate_regret,
    margin_loss,
    minimizability_gap_finite,
    minimize_conditional_error,
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
    predict,
    train,
)

__version__ = "0.1.0"
