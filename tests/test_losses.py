"""Tests for loss values, identities, and analytic gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

from imbloss.losses import (
    FAMILIES,
    ClassStats,
    LossSpec,
    PriorStats,
    PSI_FAMILIES,
    batch_loss_and_grad,
    default_gca_margins,
    eval_grad,
    eval_loss,
    loss_table,
)
from imbloss.numerics import (
    finite_diff_gradient,
    gradient_rel_error,
    log_softmax,
)
from oracles import eval_balanced_loss


def random_spec(rng, family, n):
    """A valid LossSpec with hyperparameters drawn from sane ranges."""
    if family == "LA":
        return LossSpec("LA", tau=float(rng.uniform(0.3, 2.5)))
    if family == "EQUAL":
        return LossSpec("EQUAL", eq_p=float(rng.uniform(0.1, 0.9)),
                        eq_lambda=float(rng.uniform(0.05, 0.6)))
    if family == "CB":
        return LossSpec("CB", gamma=float(rng.uniform(0.1, 0.95)))
    if family == "FOCAL":
        return LossSpec("FOCAL", gamma=float(rng.choice([0.0, 0.5, 2.0, 5.0])))
    if family == "LDAM":
        return LossSpec("LDAM", cap_c=float(rng.uniform(0.2, 2.0)))
    if family in ("GCE", "GLA"):
        return LossSpec(family, q=float(rng.choice([0.0, 0.3, 0.7])))
    if family == "GCA":
        return LossSpec("GCA", q=float(rng.choice([0.0, 0.3, 0.7])),
                        margins=tuple(rng.uniform(0.3, 2.0, n)))
    if family == "CSMAX":
        return LossSpec("CSMAX", rho_margin=float(rng.uniform(0.3, 2.0)),
                        psi_tau=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
    return LossSpec(family)


class TestClassStats:
    def test_derived_fields(self):
        stats = ClassStats([6, 2, 2])
        np.testing.assert_allclose(stats.priors, [0.6, 0.2, 0.2])
        np.testing.assert_allclose(stats.inv_priors, [10 / 6, 5.0, 5.0])
        assert stats.p_min == pytest.approx(0.2)
        assert stats.total == 10

    def test_from_labels(self):
        stats = ClassStats.from_labels([1, 1, 2, 3, 1], n=3)
        np.testing.assert_array_equal(stats.counts, [3, 1, 1])

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            ClassStats([3, 0])
        with pytest.raises(ValueError):
            ClassStats.from_labels([1, 1], n=2)
        with pytest.raises(ValueError):
            ClassStats([[3, 1], [2, 0]])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_counts_give_each_row_its_own_loss(self, family):
        # one loss call over a table with one block per row, each with its
        # own counts, equals a call per row with that row's counts alone,
        # values and gradients
        rng = np.random.default_rng(6)
        m, n = 40, 4
        counts = rng.integers(1, 60, (m, n))
        scores = rng.normal(0, 3, (m, n))
        labels = rng.integers(1, n + 1, m)
        draws = (rng.random((m, n)) < 0.5).astype(np.float64)
        spec = random_spec(rng, family, n)
        if family == "EQUAL":  # gates a different class set in each row
            spec = LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.25)
        table = loss_table([(spec, ClassStats(row)) for row in counts], n)
        values, grads = batch_loss_and_grad(table, scores, labels,
                                            equal_draws=draws)
        for k in range(m):
            value, grad = batch_loss_and_grad(
                spec, scores[k:k + 1], labels[k:k + 1], ClassStats(counts[k]),
                equal_draws=draws[k:k + 1])
            assert values[k] == value[0]
            assert np.array_equal(grads[k], grad[0])


class TestLossSpecValidation:
    def test_required_hyperparameters(self):
        with pytest.raises(ValueError):
            LossSpec("LA")
        with pytest.raises(ValueError):
            LossSpec("GCA", q=0.1)

    def test_extraneous_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("CE", tau=1.0)
        with pytest.raises(ValueError):
            LossSpec("GLA", q=0.1, gamma=2.0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            LossSpec("GLA", q=1.0)
        with pytest.raises(ValueError):
            LossSpec("CB", gamma=1.5)
        with pytest.raises(ValueError):
            LossSpec("GCA", q=0.0, margins=(1.0, -1.0))
        with pytest.raises(ValueError):
            LossSpec("CSMAX", rho_margin=0.0, psi_tau=1.0)


class TestPsiQ:
    """The generalized cross-entropy link Psi^q(t), read through GCE at
    scores whose softmax entry t is exact."""

    def test_log_case_at_one(self):
        # exp(-800) vanishes against 1, so t = 1
        assert eval_loss(LossSpec("GCE", q=0.0), [0.0, -800.0], 1) == 0.0

    def test_closed_form(self):
        # four equal scores give t = 0.25, and (1 - 0.25^0.5) / 0.5 = 1
        assert eval_loss(LossSpec("GCE", q=0.5), [0.0] * 4, 1) == (
            pytest.approx(1.0, abs=1e-15))

    def test_saturates_at_zero(self):
        # t = e^-1000 underflows; the q = 0 link floors it at 1e-300
        assert eval_loss(LossSpec("GCE", q=0.0), [0.0, -1000.0], 2) == (
            pytest.approx(-math.log(1e-300)))


class TestGla:
    def test_uniform_priors_reduces_to_ce(self):
        stats = ClassStats([5, 5])
        assert eval_loss(LossSpec("GLA", q=0.0), [0.0, 0.0], 1,
                         stats) == pytest.approx(math.log(2))

    def test_constant_scores_recover_priors(self):
        stats = ClassStats([8, 2])
        assert eval_loss(LossSpec("GLA", q=0.0), [0.0, 0.0], 2,
                         stats) == pytest.approx(
            -math.log(0.2), abs=1e-12)

    def test_q0_equals_la_tau1_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            stats = ClassStats(rng.integers(1, 40, n))
            scores = rng.normal(0, 3, n)
            label = int(rng.integers(1, n + 1))
            gla = eval_loss(LossSpec("GLA", q=0.0), scores, label, stats)
            la = eval_loss(LossSpec("LA", tau=1.0), scores, label, stats)
            assert gla == la  # bit-exact: identical code path

    def test_uniform_priors_equal_gce_all_q(self):
        rng = np.random.default_rng(8)
        for q in (0.0, 0.2, 0.5, 0.9):
            for _ in range(50):
                n = int(rng.integers(2, 6))
                stats = ClassStats(np.full(n, 7))
                scores = rng.normal(0, 3, n)
                label = int(rng.integers(1, n + 1))
                gce = eval_loss(LossSpec("GCE", q=q), scores, label, stats)
                assert eval_loss(LossSpec("GLA", q=q), scores, label,
                                 stats) == pytest.approx(gce, abs=1e-12)

    def test_rejects_bad_q(self):
        stats = ClassStats([1, 1])
        with pytest.raises(ValueError):
            eval_loss(LossSpec("GLA", q=1.0), [0.0, 0.0], 1, stats)


class TestGca:
    def test_weighted_ce_value(self):
        stats = ClassStats([5, 5])
        value = eval_loss(LossSpec("GCA", q=0.0, margins=[1.0, 1.0]),
                          [0.0, 0.0], 1, stats)
        assert value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_q0_unit_margins_equals_wce_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            stats = ClassStats(rng.integers(1, 40, n))
            scores = rng.normal(0, 3, n)
            label = int(rng.integers(1, n + 1))
            gca = eval_loss(LossSpec("GCA", q=0.0, margins=np.ones(n)),
                            scores, label, stats)
            wce = eval_loss(LossSpec("WCE"), scores, label, stats)
            assert gca == wce  # bit-exact: identical code path

    def test_joint_margin_score_scaling(self):
        rng = np.random.default_rng(10)
        stats = ClassStats([3, 9, 4])
        for _ in range(50):
            scores = rng.normal(0, 2, 3)
            margins = rng.uniform(0.2, 3.0, 3)
            label = int(rng.integers(1, 4))
            c = float(rng.uniform(0.5, 4.0))
            a = eval_loss(LossSpec("GCA", q=0.4, margins=margins), scores,
                          label, stats)
            b = eval_loss(LossSpec("GCA", q=0.4, margins=margins / c),
                          scores / c, label, stats)
            assert a == pytest.approx(b, rel=1e-12)

    def test_true_class_margin_divides_whole_vector(self):
        # With distinct margins the loss must depend only on rho_label.
        stats = ClassStats([4, 4])
        scores = np.array([1.0, -0.5])
        a = eval_loss(LossSpec("GCA", q=0.0, margins=[2.0, 7.0]), scores, 1,
                      stats)
        b = eval_loss(LossSpec("GCA", q=0.0, margins=[2.0, 0.1]), scores, 1,
                      stats)
        assert a == b
        assert a == pytest.approx(
            2.0 * -math.log(1 / (1 + math.exp(-(1.0 - -0.5) / 2.0))), rel=1e-12)

    def test_rejects_bad_margins(self):
        stats = ClassStats([1, 1])
        with pytest.raises(ValueError):
            eval_loss(LossSpec("GCA", q=0.0, margins=[1.0, 0.0]), [0.0, 0.0],
                      1, stats)


class TestDefaultGcaMargins:
    def test_symmetric(self):
        np.testing.assert_allclose(default_gca_margins(ClassStats([1, 1])),
                                   [0.5, 0.5])

    def test_cube_root_profile(self):
        np.testing.assert_allclose(default_gca_margins(ClassStats([8, 1])),
                                   [2 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(
            default_gca_margins(ClassStats([1000, 8, 1])),
            np.array([10.0, 2.0, 1.0]) / 13.0, atol=1e-15)


class TestBaselines:
    def test_ce_uniform(self):
        stats = ClassStats([1, 1, 1])
        value = eval_loss(LossSpec("CE"), [0.0, 0.0, 0.0], 1, stats)
        assert value == pytest.approx(math.log(3), abs=1e-15)

    def test_focal_gamma0_is_ce(self):
        rng = np.random.default_rng(11)
        stats = ClassStats([4, 2, 6])
        for _ in range(100):
            scores = rng.normal(0, 3, 3)
            label = int(rng.integers(1, 4))
            focal = eval_loss(LossSpec("FOCAL", gamma=0.0), scores, label, stats)
            ce = eval_loss(LossSpec("CE"), scores, label, stats)
            assert focal == pytest.approx(ce, rel=1e-15)

    def test_ldam_closed_form(self):
        # C=1, m_label=16 gives a margin shift of 1/16^(1/4) = 0.5 on the
        # true-class logit only.
        stats = ClassStats([16, 16])
        value = eval_loss(LossSpec("LDAM", cap_c=1.0), [0.0, 0.0], 1, stats)
        assert value == pytest.approx(math.log(1 + math.exp(0.5)), abs=1e-12)

    def test_equal_gating_with_fixed_draws(self):
        # Rare class 2 (prior 0.2 < lambda 0.5) is gated out of the
        # denominator when its draw fires and the true class is 1.
        stats = ClassStats([8, 2])
        spec = LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.5)
        scores = [0.0, 0.0]
        gated = eval_loss(spec, scores, 1, stats, equal_draws=[1.0, 1.0])
        assert gated == pytest.approx(0.0, abs=1e-15)
        ungated = eval_loss(spec, scores, 1, stats, equal_draws=[0.0, 0.0])
        assert ungated == pytest.approx(math.log(2), abs=1e-15)
        # true class is never gated
        true_kept = eval_loss(spec, scores, 2, stats, equal_draws=[1.0, 1.0])
        assert true_kept == pytest.approx(math.log(2), abs=1e-15)

    def test_equal_draws_from_seeded_stream(self):
        stats = ClassStats([8, 2])
        spec = LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.5)
        a = eval_loss(spec, [0.3, -0.2], 1, stats, rng=np.random.default_rng(3))
        b = eval_loss(spec, [0.3, -0.2], 1, stats, rng=np.random.default_rng(3))
        assert a == b

    def test_cb_weight(self):
        stats = ClassStats([3, 1])
        gamma = 0.5
        weight = (1 - gamma) / (1 - gamma ** 0.25)
        value = eval_loss(LossSpec("CB", gamma=gamma), [0.0, 0.0], 2, stats)
        assert value == pytest.approx(weight * math.log(2), rel=1e-12)

    def test_wce_weight_is_total_over_count(self):
        stats = ClassStats([3, 1])
        value = eval_loss(LossSpec("WCE"), [0.0, 0.0], 2, stats)
        assert value == pytest.approx(4.0 * math.log(2), rel=1e-15)


class TestCsmax:
    """The cost c = 1/p(y) comes from the class marginal."""

    def test_all_zero_scores_logistic(self):
        value = eval_loss(LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0),
                          [0.0, 0.0], 1, PriorStats([0.5, 0.5]))
        assert value == pytest.approx(2.0 * math.log(2), abs=1e-15)

    def test_huge_lead_floors_at_psi0(self):
        value = eval_loss(LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0),
                          [50.0, 0.0, -3.0], 1, PriorStats([0.4, 0.3, 0.3]))
        assert value == pytest.approx(2.5 * math.log(2), rel=1e-12)

    def test_exponential_link(self):
        # psi_tau = 0 gives Psi(x) = e^{-x}; with a gap of 1 at rho 1 the
        # runner-up term e^{1} dominates the label term e^{0}.
        value = eval_loss(LossSpec("CSMAX", rho_margin=1.0, psi_tau=0.0),
                          [0.0, 1.0], 1, PriorStats([0.5, 0.5]))
        assert value == pytest.approx(2.0 * math.e, rel=1e-12)


class TestBalancedLoss:
    def test_correct_prediction(self):
        assert eval_balanced_loss(2, 2, [0.5, 0.5]) == 0.0

    def test_uniform_priors(self):
        assert eval_balanced_loss(1, 2, [0.5, 0.5]) == pytest.approx(2.0)

    def test_skewed_priors(self):
        assert eval_balanced_loss(1, 2, [0.9, 0.1]) == pytest.approx(10.0)

    def test_rejects_zero_prior(self):
        with pytest.raises(ValueError):
            eval_balanced_loss(1, 2, [1.0, 0.0])


class TestGradients:
    def test_ce_gradient_closed_form(self):
        stats = ClassStats([1, 1])
        grad = eval_grad(LossSpec("CE"), [0.0, 0.0], 1, stats)
        np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_gla_q0_uniform_matches_ce(self):
        rng = np.random.default_rng(13)
        stats = ClassStats([5, 5, 5])
        for _ in range(50):
            scores = rng.normal(0, 2, 3)
            label = int(rng.integers(1, 4))
            a = eval_grad(LossSpec("GLA", q=0.0), scores, label, stats)
            b = eval_grad(LossSpec("CE"), scores, label, stats)
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(FAMILIES.index(family))
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 6))
            stats = ClassStats(rng.integers(1, 50, n))
            scores = rng.normal(0, 2, n)
            label = int(rng.integers(1, n + 1))
            spec = random_spec(rng, family, n)
            draws = (rng.random(n) < 0.5).astype(float) if family == "EQUAL" else None
            if family == "CSMAX":
                top2 = np.sort(scores)[::-1]
                if top2[0] - top2[1] < 1e-3:
                    continue
            grad = eval_grad(spec, scores, label, stats, equal_draws=draws)
            fd = finite_diff_gradient(
                lambda s: eval_loss(spec, s, label, stats, equal_draws=draws),
                scores)
            assert gradient_rel_error(grad, fd) < 1e-6
            checked += 1

    def test_csmax_tie_subgradient_uses_smallest_index(self):
        spec = LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0)
        stats = ClassStats([1, 1, 1])
        grad = eval_grad(spec, [2.0, 2.0, 0.0], 3, stats)
        # maximizers are classes 1 and 2 (tied top score); index 1 is used
        assert grad[0] != 0.0 and grad[1] == 0.0


class TestLossProperties:
    families = FAMILIES

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for family in self.families:
            for _ in range(50):
                n = int(rng.integers(2, 6))
                stats = ClassStats(rng.integers(1, 50, n))
                scores = rng.normal(0, 4, n)
                label = int(rng.integers(1, n + 1))
                spec = random_spec(rng, family, n)
                draws = (rng.random(n) < 0.5).astype(float) if family == "EQUAL" else None
                assert eval_loss(spec, scores, label, stats,
                                 equal_draws=draws) >= 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        for family in self.families:
            for _ in range(30):
                n = int(rng.integers(2, 6))
                stats = ClassStats(rng.integers(1, 50, n))
                scores = rng.normal(0, 3, n)
                label = int(rng.integers(1, n + 1))
                spec = random_spec(rng, family, n)
                draws = (rng.random(n) < 0.5).astype(float) if family == "EQUAL" else None
                a = eval_loss(spec, scores, label, stats, equal_draws=draws)
                b = eval_loss(spec, scores + 3.7, label, stats, equal_draws=draws)
                assert a == pytest.approx(b, abs=1e-10, rel=1e-10)

    def test_monotone_in_true_class_score(self):
        rng = np.random.default_rng(16)
        for family in self.families:
            for _ in range(30):
                n = int(rng.integers(2, 6))
                stats = ClassStats(rng.integers(1, 50, n))
                scores = rng.normal(0, 3, n)
                label = int(rng.integers(1, n + 1))
                spec = random_spec(rng, family, n)
                draws = (rng.random(n) < 0.5).astype(float) if family == "EQUAL" else None
                lo = eval_loss(spec, scores, label, stats, equal_draws=draws)
                bumped = scores.copy()
                bumped[label - 1] += float(rng.uniform(0.1, 2.0))
                hi = eval_loss(spec, bumped, label, stats, equal_draws=draws)
                assert hi <= lo + 1e-12


class TestPriorStats:
    def test_matches_class_stats_weights(self):
        stats = ClassStats([3, 1])
        pstats = PriorStats([0.75, 0.25])
        np.testing.assert_allclose(pstats.inv_priors, stats.inv_priors)
        np.testing.assert_allclose(pstats.log_priors, stats.log_priors)

    def test_ldam_rejects_prior_stats(self):
        with pytest.raises(ValueError):
            eval_loss(LossSpec("LDAM", cap_c=1.0), [0.0, 0.0], 1,
                      PriorStats([0.5, 0.5]))

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            PriorStats([0.5, 0.4])
        with pytest.raises(ValueError):
            PriorStats([1.0, 0.0])
        with pytest.raises(ValueError):
            PriorStats([[0.5, 0.5], [0.5, 0.5]])  # one marginal only

    @pytest.mark.parametrize("family",
                             ["WCE", "LA", "EQUAL", "CB", "GLA", "GCA", "CSMAX"])
    def test_per_row_priors_equal_per_row_calls(self, family):
        # a table block per row, each with its own marginal, gives each
        # row, bit for bit, what a call with that marginal alone gives it
        rng = np.random.default_rng(31)
        m, n = 12, 4
        priors = rng.random((m, n)) + 0.05
        priors /= priors.sum(axis=1, keepdims=True)
        scores = rng.normal(0, 2, (m, n))
        labels = rng.integers(1, n + 1, m)
        draws = (rng.random((m, n)) < 0.5).astype(float)
        spec = random_spec(rng, family, n)
        if family == "EQUAL":  # straddle eq_lambda so the rare mask varies
            spec = LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.25)
        table = loss_table([(spec, PriorStats(row)) for row in priors], n)
        values, grads = batch_loss_and_grad(table, scores, labels,
                                            equal_draws=draws)
        for i in range(m):
            value, grad = batch_loss_and_grad(
                spec, scores[i:i + 1], labels[i:i + 1], PriorStats(priors[i]),
                equal_draws=draws[i:i + 1])
            assert values[i] == value[0]
            assert np.array_equal(grads[i], grad[0])

    def test_per_row_priors_need_one_row_per_score_row(self):
        table = loss_table([(LossSpec("WCE"), PriorStats([0.5, 0.5]))] * 2, 2)
        with pytest.raises(ValueError, match="split into 2 blocks"):
            batch_loss_and_grad(table, np.zeros((3, 2)), [1, 2, 1])


def _reference_psi_family(spec, scores, labels, stats):
    """Values and gradients of the eight Psi^q families written as three
    branches (CE/WCE/LA/CB/LDAM at q = 0, GCE/GLA unweighted, GCA): the
    reference the one shared code path must reproduce bit for bit."""
    m, n = scores.shape
    rows, idx = np.arange(m), labels - 1
    onehot = np.zeros((m, n))
    onehot[rows, idx] = 1.0

    def label_stat(table):
        return table[idx]

    def gce_core(adjusted, q):
        logp = log_softmax(adjusted)
        log_t = logp[rows, idx]
        if q == 0.0:
            return (-np.maximum(log_t, math.log(1e-300)), np.exp(logp),
                    np.ones_like(log_t))
        t_pow_q = np.exp(q * log_t)
        return (1.0 - t_pow_q) / q, np.exp(logp), t_pow_q

    family = spec.family
    if family in ("CE", "WCE", "LA", "CB", "LDAM"):
        adjusted = scores
        if family == "LA":
            adjusted = scores + spec.tau * stats.log_priors
        elif family == "LDAM":
            delta = spec.cap_c / stats.counts.astype(np.float64) ** 0.25
            adjusted = scores.copy()
            adjusted[rows, idx] -= label_stat(delta)
        values, probs, _ = gce_core(adjusted, 0.0)
        weight = np.ones(m)
        if family == "WCE":
            weight = label_stat(stats.inv_priors)
        elif family == "CB":
            weight = (1.0 - spec.gamma) / (
                1.0 - spec.gamma ** label_stat(stats.priors))
        return weight * values, weight[:, None] * (probs - onehot)
    if family in ("GCE", "GLA"):
        adjusted = scores
        if family == "GLA":
            adjusted = scores + stats.log_priors / (1.0 - spec.q)
        values, probs, t_pow_q = gce_core(adjusted, spec.q)
        return values, t_pow_q[:, None] * (probs - onehot)
    rho = np.asarray(spec.margins)[idx]
    values, probs, t_pow_q = gce_core(scores / rho[:, None], spec.q)
    weight = label_stat(stats.inv_priors)
    return (weight * values,
            (weight / rho * t_pow_q)[:, None] * (probs - onehot))


def _block_stats(rng, kind, n):
    """One count vector (ClassStats) or one marginal (PriorStats)."""
    if kind.endswith("counts"):
        return ClassStats(rng.integers(1, 500, n))
    return PriorStats(rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n)


class TestPsiFamiliesEqualTheReference:
    # The class-major core must reproduce the row-major reference bit for
    # bit on both sides of numpy's 8-class switch in its class sums (and
    # past its 128-class one): for one spec with its stats, for a table
    # with one block per row (kinds row_counts and row_priors), each with
    # its own stats and, for GCE, GLA and GCA, its own q, and for tables
    # that mix every family. LDAM needs integer class counts.
    @pytest.mark.parametrize("family,kind", [
        (family, kind)
        for family in PSI_FAMILIES
        for kind in ("counts", "priors", "row_priors", "row_counts")
        if family != "LDAM" or kind.endswith("counts")])
    def test_values_and_grads_are_bit_equal(self, family, kind):
        rng = np.random.default_rng(32)
        for n in [*range(2, 21), 130]:
            m = int(rng.integers(1, 30))
            # wide scores reach the 1e-300 floor, t^q underflow and exp's
            # subnormal range
            scores = rng.normal(0, float(rng.choice([1.0, 30.0, 400.0])),
                                (m, n))
            labels = rng.integers(1, n + 1, m)
            spec = random_spec(rng, family, n)
            if not kind.startswith("row_"):
                blocks = [(spec, _block_stats(rng, kind, n))]
            else:
                blocks = [(spec if spec.q is None
                           else replace(spec, q=float(q)),
                           _block_stats(rng, kind, n))
                          for q in rng.choice([0.0, 0.3, 0.7], m)]
            self.assert_bit_equal(blocks, scores, labels)

    def test_mixed_tables_are_bit_equal(self):
        # every family twice, in a shuffled order, each block with its own
        # hyperparameters, q and counts or priors, and several rows
        rng = np.random.default_rng(33)
        for n in [*range(2, 21), 130]:
            blocks = [(random_spec(rng, family, n),
                       _block_stats(rng, "counts" if family == "LDAM"
                                    else str(rng.choice(["counts",
                                                         "priors"])), n))
                      for family in PSI_FAMILIES * 2]
            blocks = [blocks[i] for i in rng.permutation(len(blocks))]
            m = len(blocks) * int(rng.integers(1, 5))
            scores = rng.normal(0, float(rng.choice([1.0, 30.0, 400.0])),
                                (m, n))
            labels = rng.integers(1, n + 1, m)
            self.assert_bit_equal(blocks, scores, labels)

    @staticmethod
    def assert_bit_equal(blocks, scores, labels):
        """One loss call, with the LossSpec of a single block or the table
        of several, against the reference on each block's rows alone."""
        m, n = scores.shape
        size = m // len(blocks)
        if len(blocks) == 1:
            (loss, stats), = blocks
        else:
            loss, stats = loss_table(blocks, n), None
        values, grads = batch_loss_and_grad(loss, scores, labels, stats)
        assert grads.flags.c_contiguous
        ref_values, ref_grads = np.empty(m), np.empty((m, n))
        for b, (spec, block_stats) in enumerate(blocks):
            rows = slice(b * size, (b + 1) * size)
            ref_values[rows], ref_grads[rows] = _reference_psi_family(
                spec, scores[rows], labels[rows], block_stats)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(grads, ref_grads)
        only, none = batch_loss_and_grad(loss, scores, labels, stats,
                                         want_grad=False)
        assert np.array_equal(only, ref_values) and none is None

    def test_table_is_checked(self):
        counts, priors = ClassStats([2, 1]), PriorStats([0.5, 0.5])
        for blocks, error in [
                ([(LossSpec("FOCAL", gamma=1.0), None),
                  (LossSpec("FOCAL", gamma=2.0), None)], "one spec"),
                ([(LossSpec("CE"), None), (LossSpec("FOCAL", gamma=1.0),
                                           None)], "one spec"),
                ([(LossSpec("WCE"), None)], "requires ClassStats"),
                ([(LossSpec("LDAM", cap_c=1.0), priors)], "integer class"),
                ([(LossSpec("GCA", q=0.0, margins=(1.0,) * 3), counts)],
                 "margins have length 3"),
                ([(LossSpec("LA", tau=1.0), ClassStats([1, 1, 1]))],
                 "3 classes")]:
            with pytest.raises(ValueError, match=error):
                loss_table(blocks, 2)
        table = loss_table([(LossSpec("WCE"), counts)], 2)
        with pytest.raises(ValueError, match="its own class statistics"):
            batch_loss_and_grad(table, np.zeros((3, 2)), [1, 2, 1], counts)
        with pytest.raises(ValueError, match="3 classes"):
            batch_loss_and_grad(table, np.zeros((3, 3)), [1, 2, 1])


@pytest.mark.parametrize("family", FAMILIES)
def test_a_non_finite_block_leaves_the_others_bit_equal(family):
    # The table form trusts its caller's scores: a block whose scores hold
    # inf or nan gives every other block, values and gradients, what a call
    # without it gives. The spec form still checks them.
    rng = np.random.default_rng(34)
    n, size, bad = 5, 6, 2
    spec = random_spec(rng, family, n)
    blocks = [(spec if spec.q is None else replace(spec, q=float(q)),
               ClassStats(rng.integers(1, 60, n)))
              for q in rng.choice([0.0, 0.3, 0.7], 5)]
    scores = rng.normal(0, 3, (len(blocks) * size, n))
    labels = rng.integers(1, n + 1, len(scores))
    draws = (rng.random(scores.shape) < 0.5).astype(np.float64)
    rows = slice(bad * size, (bad + 1) * size)
    block = scores[rows]  # a view
    block[0, labels[rows][0] - 1] = np.inf
    block[1, labels[rows][1] % n] = -np.inf  # a class other than the label
    block[2, labels[rows][2] - 1] = -np.inf
    block[3, 0] = np.nan
    block[4] = np.inf
    keep = np.arange(len(scores)) // size != bad
    table = loss_table(blocks, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values, grads = batch_loss_and_grad(table, scores, labels,
                                            equal_draws=draws)
    want_values, want_grads = batch_loss_and_grad(
        table[np.arange(len(blocks)) != bad], scores[keep], labels[keep],
        equal_draws=draws[keep])
    assert np.array_equal(values[keep], want_values)
    assert np.array_equal(grads[keep], want_grads)
    spec, stats = blocks[bad]
    with pytest.raises(ValueError, match="scores must be finite"):
        batch_loss_and_grad(spec, block, labels[rows], stats,
                            equal_draws=draws[rows])
    for label in (0, n + 1):
        with pytest.raises(ValueError, match=f"labels must lie in 1..{n}"):
            batch_loss_and_grad(spec, scores[:1], [label], stats,
                                equal_draws=draws[:1])
