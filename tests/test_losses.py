"""Tests for loss values, identities, and analytic gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

from imbloss.datagen import longtail_counts
from imbloss.losses import (
    FAMILIES,
    ClassStats,
    LossSpec,
    PriorStats,
    _class_sum,
    batch_loss_and_grad,
    default_gca_margins,
    eval_grad,
    eval_loss,
    loss_table,
)
from imbloss.numerics import finite_diff_gradient
from oracles import (
    csmax_loss_and_grad,
    equal_loss_and_grad,
    eval_balanced_loss,
    focal_loss_and_grad,
    gradient_rel_error,
    log_softmax,
)


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


def class_major(rows, blocks):
    """Row-major (m, n) rows as the class-major (n, blocks, size) array."""
    m, n = rows.shape
    return np.ascontiguousarray(
        rows.reshape(blocks, m // blocks, n).transpose(2, 0, 1))


class TestClassStats:
    def test_derived_fields(self):
        stats = ClassStats([6, 2, 2])
        np.testing.assert_allclose(stats.priors, [0.6, 0.2, 0.2])
        np.testing.assert_allclose(stats.inv_priors, [10 / 6, 5.0, 5.0])
        assert stats.p_min == pytest.approx(0.2)
        assert stats.total == 10

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            ClassStats([3, 0])
        with pytest.raises(ValueError):
            ClassStats([[3, 1], [2, 0]])

    def test_rejects_counts_that_are_not_whole_numbers(self):
        for counts in ([1.5, 2.9], [2.0, np.nan], [2.0, np.inf]):
            with pytest.raises(ValueError, match="whole numbers"):
                ClassStats(counts)
        assert ClassStats([2.0, 1.0]).counts.tolist() == [2, 1]

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
        values, grads = batch_loss_and_grad(
            table, class_major(scores, m), labels,
            equal_draws=class_major(draws, m))
        for k in range(m):
            value, grad = batch_loss_and_grad(
                spec, scores[k:k + 1], labels[k:k + 1], ClassStats(counts[k]),
                equal_draws=draws[k:k + 1])
            assert values[k] == value[0]
            assert np.array_equal(grads[:, k, 0], grad[0])


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
        # a loss table reads a NaN gamma or psi_tau as a block of another
        # family
        for gamma in (-0.5, math.nan):
            with pytest.raises(ValueError, match="FOCAL gamma"):
                LossSpec("FOCAL", gamma=gamma)
            with pytest.raises(ValueError, match="psi_tau"):
                LossSpec("CSMAX", rho_margin=1.0, psi_tau=gamma)
        with pytest.raises(ValueError, match="rho_margin"):
            LossSpec("CSMAX", rho_margin=math.nan, psi_tau=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(family="LA", tau=math.nan),
        dict(family="LA", tau=math.inf),
        dict(family="LDAM", cap_c=math.nan),
        dict(family="GCA", q=0.0, margins=(math.nan, 1.0)),
        dict(family="GCA", q=0.0, margins=(math.inf, 1.0)),
        dict(family="FOCAL", gamma=math.inf),
    ], ids=["tau-nan", "tau-inf", "cap_c-nan", "margin-nan", "margin-inf",
            "gamma-inf"])
    def test_non_finite_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            LossSpec(**kwargs)


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

    def test_equal_gated_class_far_above_the_label_gives_zero_loss(self):
        # Classes 2 and 3 (priors 1/12 < lambda 0.5) are gated out, so only
        # the label remains: the loss is 0 and so are its gradients. A
        # shift by the max over all classes underflowed the label's term
        # to 0, a -inf loss and NaN gradients.
        spec = LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.5)
        values, grads = batch_loss_and_grad(
            spec, np.array([[-800.0, 5.0, 3.0]]), np.array([1]),
            ClassStats([10, 1, 1]), equal_draws=np.ones((1, 3)))
        assert values.tolist() == [0.0]
        assert grads.tolist() == [[0.0, 0.0, 0.0]]

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
        values, grads = batch_loss_and_grad(
            table, class_major(scores, m), labels,
            equal_draws=class_major(draws, m))
        for i in range(m):
            value, grad = batch_loss_and_grad(
                spec, scores[i:i + 1], labels[i:i + 1], PriorStats(priors[i]),
                equal_draws=draws[i:i + 1])
            assert values[i] == value[0]
            assert np.array_equal(grads[:, i, 0], grad[0])

    def test_per_row_priors_need_one_row_per_score_row(self):
        table = loss_table([(LossSpec("WCE"), PriorStats([0.5, 0.5]))] * 2, 2)
        with pytest.raises(ValueError, match="\\(2, 2, size\\), got shape "
                                             "\\(2, 3, 1\\)"):
            batch_loss_and_grad(table, np.zeros((2, 3, 1)), [1, 2, 1])


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


def _reference_family(spec, scores, labels, stats, gated):
    """The row-major reference of any family on one block's rows; ``gated``
    is EQUAL's drawn gates times its rare-class mask."""
    if spec.family == "CSMAX":
        idx = labels - 1
        return csmax_loss_and_grad(scores, idx, stats.inv_priors[idx],
                                   spec.rho_margin, spec.psi_tau, True)
    if spec.family == "FOCAL":
        return focal_loss_and_grad(spec.gamma, scores, labels)
    if spec.family == "EQUAL":
        return equal_loss_and_grad(gated, scores, labels)
    return _reference_psi_family(spec, scores, labels, stats)


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
    # its own stats and, for GCE, GLA and GCA, its own q, for FOCAL its
    # own gamma, for CSMAX its own rho_margin and psi_tau, and for tables
    # that mix every family. LDAM needs integer class counts. EQUAL's
    # gates come from fixed draws and from one generator per block.
    # CSMAX's scores are rounded, so that its top score ties.
    @pytest.mark.parametrize("family,kind", [
        (family, kind)
        for family in FAMILIES
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
            elif family == "CSMAX":
                blocks = [(random_spec(rng, family, n),
                           _block_stats(rng, kind, n)) for _ in range(m)]
            elif family == "FOCAL":  # gammas numpy's power takes apart
                blocks = [(replace(spec, gamma=float(gamma)),
                           _block_stats(rng, kind, n))
                          for gamma in rng.choice([0.0, 0.5, 1.5, 2.0, 3.0,
                                                   4.5], m)]
            else:
                blocks = [(spec if spec.q is None
                           else replace(spec, q=float(q)),
                           _block_stats(rng, kind, n))
                          for q in rng.choice([0.0, 0.3, 0.7], m)]
            if family == "CSMAX":
                scores = np.round(scores)
            self.assert_bit_equal(blocks, scores, labels, rng)

    def test_mixed_tables_are_bit_equal(self):
        # every family twice, in a shuffled order, each block
        # with its own hyperparameters, q and counts or priors, and several
        # rows; wide scores give EQUAL losses past the floor's 690.78
        rng = np.random.default_rng(33)
        past_floor = 0
        for n in [*range(2, 21), 130]:
            blocks = [(random_spec(rng, family, n),
                       _block_stats(rng, "counts" if family == "LDAM"
                                    else str(rng.choice(["counts",
                                                         "priors"])), n))
                      for family in FAMILIES * 2]
            blocks = [blocks[i] for i in rng.permutation(len(blocks))]
            size = int(rng.integers(1, 5))
            scores = rng.normal(0, float(rng.choice([1.0, 30.0, 400.0])),
                                (len(blocks) * size, n))
            labels = rng.integers(1, n + 1, len(scores))
            values = self.assert_bit_equal(blocks, scores, labels, rng)
            past_floor += sum(np.sum(values[b * size:(b + 1) * size]
                                     > -math.log(1e-300))
                              for b, (spec, _) in enumerate(blocks)
                              if spec.family == "EQUAL")
        assert past_floor > 0

    @pytest.mark.parametrize("gaps, share", [
        ((800.0, 1000.0), (1.0, 1.0)), ((1e-3, 1e-2), (0.0, 0.0)),
        ((20.0, 2000.0), (0.5, 1.0)), ((0.1, 60.0), (0.0, 0.5))],
        ids=["all-saturated", "none-saturated", "mostly-saturated",
             "few-saturated"])
    @pytest.mark.parametrize("loss", ["GCA", "CE", "mixed"])
    def test_saturated_rows_are_bit_equal(self, loss, gaps, share,
                                          monkeypatch):
        # A row whose class sum is exactly 1.0 (log-sum-exp 0.0) takes its
        # softmax from the log-sum-exp's exp; the others take a second exp,
        # gathered when they are at most half, except EQUAL's, which divide
        # the first exp by their class sum. Each row's top adjusted
        # score (EQUAL's label) leads the others by gap to 2 * gap, gap
        # drawn log-uniform over ``gaps``; the observed share of sums at 1.0
        # must lie within ``share``. GCA has long-tail cube-root margins,
        # 0.03 to 0.2.
        sums = []

        def spy(values):
            sums.append(_class_sum(values))
            return sums[-1]

        monkeypatch.setattr("imbloss.losses._class_sum", spy)
        rng = np.random.default_rng(35)
        for n in (2, 3, 7, 8, 10, 20, 130):
            counts = ClassStats(longtail_counts(n, 500, 100))
            gca = LossSpec("GCA", q=0.3,
                           margins=tuple(default_gca_margins(counts)))
            if loss == "GCA":
                blocks = [(gca, counts)]
            elif loss == "CE":
                blocks = [(LossSpec("CE"), None)]
            else:
                blocks = [(random_spec(rng, family, n), counts)
                          for family in FAMILIES] + [(gca, counts)]
            size = 40
            m = len(blocks) * size
            labels = rng.integers(1, n + 1, m)
            gap = np.exp(rng.uniform(*np.log(gaps), (m, 1)))
            scores = -gap * rng.uniform(1.0, 2.0, (m, n))
            # EQUAL's top is its label, which no gate takes out
            family = np.repeat([spec.family for spec, _ in blocks], size)
            top = np.where(family == "EQUAL", labels - 1,
                           rng.integers(0, n, m))
            scores[np.arange(m), top] = 0.0
            for b, (spec, _) in enumerate(blocks):
                if spec.family == "GCA":  # the gaps are of scores / rho_y
                    rows = slice(b * size, (b + 1) * size)
                    scores[rows] *= np.asarray(spec.margins)[
                        labels[rows] - 1, None]
            scores += rng.normal(0, 3, (m, 1))
            sums.clear()
            self.assert_bit_equal(blocks, scores, labels, rng)
            # the share leaves EQUAL out: a row whose gates leave only its
            # label is saturated whatever the gap; CSMAX takes no class sum
            psi = family[family != "CSMAX"]
            saturated = np.mean(sums[0][psi != "EQUAL"] == 1.0)
            low, high = share
            assert low <= saturated <= high
            assert (saturated in (0.0, 1.0)) == (low == high)

    @staticmethod
    def assert_bit_equal(blocks, scores, labels, rng):
        """Loss calls, with the LossSpec of a single block or the table of
        several, against the reference on each block's rows alone; EQUAL
        draws its gates once from fixed draws, once from one generator per
        block (a lone spec's one generator), and the blocks of other
        families leave theirs untouched. A table takes and gives class-major
        arrays. Returns the values."""
        m, n = scores.shape
        size = m // len(blocks)
        if len(blocks) == 1:
            (loss, stats), = blocks
        else:
            loss, stats = loss_table(blocks, n), None

        def layout(rows):
            return rows if len(blocks) == 1 else class_major(rows, len(blocks))
        seeds = rng.integers(0, 2**32, len(blocks))
        gens = [np.random.default_rng(seed) for seed in seeds]
        fixed = (rng.random((m, n)) < 0.5).astype(np.float64)
        csmax = any(spec.family == "CSMAX" for spec, _ in blocks)
        # CSMAX's link may overflow at wide gaps, in the reference too
        with np.errstate(over="ignore" if csmax else "warn"):
            for draws in (fixed, None):
                given = ({"equal_draws": layout(draws)} if draws is not None
                         else {"rng": gens[0] if len(blocks) == 1 else gens})
                values, grads = batch_loss_and_grad(loss, layout(scores),
                                                    labels, stats, **given)
                assert grads.flags.c_contiguous
                ref_values, ref_grads = np.empty(m), np.empty((m, n))
                for b, (spec, block_stats) in enumerate(blocks):
                    rows = slice(b * size, (b + 1) * size)
                    gated = None
                    if spec.family == "EQUAL":
                        drawn = draws[rows] if draws is not None else (
                            np.random.default_rng(seeds[b]).random(
                                (size, n)) < spec.eq_p)
                        gated = drawn * (block_stats.priors < spec.eq_lambda)
                    ref_values[rows], ref_grads[rows] = _reference_family(
                        spec, scores[rows], labels[rows], block_stats, gated)
                assert np.array_equal(values, ref_values)
                assert np.array_equal(grads, layout(ref_grads))
        for seed, gen, (spec, _) in zip(seeds, gens, blocks):
            fresh = np.random.default_rng(seed)
            if spec.family == "EQUAL":
                fresh.random((size, n))
            assert gen.random() == fresh.random()
        return values

    def test_table_is_checked(self):
        counts, priors = ClassStats([2, 1]), PriorStats([0.5, 0.5])
        csmax = LossSpec("CSMAX", rho_margin=0.5, psi_tau=2.0)
        # CSMAX shares a table with any family: its rho_margin in every
        # class of rho, its psi_tau NaN in another family's block
        table = loss_table([(LossSpec("CE"), None), (csmax, counts),
                            (LossSpec("FOCAL", gamma=1.0), None)], 2)
        assert np.array_equal(table.psi_tau, [np.nan, 2.0, np.nan],
                              equal_nan=True)
        assert np.array_equal(table.rho, [[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
        assert loss_table([(LossSpec("CE"), None)], 2).psi_tau is None
        for blocks, error in [
                ([(LossSpec("WCE"), None)], "requires ClassStats"),
                ([(LossSpec("LDAM", cap_c=1.0), priors)], "integer class"),
                ([(LossSpec("GCA", q=0.0, margins=(1.0,) * 3), counts)],
                 "margins have length 3"),
                ([(LossSpec("LA", tau=1.0), ClassStats([1, 1, 1]))],
                 "3 classes")]:
            with pytest.raises(ValueError, match=error):
                loss_table(blocks, 2)
        with pytest.raises(ValueError, match="stats have 3 classes"):
            batch_loss_and_grad(LossSpec("LA", tau=1.0), np.zeros((3, 2)),
                                [1, 2, 1], ClassStats([1, 1, 1]))
        # neither a table nor the LossSpec form takes a block of fewer
        # classes, even where GCA's margins count the table's classes
        with pytest.raises(ValueError, match="stats have 2 classes, "
                                             "expected 3"):
            batch_loss_and_grad(LossSpec("LA", tau=1.0), np.zeros((3, 3)),
                                [1, 2, 1], counts)
        with pytest.raises(ValueError, match="stats have 2 classes, "
                                             "expected 3"):
            loss_table([(LossSpec("GCA", q=0.0, margins=(1.0,) * 3),
                         counts)], 3)
        table = loss_table([(LossSpec("WCE"), counts)], 2)
        with pytest.raises(ValueError, match="its own class statistics"):
            batch_loss_and_grad(table, np.zeros((2, 1, 3)), [1, 2, 1], counts)
        # class-major (n, blocks, size) scores: the table form only
        with pytest.raises(ValueError, match="class-major \\(n, blocks, "
                                             "size\\) scores, here \\(2, 1, "
                                             "size\\), got shape \\(3, 2\\)"):
            batch_loss_and_grad(table, np.zeros((3, 2)), [1, 2, 1])
        with pytest.raises(ValueError, match="\\(2, 1, size\\), got shape "
                                             "\\(3, 1, 3\\)"):
            batch_loss_and_grad(table, np.zeros((3, 1, 3)), [1, 2, 1])
        with pytest.raises(ValueError, match="\\(2, 1, size\\), got shape "
                                             "\\(2, 3, 1\\)"):
            batch_loss_and_grad(table, np.zeros((2, 3, 1)), [1, 2, 1])
        with pytest.raises(ValueError, match="must be \\(m, n\\)"):
            batch_loss_and_grad(LossSpec("WCE"), np.zeros((2, 1, 3)),
                                [1, 2, 1], counts)
        # one score vector is a (1, n) batch, not (n,)
        with pytest.raises(ValueError, match="must be \\(m, n\\)"):
            batch_loss_and_grad(LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.9),
                                [1.0, 2.0, 3.0], [1], ClassStats([1, 1, 1]),
                                equal_draws=[1.0, 1.0, 0.0])
        equal = loss_table([(LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.9),
                             counts)], 2)
        with pytest.raises(ValueError, match="shaped as the scores"):
            batch_loss_and_grad(equal, np.zeros((2, 1, 3)),
                                np.array([1, 2, 1]),
                                equal_draws=np.zeros((3, 2)))


@pytest.mark.parametrize("family", FAMILIES)
def test_class_major_scores_give_the_row_major_bits(family):
    # The table form on class-major (n, blocks, size) scores gives each
    # block, bit for bit, what the LossSpec form gives on that block's
    # (size, n) rows: the same values, the gradient in the scores' layout,
    # on both sides of the 8- and 128-class switches of the class sums.
    # EQUAL's gates come from fixed draws, in the scores' layout, and from
    # one generator per block. The class-major scores are not written.
    rng = np.random.default_rng(37)
    for n in [*range(2, 21), 130]:
        blocks, size = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        spec = random_spec(rng, family, n)
        # each block its own counts and, where the family has one, q
        parts = [(spec if spec.q is None else replace(spec, q=float(q)),
                  ClassStats(rng.integers(1, 500, n)))
                 for q in rng.choice([0.0, 0.3, 0.7], blocks)]
        rows = rng.normal(0, float(rng.choice([1.0, 30.0, 400.0])),
                          (blocks * size, n))
        labels = rng.integers(1, n + 1, blocks * size)
        fixed = (rng.random(rows.shape) < 0.5).astype(np.float64)
        seeds = rng.integers(0, 2**32, blocks)
        scores = class_major(rows, blocks)
        before = scores.copy()
        for draws in (fixed, None):
            if draws is None:
                given = {"rng": [np.random.default_rng(s) for s in seeds]}
            else:
                given = {"equal_draws": class_major(draws, blocks)}
            want_values, want_grads = np.empty(len(rows)), np.empty(rows.shape)
            with np.errstate(over="ignore"):  # CSMAX's link at wide gaps
                values, grads = batch_loss_and_grad(
                    loss_table(parts, n), scores, labels, **given)
                for b, (block_spec, stats) in enumerate(parts):
                    at = slice(b * size, (b + 1) * size)
                    one = ({"rng": np.random.default_rng(seeds[b])}
                           if draws is None else {"equal_draws": draws[at]})
                    want_values[at], want_grads[at] = batch_loss_and_grad(
                        block_spec, rows[at], labels[at], stats, **one)
            assert np.array_equal(values, want_values)
            assert grads.shape == scores.shape and grads.flags.c_contiguous
            assert np.array_equal(grads, class_major(want_grads, blocks))
        assert np.array_equal(scores, before)


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
    others = np.arange(len(blocks)) != bad
    table = loss_table(blocks, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values, grads = batch_loss_and_grad(
            table, class_major(scores, len(blocks)), labels,
            equal_draws=class_major(draws, len(blocks)))
    want_values, want_grads = batch_loss_and_grad(
        table[others], class_major(scores[keep], len(blocks) - 1),
        labels[keep], equal_draws=class_major(draws[keep], len(blocks) - 1))
    assert np.array_equal(values[keep], want_values)
    assert np.array_equal(grads[:, others], want_grads)
    spec, stats = blocks[bad]
    with pytest.raises(ValueError, match="scores must be finite"):
        batch_loss_and_grad(spec, block, labels[rows], stats,
                            equal_draws=draws[rows])
    for label in (0, n + 1):
        with pytest.raises(ValueError, match=f"labels must lie in 1..{n}"):
            batch_loss_and_grad(spec, scores[:1], [label], stats,
                                equal_draws=draws[:1])
    # a non-integral label is not rounded down to a class
    with pytest.raises(ValueError, match="labels must be integers"):
        batch_loss_and_grad(spec, scores[:2], [1.5, 2], stats,
                            equal_draws=draws[:2])
    with pytest.raises(ValueError, match="labels must be integers"):
        eval_loss(spec, scores[0], 1.5, stats, equal_draws=draws[0])
    with pytest.raises(ValueError, match="the batch is empty"):
        batch_loss_and_grad(spec, scores[:0], labels[:0], stats,
                            equal_draws=draws[:0])
    # integral labels of any dtype are the int64 ones
    good = slice(0, size)
    want = batch_loss_and_grad(spec, scores[good], labels[good], stats,
                               equal_draws=draws[good])
    for dtype in (np.float64, np.uint8):
        got = batch_loss_and_grad(spec, scores[good],
                                  labels[good].astype(dtype), stats,
                                  equal_draws=draws[good])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
