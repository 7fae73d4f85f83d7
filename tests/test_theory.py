"""Tests for the pointwise consistency, bound, and margin oracles."""

import math

import numpy as np
import pytest

from imbloss.datagen import Dataset, gaussian_mixture, random_discrete_joint
from imbloss.losses import (
    LossSpec,
    PriorStats,
    batch_loss_and_grad,
    eval_loss,
)
from imbloss.theory import (
    ConditionalPoint,
    RegretReport,
    bal_regret,
    bal_regret_bruteforce,
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
    gca_bound_transform,
    gla_bound_transform,
    gla_pointwise_minimizer,
    margin_loss,
    minimizability_gap_finite,
    minimize_conditional_error,
    minimize_conditional_errors,
    phi_rho,
    random_conditional_point,
)
from imbloss.trainer import LinearModel, TrainConfig, train


class TestBalRegret:
    def test_optimal_prediction_has_zero_regret(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            point = random_conditional_point(rng, int(rng.integers(2, 6)))
            assert bal_regret(point, bayes_balanced_label(point)) == 0.0

    def test_closed_form_example(self):
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        assert bal_regret(point, 1) == pytest.approx(1.25, abs=1e-15)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            reachable = None
            if rng.random() < 0.3:
                size = int(rng.integers(1, n + 1))
                reachable = rng.choice(n, size=size, replace=False) + 1
            point = random_conditional_point(rng, n, floor=0.03)
            if reachable is not None:
                point = ConditionalPoint(point.cond, point.priors, reachable)
            predicted = int(rng.choice(point.reachable))
            assert bal_regret(point, predicted) == pytest.approx(
                bal_regret_bruteforce(point, predicted), abs=1e-12)

    def test_unreachable_prediction_rejected(self):
        point = ConditionalPoint([0.5, 0.5], [0.5, 0.5], reachable=[1])
        with pytest.raises(ValueError):
            bal_regret(point, 2)


class TestBayesLabels:
    def test_uniform_priors_reduce_to_posterior_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            point = random_conditional_point(rng, n)
            uniform = ConditionalPoint(point.cond, np.full(n, 1.0 / n))
            assert bayes_balanced_label(uniform) == int(np.argmax(uniform.cond)) + 1

    def test_ratio_example(self):
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        assert bayes_balanced_label(point) == 2

    def test_la_tau1_equals_balanced(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            point = random_conditional_point(rng, int(rng.integers(2, 7)))
            assert bayes_la_label(point, 1.0) == bayes_balanced_label(point)

    def test_la_tau0_is_posterior_argmax(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            point = random_conditional_point(rng, int(rng.integers(2, 6)))
            assert bayes_la_label(point, 0.0) == int(np.argmax(point.cond)) + 1

    def test_disagreement_example(self):
        point = ConditionalPoint([0.55, 0.45], [0.9, 0.1])
        assert bayes_la_label(point, 2.0) == 2
        assert bayes_la_label(point, 0.0) == 1
        assert bayes_balanced_label(point) == 2


class TestLaDisagreementSearch:
    def test_tau1_has_no_witness(self):
        assert find_la_disagreement(1.0) is None

    def test_witnesses_exist_for_tau_half_and_two(self):
        for tau in (0.5, 2.0):
            point = find_la_disagreement(tau)
            assert point is not None
            assert bayes_la_label(point, tau) != bayes_balanced_label(point)

    def test_search_is_deterministic(self):
        a = find_la_disagreement(2.0)
        b = find_la_disagreement(2.0)
        np.testing.assert_array_equal(a.cond, b.cond)
        np.testing.assert_array_equal(a.priors, b.priors)


class TestGlaPointwiseMinimizer:
    def test_q0_is_posterior(self):
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        np.testing.assert_allclose(gla_pointwise_minimizer(point, 0.0),
                                   [0.6, 0.4], atol=0.0)

    def test_squares_normalized_at_q_half(self):
        point = ConditionalPoint([0.6, 0.4], [0.5, 0.5])
        np.testing.assert_allclose(gla_pointwise_minimizer(point, 0.5),
                                   np.array([0.36, 0.16]) / 0.52, atol=1e-15)

    def test_numeric_minimization_recovers_target(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            q = float(rng.choice([0.0, 0.3, 0.7]))
            point = random_conditional_point(rng, n)
            scores, _ = minimize_conditional_error(LossSpec("GLA", q=q), point)
            adjusted = scores + np.log(point.priors) / (1.0 - q)
            achieved = np.exp(adjusted - np.max(adjusted))
            achieved /= achieved.sum()
            np.testing.assert_allclose(
                achieved, gla_pointwise_minimizer(point, q), atol=1e-6)

    def test_minimizer_argmax_is_balanced_label(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            q = float(rng.choice([0.0, 0.5]))
            point = random_conditional_point(rng, n, ratio_gap=1e-3)
            scores, _ = minimize_conditional_error(LossSpec("GLA", q=q), point)
            assert int(np.argmax(scores)) + 1 == bayes_balanced_label(point)


def _assert_solo_equal(spec, points, solved, **kwargs):
    assert len(solved) == len(points)
    for point, (scores, value) in zip(points, solved):
        solo_scores, solo_value = minimize_conditional_error(spec, point,
                                                             **kwargs)
        assert np.array_equal(scores, solo_scores)
        assert value == solo_value and isinstance(value, float)


def _per_point_descent(spec, point, max_steps=10_000):
    """The descent written for one point with 1-d arrays and Python
    floats: the reference the stacked loop must reproduce exactly."""
    stats = PriorStats(point.priors)
    n = point.n
    labels = np.arange(1, n + 1)

    def value_grad(scores):
        values, grads = batch_loss_and_grad(spec, np.tile(scores, (n, 1)),
                                            labels, stats)
        return float(point.cond @ values), point.cond @ grads

    scores = np.zeros(n)
    value, grad = value_grad(scores)
    step = 0.5
    for _ in range(max_steps):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-13:
            break
        used = min(step, 1.0 / gnorm)
        candidate = scores - used * grad
        cand_value, cand_grad = value_grad(candidate)
        if cand_value <= value - 0.1 * used * gnorm**2:
            improvement = value - cand_value
            scores, value, grad = candidate, cand_value, cand_grad
            step = min(step * 1.5, 1e6)
            if improvement < 1e-15 * max(1.0, abs(value)):
                break
        else:
            step = used * 0.5
            if step < 1e-14:
                break
    return scores, value


class TestLockstepMinimizer:
    def test_solo_equals_the_per_point_loop(self):
        rng = np.random.default_rng(40)
        specs = [LossSpec("GLA", q=0.0), LossSpec("GLA", q=0.7),
                 LossSpec("WCE"), LossSpec("FOCAL", gamma=2.0)]
        for spec in specs:
            for _ in range(5):
                point = random_conditional_point(rng, int(rng.integers(2, 7)))
                scores, value = minimize_conditional_error(spec, point,
                                                           max_steps=600)
                ref_scores, ref_value = _per_point_descent(spec, point, 600)
                assert np.array_equal(scores, ref_scores)
                assert value == ref_value


    @pytest.mark.parametrize("spec", [
        LossSpec("GLA", q=0.0), LossSpec("GLA", q=0.3), LossSpec("GLA", q=0.7),
        LossSpec("GCE", q=0.0), LossSpec("GCE", q=0.5),
        LossSpec("LA", tau=1.0), LossSpec("LA", tau=0.5),
        LossSpec("WCE"), LossSpec("CB", gamma=0.9), LossSpec("CE"),
        LossSpec("FOCAL", gamma=2.0),
        LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0),
    ], ids=lambda spec: f"{spec.family}{spec.hyperparams()}")
    def test_mixed_n_equals_solo_bit_for_bit(self, spec):
        rng = np.random.default_rng(41)
        points = [random_conditional_point(rng, int(rng.integers(2, 6)))
                  for _ in range(8)]
        solved = minimize_conditional_errors(spec, points, max_steps=400)
        _assert_solo_equal(spec, points, solved, max_steps=400)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_gca_equals_solo_bit_for_bit(self, q):
        rng = np.random.default_rng(42)
        spec = LossSpec("GCA", q=q, margins=(1.0, 0.5, 2.0))
        points = [random_conditional_point(rng, 3) for _ in range(6)]
        solved = minimize_conditional_errors(spec, points, max_steps=400)
        _assert_solo_equal(spec, points, solved, max_steps=400)

    def test_points_leave_at_their_own_iteration(self, monkeypatch):
        # At q = 0.7 a flat point stops before its first step, two stop
        # within a few dozen steps, and one with an impossible label keeps
        # pushing that score down until the step limit; the lockstep loop
        # evaluates exactly the rows their solo descents do, in as many
        # calls as the longest of them.
        import imbloss.theory as theory

        calls = []
        real = theory.batch_loss_and_grad

        def counting(spec, scores, *args, **kwargs):
            calls.append(len(scores))
            return real(spec, scores, *args, **kwargs)

        monkeypatch.setattr(theory, "batch_loss_and_grad", counting)
        spec = LossSpec("GLA", q=0.7)
        points = [ConditionalPoint([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]),
                  ConditionalPoint([0.96, 0.02, 0.02], [0.05, 0.05, 0.9]),
                  ConditionalPoint([1 / 3] * 3, [1 / 3] * 3),
                  ConditionalPoint([0.4, 0.35, 0.25], [0.3, 0.3, 0.4])]
        solo_calls = []
        for point in points:
            calls.clear()
            minimize_conditional_error(spec, point, max_steps=1500)
            solo_calls.append(list(calls))
        counts = [len(c) for c in solo_calls]
        assert counts[0] == 1501 and counts[2] == 1
        assert 10 < counts[1] < 100 and 10 < counts[3] < 100
        calls.clear()
        solved = minimize_conditional_errors(spec, points, max_steps=1500)
        assert len(calls) == 1501
        assert sum(calls) == sum(sum(c) for c in solo_calls)
        _assert_solo_equal(spec, points, solved, max_steps=1500)

    def test_empty_and_single(self):
        assert minimize_conditional_errors(LossSpec("GLA", q=0.3), []) == []
        point = ConditionalPoint([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])
        spec = LossSpec("GLA", q=0.3)
        (scores, value), = minimize_conditional_errors(spec, [point])
        _assert_solo_equal(spec, [point], [(scores, value)])
        assert int(np.argmax(scores)) + 1 == bayes_balanced_label(point)

    def test_results_do_not_share_memory(self):
        rng = np.random.default_rng(43)
        points = [random_conditional_point(rng, 3) for _ in range(3)]
        solved = minimize_conditional_errors(LossSpec("GLA", q=0.0), points,
                                             max_steps=50)
        first = solved[0][0]
        first += 1.0
        assert not np.shares_memory(first, solved[1][0])
        _assert_solo_equal(LossSpec("GLA", q=0.0), points[1:], solved[1:],
                           max_steps=50)


class TestConditionalError:
    def test_entropy_at_the_gla_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            point = random_conditional_point(rng, int(rng.integers(2, 5)))
            scores, value = minimize_conditional_error(LossSpec("GLA", q=0.0),
                                                       point)
            entropy = -np.sum(point.cond * np.log(point.cond))
            assert value == pytest.approx(entropy, abs=1e-9)

    def test_one_hot_posterior_with_favorable_scores(self):
        point = ConditionalPoint([1.0, 0.0], [0.5, 0.5])
        scores = np.array([30.0, -30.0])
        assert conditional_error(LossSpec("GLA", q=0.0), scores, point) < 1e-12

    def test_matches_direct_weighted_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            point = random_conditional_point(rng, n)
            scores = rng.normal(0, 2, n)
            q = float(rng.choice([0.0, 0.4]))
            spec = LossSpec("GLA", q=q)
            stats = PriorStats(point.priors)
            direct = sum(
                point.cond[y - 1] * eval_loss(spec, scores, y, stats)
                for y in range(1, n + 1)
            )
            assert conditional_error(spec, scores, point) == pytest.approx(
                direct, abs=1e-12)


class TestBestConditionalError:
    def test_uniform_entropy(self):
        point = ConditionalPoint([0.5, 0.5], [0.7, 0.3])
        assert best_conditional_error("GLA", point, 0.0) == pytest.approx(
            math.log(2), abs=1e-15)

    def test_tsallis_form_value(self):
        # 2 * (1 - (0.6^2 + 0.4^2)^(1/2)) for q = 1/2 on posterior (.6, .4)
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        assert best_conditional_error("GLA", point, 0.5) == pytest.approx(
            2.0 * (1.0 - math.sqrt(0.52)), abs=1e-15)

    def test_closed_forms_match_numeric_minimization(self):
        rng = np.random.default_rng(9)
        for family in ("GLA", "GCA"):
            for _ in range(15):
                n = int(rng.integers(2, 5))
                q = float(rng.choice([0.0, 0.3, 0.7]))
                point = random_conditional_point(rng, n)
                spec = (LossSpec("GLA", q=q) if family == "GLA"
                        else LossSpec("GCA", q=q, margins=(1.0,) * n))
                _, value = minimize_conditional_error(spec, point)
                assert value == pytest.approx(
                    best_conditional_error(family, point, q), abs=1e-6)

    def test_gca_uniform_priors_scales_entropy(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            point = random_conditional_point(rng, n)
            uniform = ConditionalPoint(point.cond, np.full(n, 1.0 / n))
            expected = n * -np.sum(uniform.cond * np.log(uniform.cond))
            assert best_conditional_error("GCA", uniform, 0.0) == pytest.approx(
                expected, rel=1e-12)


class TestBoundChecks:
    def test_zero_regrets_at_minimizer(self):
        rng = np.random.default_rng(11)
        for q in (0.0, 0.3):
            point = random_conditional_point(rng, 3)
            scores, _ = minimize_conditional_error(LossSpec("GLA", q=q), point)
            report = check_gla_bound(point, scores, q)
            assert report.target_regret == 0.0
            assert abs(report.surrogate_regret) < 1e-9
            assert report.holds

    def test_zero_regrets_at_gca_minimizer(self):
        rng = np.random.default_rng(21)
        for q in (0.0, 0.3):
            point = random_conditional_point(rng, 3)
            spec = LossSpec("GCA", q=q, margins=(1.0, 1.0, 1.0))
            scores, _ = minimize_conditional_error(spec, point)
            report = check_gca_bound(point, scores, q)
            assert report.target_regret == 0.0
            assert abs(report.surrogate_regret) < 1e-9
            assert report.holds

    def test_tie_prediction_goes_to_highest_and_holds(self):
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        report = check_gla_bound(point, [0.0, 0.0], 0.0)
        # argmax tie resolves to class 2, which is balanced-optimal here
        assert report.target_regret == 0.0
        assert report.holds

    def test_fuzz_slack_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            point = random_conditional_point(rng, n, floor=0.03)
            scores = rng.normal(0, 3, n)
            q = float(rng.choice([0.0, 0.3, 0.5, 0.7, 0.9]))
            assert check_gla_bound(point, scores, q).holds
            assert check_gca_bound(point, scores, q).holds

    def test_adversarial_saturation_corners(self):
        # Near q = 1 with tiny class marginals the guaranteed surrogate
        # regret drops dozens of orders of magnitude below the two
        # conditional errors; the log-domain regret computation must
        # still resolve it. Spiky posteriors, near-minimizer points, and
        # adversarially wrong predictions all stay covered.
        rng = np.random.default_rng(77)
        for trial in range(1500):
            n = int(rng.integers(2, 7))
            floor = float(rng.choice([0.001, 0.01]))
            w = rng.random(n) ** 4
            cond = floor + (1 - n * floor) * (w / w.sum())
            w = rng.random(n) ** 4
            priors = floor + (1 - n * floor) * (w / w.sum())
            point = ConditionalPoint(cond, priors)
            q = float(rng.choice([0.0, 0.5, 0.9]))
            kind = trial % 3
            if kind == 0:
                scores = rng.normal(0, 20.0, n)
            elif kind == 1:
                scores, _ = minimize_conditional_error(
                    LossSpec("GLA", q=q), point, max_steps=150)
                scores = scores + rng.normal(0, 1e-4, n)
            else:
                scores = -np.log(point.ratios)  # favor the worst label
            assert check_gla_bound(point, scores, q).holds
            assert check_gca_bound(point, scores, q).holds

    def test_precise_regret_matches_naive_difference(self):
        from imbloss.theory import gca_surrogate_regret, gla_surrogate_regret

        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            point = random_conditional_point(rng, n)
            scores = rng.normal(0, 2, n)
            q = float(rng.choice([0.0, 0.3, 0.7]))
            naive = (conditional_error(LossSpec("GLA", q=q), scores, point)
                     - best_conditional_error("GLA", point, q))
            assert gla_surrogate_regret(point, scores, q) == pytest.approx(
                naive, abs=1e-11)
            spec = LossSpec("GCA", q=q, margins=(1.0,) * n)
            naive = (conditional_error(spec, scores, point)
                     - best_conditional_error("GCA", point, q))
            assert gca_surrogate_regret(point, scores, q) == pytest.approx(
                naive, abs=1e-9, rel=1e-9)

    def test_regret_transforms_exposed(self):
        # slack formula sanity at a fixed regret
        assert gla_bound_transform(0.5, 0.2, 0.0) == pytest.approx(
            math.sqrt(1.0) / 0.2)
        assert gca_bound_transform(0.5, 0.2, 3, 0.5) == pytest.approx(
            math.sqrt(2 * math.sqrt(3) * 0.5) / math.sqrt(0.2))

    def test_transform_ratio_is_sqrt_pmin(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = float(rng.uniform(1e-6, 5.0))
            p_min = float(rng.uniform(0.01, 0.5))
            ratio = (gca_bound_transform(t, p_min, 4, 0.0)
                     / gla_bound_transform(t, p_min, 0.0))
            assert ratio == pytest.approx(math.sqrt(p_min), rel=1e-12)

    def test_regret_report_validates(self):
        with pytest.raises(ValueError):
            RegretReport(target_regret=-1.0, surrogate_regret=0.0,
                         bound_value=0.0)

    def test_restricted_point_rejected(self):
        point = ConditionalPoint([0.5, 0.5], [0.5, 0.5], reachable=[2])
        with pytest.raises(ValueError):
            check_gla_bound(point, [0.0, 0.0], 0.0)


class TestPhiRho:
    def test_values(self):
        assert phi_rho(0.0, 1.0) == 1.0
        assert phi_rho(2.5, 2.5) == 0.0
        assert phi_rho(1.25, 2.5) == 0.5
        assert phi_rho(-3.0, 1.0) == 1.0
        assert phi_rho(99.0, 1.0) == 0.0

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            phi_rho(0.0, 0.0)


class TestMarginLoss:
    def test_zero_cost(self):
        assert margin_loss([1.0, 0.0], 1, 0.0, 1.0) == 0.0

    def test_conventions_differ_exactly_when_margins_clear_rho(self):
        scores = [3.0, 0.5, -1.0]
        # all competing gaps >= rho: runner-up reading gives 0, the
        # label-inclusive reading pins the loss at cost * Phi(0) = cost
        assert margin_loss(scores, 1, 2.0, 1.0) == 0.0
        assert margin_loss(scores, 1, 2.0, 1.0, include_label=True) == 2.0

    def test_dominates_cost_weighted_zero_one(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            scores = rng.normal(0, 2, n)
            label = int(rng.integers(1, n + 1))
            cost = float(rng.uniform(0.0, 5.0))
            rho = float(rng.uniform(0.2, 3.0))
            # ties to highest index, as the predictor does
            predicted = n - int(np.argmax(scores[::-1]))
            zero_one = cost * (predicted != label)
            assert margin_loss(scores, label, cost, rho) >= zero_one - 1e-12


class TestBatchMarginRisk:
    def test_matches_scalar_margin_loss(self):
        from imbloss.theory import _batch_margin_risk

        rng = np.random.default_rng(15)
        for _ in range(50):
            m, n = int(rng.integers(1, 20)), int(rng.integers(2, 6))
            scores = rng.normal(0, 2, (m, n))
            labels = rng.integers(1, n + 1, m)
            costs = rng.uniform(0, 5, m)
            rho = float(rng.uniform(0.2, 3.0))
            direct = np.mean([
                margin_loss(scores[i], int(labels[i]), float(costs[i]), rho)
                for i in range(m)
            ])
            assert _batch_margin_risk(scores, labels, costs, rho) == \
                pytest.approx(direct, abs=1e-14)


class TestRademacher:
    def _dataset(self, X, labels, n):
        return Dataset(np.asarray(X, dtype=float), labels, n)

    def test_zero_features_give_zero(self):
        data = self._dataset(np.zeros((5, 3)), [1, 2, 1, 2, 1], 2)
        estimate, stderr = empirical_rademacher_linear(data, 3.0, 8, seed=0)
        assert estimate == 0.0 and stderr == 0.0

    def test_single_point_single_class_exact(self):
        x = np.array([[3.0, 4.0]])
        data = self._dataset(x, [1], 1)
        estimate, _ = empirical_rademacher_linear(data, 2.0, 4, seed=1)
        assert estimate == pytest.approx(2.0 * 5.0, abs=0.0)

    def test_doubling_norm_bound_doubles_estimate_exactly(self):
        data = gaussian_mixture(3, 4, [5, 6, 7], np.zeros((3, 4)),
                                np.ones(3), seed=2)
        a, _ = empirical_rademacher_linear(data, 1.0, 16, seed=3)
        b, _ = empirical_rademacher_linear(data, 2.0, 16, seed=3)
        assert b == 2.0 * a

    def test_decays_with_sample_size(self):
        big = gaussian_mixture(2, 3, [400, 400], np.zeros((2, 3)),
                               np.ones(2), seed=4)
        small = Dataset(big.features[:200], big.labels[:200], 2)
        r_small, _ = empirical_rademacher_linear(small, 1.0, 200, seed=5)
        r_big, _ = empirical_rademacher_linear(big, 1.0, 200, seed=5)
        assert r_big < r_small


class TestTheorem5Bound:
    def _task(self, seed, m=120):
        counts = [m // 2, m // 3, m - m // 2 - m // 3]
        rng = np.random.default_rng(seed)
        means = rng.normal(0, 2.0, (3, 4))
        return gaussian_mixture(3, 4, counts, means, np.ones(3), seed)

    def test_large_rho_is_vacuous(self):
        train_set = self._task(0)
        test_set = self._task(1)
        model = LinearModel.init_random(3, 4, seed=2, norm_bound=1.0,
                                        use_bias=False)
        report = check_theorem5_bound(model, train_set, test_set, rho=1e6,
                                      norm_bound=1.0, delta=0.1, trials=10,
                                      seed=3)
        # Phi_rho ~ 1 everywhere: the empirical term alone reaches the
        # cost scale and the bound holds with room to spare
        assert report.empirical_margin_risk > 1.0
        assert report.holds

    def test_terms_shrink_with_m(self):
        from imbloss.datagen import subsample
        big = self._task(4, m=400)
        small = subsample(big, big.class_counts() // 4, seed=7)
        model = LinearModel.init_random(3, 4, seed=5, norm_bound=1.0,
                                        use_bias=False)
        r_small = check_theorem5_bound(model, small, small, 1.0, 1.0, 0.1,
                                       trials=200, seed=6)
        r_big = check_theorem5_bound(model, big, big, 1.0, 1.0, 0.1,
                                     trials=200, seed=6)
        assert r_big.deviation_term < r_small.deviation_term
        assert r_big.complexity_term < r_small.complexity_term

    def test_holds_across_resamples(self):
        model_cfg = TrainConfig(epochs=10, batch_size=32, lr0=0.05, seed=0)
        holds = 0
        for rep in range(10):
            train_set = self._task(100 + rep, m=150)
            test_set = self._task(200 + rep, m=300)
            model = LinearModel.init_random(3, 4, seed=rep, norm_bound=1.0,
                                            use_bias=False)
            model, _ = train(model, train_set, LossSpec("WCE"), model_cfg)
            report = check_theorem5_bound(model, train_set, test_set, rho=0.5,
                                          norm_bound=1.0, delta=0.1,
                                          trials=30, seed=rep)
            holds += report.holds
        assert holds >= 9


class TestLaMarginInequality:
    def test_zero_lhs_region(self):
        # v >= rho zeroes the ramp; the log side is positive
        worst = check_lamargin(1.0, 2.0, 1.0, 2.0,
                               v_grid=np.linspace(1.0, 10.0, 50),
                               rho_grid=[1.0])
        assert worst > 0.0

    def test_tight_point(self):
        worst = check_lamargin(1.0, 1.0, 1.0, 1.0, v_grid=[0.0], rho_grid=[1.0])
        assert abs(worst) <= 1e-12

    def test_full_grid(self):
        v_grid = np.arange(-10.0, 10.0 + 1e-12, 0.01)
        rho_grid = [0.1, 1.0, 10.0]
        costs = [1.0, 2.0, 10.0]
        worst = min(
            check_lamargin(cy, cyp, 1.0, 10.0, v_grid, rho_grid)
            for cy in costs for cyp in costs
        )
        assert worst >= -1e-12

    def test_rejects_inconsistent_cost_bounds(self):
        with pytest.raises(ValueError):
            check_lamargin(0.5, 2.0, 1.0, 2.0, [0.0], [1.0])


class TestMinimizabilityGap:
    def test_singleton_hypothesis_set(self):
        joint = random_discrete_joint(5, 3, 0.1, seed=0)
        rng = np.random.default_rng(1)
        table = rng.normal(0, 1, (5, 3))
        gap = minimizability_gap_finite(joint, [table], LossSpec("GCE", q=0.3))
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_combination_closed_set_has_zero_gap(self):
        joint = random_discrete_joint(3, 2, 0.2, seed=2)
        rng = np.random.default_rng(3)
        rows = rng.normal(0, 1, (4, 2))  # candidate score rows
        # every per-x combination of candidate rows
        tables = [
            np.stack([rows[i], rows[j], rows[k]])
            for i in range(4) for j in range(4) for k in range(4)
        ]
        gap = minimizability_gap_finite(joint, tables, LossSpec("GLA", q=0.0))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            num_x = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            joint = random_discrete_joint(num_x, n, 0.05,
                                          seed=int(rng.integers(1e6)))
            tables = [rng.normal(0, 2, (num_x, n))
                      for _ in range(int(rng.integers(1, 6)))]
            q = float(rng.choice([0.0, 0.5]))
            gap = minimizability_gap_finite(joint, tables, LossSpec("GCE", q=q))
            assert gap >= -1e-12

    def test_bounded_by_approximation_error(self):
        # Dense per-x-closed stand-in whose rows include the finite set's
        # rows: its best risk lower-bounds the per-x best, so the gap
        # cannot exceed the approximation error against it.
        joint = random_discrete_joint(3, 2, 0.15, seed=5)
        rng = np.random.default_rng(6)
        tables = [rng.normal(0, 1.5, (3, 2)) for _ in range(4)]
        spec = LossSpec("GLA", q=0.3)
        gap = minimizability_gap_finite(joint, tables, spec)

        grid = np.linspace(-4, 4, 9)
        rows = [np.array([a, b]) for a in grid for b in grid]
        rows += [t[x] for t in tables for x in range(3)]
        stats = PriorStats(joint.p_y)
        from imbloss.theory import _all_label_values
        per_x_best = np.array([
            min(float(joint.cond_y_given_x[x] @ _all_label_values(spec, r, stats))
                for r in rows)
            for x in range(3)
        ])
        dense_best_risk = float(joint.p_x @ per_x_best)
        finite_best_risk = min(
            float(sum(
                joint.p_x[x] * joint.cond_y_given_x[x]
                @ _all_label_values(spec, t[x], stats)
                for x in range(3)
            ))
            for t in tables
        )
        approx_error = finite_best_risk - dense_best_risk
        assert -1e-12 <= gap <= approx_error + 1e-12
