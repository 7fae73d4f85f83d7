"""Tests for the pointwise consistency, bound, and margin oracles."""

import math

import numpy as np
import pytest

from imbloss import theory, verify
from imbloss.datagen import Dataset, gaussian_mixture
from imbloss.losses import (
    LossSpec,
    PriorStats,
    batch_loss_and_grad,
    eval_loss,
    loss_table,
)
from imbloss.numerics import DEFAULT_FD_STEP, argmax_highest
from imbloss.theory import (
    ConditionalPoint,
    RegretReport,
    bal_regret,
    bayes_balanced_label,
    bayes_la_label,
    best_conditional_error,
    check_lamargin,
    check_point_rows,
    check_regret_bounds,
    check_theorem5_bound,
    conditional_errors,
    empirical_rademacher_linear,
    find_la_disagreement,
    floored_simplex,
    margin_losses,
    minimize_conditional_errors,
    phi_rho,
    random_conditional_point,
    regret_reports,
)
from imbloss.trainer import LinearModel, TrainConfig, train_lockstep
from oracles import bal_regret_bruteforce, gla_pointwise_minimizer


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


class TestPointRows:
    def test_random_point_is_the_transform_of_its_draws(self):
        rng = np.random.default_rng(5)
        point = random_conditional_point(np.random.default_rng(5), 4, 0.03)
        for got in (point.cond, point.priors):
            w = rng.random(4)
            assert got.tolist() == (0.03 + 0.88 * (w / w.sum())).tolist()

    def test_a_block_row_is_its_point_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for k in range(2, 7):
            w = rng.random((40, k))
            rows = floored_simplex(w, 0.03)
            check_point_rows(rows, rows)
            for i in range(40):
                assert (rows[i].tolist()
                        == floored_simplex(w[i], 0.03).tolist())

    @pytest.mark.parametrize("cond, priors, match", [
        ([0.5, np.nan], [0.5, 0.5], "cond must be finite"),
        ([0.5, 0.5], [np.inf, 0.5], "priors must be finite"),
        ([1.2, -0.2], [0.5, 0.5], "cond must be a probability"),
        ([0.5, 0.5 + 1e-11], [0.5, 0.5], "cond must be a probability"),
        ([0.5, 0.5], [1.0, 0.0], "priors must be a strictly positive"),
        ([0.5, 0.5], [0.5, 0.5 - 1e-11], "priors must be a strictly positive"),
    ], ids=["cond-nan", "priors-inf", "cond-negative", "cond-sum",
            "priors-zero", "priors-sum"])
    def test_rejects_what_a_conditional_point_rejects(self, cond, priors,
                                                      match):
        with pytest.raises(ValueError, match=match):
            ConditionalPoint(cond, priors)
        # the bad row among good ones of its class count
        good = [0.2, 0.8]
        with pytest.raises(ValueError, match=match):
            check_point_rows(np.array([good, cond]), np.array([good, priors]))


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
            [(scores, _)] = minimize_conditional_errors(LossSpec("GLA", q=q),
                                                        [point])
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
            [(scores, _)] = minimize_conditional_errors(LossSpec("GLA", q=q),
                                                        [point])
            assert int(np.argmax(scores)) + 1 == bayes_balanced_label(point)


def _assert_solo_equal(spec, points, solved, **kwargs):
    assert len(solved) == len(points)
    for point, (scores, value) in zip(points, solved):
        [(solo_scores, solo_value)] = minimize_conditional_errors(
            spec, [point], **kwargs)
        assert np.array_equal(scores, solo_scores)
        assert value == solo_value and isinstance(value, float)


def _per_point_newton(spec, point, max_steps):
    """The Newton solve written for one point with 1-d arrays and Python
    floats: the reference the stacked loop must reproduce exactly."""
    stats = PriorStats(point.priors)
    n = point.n
    labels = np.arange(1, n + 1)
    basis, h = theory._sum_zero_basis(n), DEFAULT_FD_STEP

    def value_grad(scores):
        values, grads = batch_loss_and_grad(spec, np.tile(scores, (n, 1)),
                                            labels, stats)
        return float(point.cond @ values), point.cond @ grads

    def newton(scores, grad):
        hess = np.empty((n, n))
        for j in range(n):
            plus, minus = scores.copy(), scores.copy()
            plus[j] += h
            minus[j] -= h
            hess[j] = (value_grad(plus)[1] - value_grad(minus)[1]) / (2 * h)
        hess = 0.5 * (hess + hess.T)
        curv, vecs = np.linalg.eigh(basis.T @ hess @ basis)
        curv = np.abs(curv)
        curv = np.maximum(curv, max(1e-12 * curv.max(), 1e-30))
        coef = grad @ basis @ vecs
        scaled = coef / curv
        return -(scaled @ vecs.T @ basis.T), float(scaled @ coef)

    scores = np.zeros(n)
    value, grad = value_grad(scores)
    if spec.family in ("GLA", "LA"):  # the adjusted origin, unless worse
        origin = (-(stats.log_priors / (1.0 - spec.q)) if spec.family == "GLA"
                  else -(spec.tau * stats.log_priors))
        at_origin = value_grad(origin)
        if not value < at_origin[0]:
            scores, (value, grad) = origin, at_origin
    fresh = True
    for _ in range(max_steps):
        if fresh:
            direction, decrement = newton(scores, grad)
            if decrement < 1e-15 * max(1.0, abs(value)):
                break
            step = 1.0 / max(1.0, math.sqrt(direction @ direction))
        candidate = scores + step * direction
        cand_value, cand_grad = value_grad(candidate)
        fresh = cand_value <= value - 0.1 * step * decrement
        if fresh:
            scores, value, grad = candidate, cand_value, cand_grad
        else:
            step *= 0.5
            if step * decrement < 1e-15 * max(1.0, abs(value)):
                break
    return scores, value


def _count_loss_calls(monkeypatch):
    """The label rows of each loss call the oracle makes, as a list that
    fills while the test runs."""
    calls = []
    real = theory.batch_loss_and_grad

    def counting(spec, scores, labels, *args, **kwargs):
        calls.append(len(labels))
        return real(spec, scores, labels, *args, **kwargs)

    monkeypatch.setattr(theory, "batch_loss_and_grad", counting)
    return calls


def _solo_steps(calls, n):
    """(Hessian, trial) flags per iteration of a solo solve of n classes,
    from its loss calls: after the two starts (2n labels), a Hessian call
    carries 2n rows of n labels, a trial step n labels."""
    assert calls[0] == 2 * n
    steps = []
    for rows in calls[1:]:
        if rows == 2 * n * n:
            steps.append((True, False))
        elif steps and steps[-1] == (True, False):
            assert rows == n
            steps[-1] = (True, True)
        else:
            assert rows == n
            steps.append((False, True))
    return steps


def _lockstep_calls(steps, n):
    """The label rows of each loss call of the lockstep solve of points of
    n classes whose solo iterations are ``steps``."""
    calls = [2 * n * len(steps)]
    for j in range(max(map(len, steps))):
        at = [s[j] for s in steps if j < len(s)]
        hessian = sum(2 * n * n for h, _ in at if h)
        trials = sum(n for _, t in at if t)
        calls += [rows for rows in (hessian, trials) if rows]
    return calls


class TestLockstepMinimizer:
    def test_solo_equals_the_per_point_loop(self):
        # run to their own stopping tests, and cut at 4 steps
        rng = np.random.default_rng(40)
        specs = [LossSpec("GLA", q=0.0), LossSpec("GLA", q=0.7),
                 LossSpec("WCE"), LossSpec("FOCAL", gamma=2.0)]
        for spec in specs:
            for _ in range(5):
                point = random_conditional_point(rng, int(rng.integers(2, 7)))
                for cap in (4, 10_000):
                    [(scores, value)] = minimize_conditional_errors(
                        spec, [point], max_steps=cap)
                    ref_scores, ref_value = _per_point_newton(spec, point,
                                                              cap)
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
        points = [random_conditional_point(rng, int(rng.integers(2, 7)))
                  for _ in range(14)]
        assert {p.n for p in points} == {2, 3, 4, 5, 6}
        # a cap of 8 steps stops some solves (GLA at q = 0.7, CSMAX)
        for cap in (8, 10_000):
            solved = minimize_conditional_errors(spec, points, max_steps=cap)
            _assert_solo_equal(spec, points, solved, max_steps=cap)

    @pytest.mark.parametrize("pick", ["every_pair", "two_per_n"])
    def test_mixed_specs_and_n_equal_solo_bit_for_bit(self, pick):
        # one spec per point, each family setting its own table columns
        # (GLA a shift and q, GCA divisors and weights, LA a shift, CB and
        # WCE weights, CE none): every (family, n) pair once, or two
        # families per n, so that each column one n sets is unset at
        # another; LDAM needs integer class counts, which a point lacks
        two_per_n = {2: (0, 2), 3: (1, 5), 4: (3, 0), 5: (4, 2), 6: (5, 1)}
        rng = np.random.default_rng(45)
        points, specs = [], []
        for i in range(30):
            n = 2 + i % 5
            family = (i % 6 if pick == "every_pair"
                      else two_per_n[n][i // 5 % 2])
            points.append(random_conditional_point(rng, n))
            specs.append([
                LossSpec("GLA", q=0.7),
                LossSpec("GCA", q=0.3,
                         margins=tuple(rng.uniform(0.3, 2.0, n))),
                LossSpec("LA", tau=0.5), LossSpec("CB", gamma=0.9),
                LossSpec("WCE"), LossSpec("CE")][family])
        for cap in (8, 10_000):
            solved = minimize_conditional_errors(specs, points, max_steps=cap)
            assert len(solved) == len(points)
            for spec, point, (scores, value) in zip(specs, points, solved):
                [(solo_scores, solo_value)] = minimize_conditional_errors(
                    spec, [point], max_steps=cap)
                assert np.array_equal(scores, solo_scores)
                assert value == solo_value
        # FOCAL or CSMAX in one solve with another spec, here of another
        # class count
        for mixed in ([LossSpec("FOCAL", gamma=2.0), LossSpec("CE")],
                      [LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0),
                       LossSpec("CE")]):
            solved = minimize_conditional_errors(mixed, points[:2])
            for spec, point, (scores, value) in zip(mixed, points[:2],
                                                    solved):
                [(solo_scores, solo_value)] = minimize_conditional_errors(
                    spec, [point])
                assert np.array_equal(scores, solo_scores)
                assert value == solo_value

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_gca_equals_solo_bit_for_bit(self, q):
        rng = np.random.default_rng(42)
        spec = LossSpec("GCA", q=q, margins=(1.0, 0.5, 2.0))
        points = [random_conditional_point(rng, 3) for _ in range(6)]
        for cap in (8, 10_000):
            solved = minimize_conditional_errors(spec, points, max_steps=cap)
            _assert_solo_equal(spec, points, solved, max_steps=cap)

    def test_points_leave_at_their_own_iteration(self, monkeypatch):
        # At q = 0.7 a flat point stops before its first step, two stop
        # after a few steps and after over a dozen, and one with an
        # impossible label keeps pushing that score down until the step
        # limit; the lockstep loop evaluates exactly the rows their solo
        # solves do, in as many calls as the longest of them.
        calls = _count_loss_calls(monkeypatch)
        spec = LossSpec("GLA", q=0.7)
        points = [ConditionalPoint([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]),
                  ConditionalPoint([0.96, 0.02, 0.02], [0.05, 0.05, 0.9]),
                  ConditionalPoint([1 / 3] * 3, [1 / 3] * 3),
                  ConditionalPoint([0.4, 0.35, 0.25], [0.3, 0.3, 0.4])]
        solo_calls = []
        for point in points:
            calls.clear()
            minimize_conditional_errors(spec, [point], max_steps=20)
            solo_calls.append(list(calls))
        steps = [_solo_steps(c, 3) for c in solo_calls]
        # the start, then per step a Hessian and a trial; the flat point
        # leaves at its first Hessian
        assert len(steps[0]) == 20 and len(solo_calls[0]) == 1 + 2 * 20
        assert steps[2] == [(True, False)] and len(solo_calls[2]) == 2
        assert 10 < len(steps[1]) < 20 and 3 < len(steps[3]) < 10
        calls.clear()
        solved = minimize_conditional_errors(spec, points, max_steps=20)
        assert len(calls) == 1 + 2 * 20
        assert sum(calls) == sum(sum(c) for c in solo_calls)
        assert calls == _lockstep_calls(steps, 3)
        _assert_solo_equal(spec, points, solved, max_steps=20)

    def test_mixed_n_points_leave_at_their_own_iteration(self,
                                                         monkeypatch):
        # points of every n solve one class count at a time, in ascending
        # n: per group, its start call, then per iteration one Hessian call
        # over the points whose solo solve takes a Hessian there (2n rows
        # of n labels each) and one call over those that try a step there
        # (n labels each)
        calls = _count_loss_calls(monkeypatch)
        spec = LossSpec("GLA", q=0.7)
        points = [
            ConditionalPoint([0.3, 0.25, 0.2, 0.15, 0.1], [0.2] * 5),
            ConditionalPoint([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]),
            ConditionalPoint([1 / 6] * 6, [1 / 6] * 6),
            ConditionalPoint([0.7, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4]),
            ConditionalPoint([0.5, 0.5], [0.5, 0.5]),
            ConditionalPoint([0.3, 0.2, 0.2, 0.1, 0.1, 0.1],
                             [0.1, 0.1, 0.2, 0.2, 0.2, 0.2]),
            ConditionalPoint([0.96, 0.02, 0.02], [0.05, 0.05, 0.9])]
        counts, steps = [], []
        for point in points:
            calls.clear()
            minimize_conditional_errors(spec, [point], max_steps=20)
            counts.append(len(calls))
            steps.append(_solo_steps(calls, point.n))
        assert counts[1] == 1 + 2 * 20 and counts[2] == counts[4] == 2
        assert len(set(counts)) == 6
        calls.clear()
        solved = minimize_conditional_errors(spec, points, max_steps=20)
        groups = []
        for n in sorted({p.n for p in points}):
            group = [s for s, p in zip(steps, points) if p.n == n]
            groups += _lockstep_calls(group, n)
        assert calls == groups
        _assert_solo_equal(spec, points, solved, max_steps=20)

    def test_no_loss_call_pads_a_point(self, monkeypatch):
        # points of every n solve one class count at a time: each loss
        # call's scores are finite, every block of it carries exactly the
        # labels 1..n of its class axis, so no class lies past its point's
        # n, and the calls go in ascending n
        real = theory.batch_loss_and_grad
        widths = []

        def spy(table, scores, labels, *args, **kwargs):
            n = scores.shape[0]
            assert np.isfinite(scores).all()
            assert (labels.reshape(-1, n) == np.arange(1, n + 1)).all()
            widths.append(n)
            return real(table, scores, labels, *args, **kwargs)

        monkeypatch.setattr(theory, "batch_loss_and_grad", spy)
        points = verify.bayes_points(np.random.default_rng(0), 60)
        specs = [LossSpec("GLA", q=(0.0, 0.3, 0.7, 0.9)[i % 4])
                 for i in range(60)]
        minimize_conditional_errors(specs, points)
        assert set(widths) == {p.n for p in points} == {2, 3, 4, 5, 6}
        assert widths == sorted(widths)

    def test_results_do_not_depend_on_the_hessian_block_size(
            self, monkeypatch):
        # 75 points each of n = 2 and n = 3: the default block splits the
        # first Hessians of each class count across two calls, and blocks
        # of 1 and 2 put each point's Hessian rows in calls of their own
        # or with one other point; the bits are those of one call per
        # class count
        rng = np.random.default_rng(48)
        points = [random_conditional_point(rng, 2 + i % 2, ratio_gap=1e-3)
                  for i in range(150)]
        specs = [LossSpec("GLA", q=(0.0, 0.3, 0.7, 0.9)[i % 4])
                 for i in range(150)]
        default = theory._HESSIAN_BLOCK
        assert default < 75
        monkeypatch.setattr(theory, "_HESSIAN_BLOCK", 75)
        whole = minimize_conditional_errors(specs, points)
        for block in (default, 1, 2):
            monkeypatch.setattr(theory, "_HESSIAN_BLOCK", block)
            for (scores, value), (ref_scores, ref_value) in zip(
                    minimize_conditional_errors(specs, points), whole):
                assert np.array_equal(scores, ref_scores)
                assert value == ref_value

    def test_mixed_class_counts_raise_no_floating_point_error(self):
        # GLA and GCA points of every n, each class count solved in its
        # own loop: the loss core, the reductions and the step run without
        # a divide, overflow or invalid
        rng = np.random.default_rng(47)
        points = [random_conditional_point(rng, 2 + i % 5) for i in range(10)]
        specs = [LossSpec("GLA", q=0.7) if i % 2 else
                 LossSpec("GCA", q=0.3, margins=(0.5,) * point.n)
                 for i, point in enumerate(points)]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            solved = minimize_conditional_errors(specs, points)
        assert all(np.isfinite(scores).all() for scores, _ in solved)

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
        solved = minimize_conditional_errors(LossSpec("GLA", q=0.0), points)
        first = solved[0][0]
        first += 1.0
        assert not np.shares_memory(first, solved[1][0])
        _assert_solo_equal(LossSpec("GLA", q=0.0), points[1:], solved[1:])


def _all_label_values(spec, scores, stats):
    """Loss value of every label on one score vector, from its n tiled
    rows: the reference of the conditional errors."""
    n = stats.n
    tiled = np.tile(np.asarray(scores, dtype=np.float64), (n, 1))
    values, _ = batch_loss_and_grad(spec, tiled, np.arange(1, n + 1), stats,
                                    want_grad=False)
    return values


def _conditional_error(spec, scores, point):
    """conditional_errors on one point's row, with its marginal."""
    table = loss_table([(spec, PriorStats(point.priors))], point.n)
    errors, _ = conditional_errors(table, point.cond[None, :], np.asarray(
        scores, dtype=np.float64)[None, :])
    return errors[0]


def _spec_for(family, n):
    return {
        "GLA0": LossSpec("GLA", q=0.0), "GLA": LossSpec("GLA", q=0.6),
        "GCE": LossSpec("GCE", q=0.3), "LA": LossSpec("LA", tau=0.7),
        "WCE": LossSpec("WCE"), "CE": LossSpec("CE"),
        "CB": LossSpec("CB", gamma=0.9), "FOCAL": LossSpec("FOCAL", gamma=2.0),
        "CSMAX": LossSpec("CSMAX", rho_margin=0.5, psi_tau=1.0),
        "GCA": LossSpec("GCA", q=0.4,
                        margins=tuple(np.linspace(0.5, 2.0, n))),
    }[family]


_REFERENCE_FAMILIES = ("GLA0", "GLA", "GCE", "LA", "WCE", "CE", "CB",
                       "FOCAL", "CSMAX", "GCA")


class TestConditionalErrorsEqualTheReference:
    @pytest.mark.parametrize("family", _REFERENCE_FAMILIES)
    def test_conditional_error(self, family):
        # several points per call, each its own block of one loss table
        rng = np.random.default_rng(44)
        for _ in range(10):
            n, count = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            spec = _spec_for(family, n)
            points = [random_conditional_point(rng, n) for _ in range(count)]
            scores = rng.normal(0, 3, (count, n))
            table = loss_table([(spec, PriorStats(p.priors)) for p in points],
                               n)
            errors, _ = conditional_errors(
                table, np.array([p.cond for p in points]), scores)
            for point, row, error in zip(points, scores, errors):
                assert error == float(point.cond @ _all_label_values(
                    spec, row, PriorStats(point.priors)))


class TestConditionalError:
    def test_entropy_at_the_gla_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            point = random_conditional_point(rng, int(rng.integers(2, 5)))
            [(scores, value)] = minimize_conditional_errors(
                LossSpec("GLA", q=0.0), [point])
            entropy = -np.sum(point.cond * np.log(point.cond))
            assert value == pytest.approx(entropy, abs=1e-9)

    def test_one_hot_posterior_with_favorable_scores(self):
        point = ConditionalPoint([1.0, 0.0], [0.5, 0.5])
        scores = np.array([30.0, -30.0])
        spec = LossSpec("GLA", q=0.0)
        assert _conditional_error(spec, scores, point) < 1e-12

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
            assert _conditional_error(spec, scores, point) == pytest.approx(
                direct, abs=1e-12)

    def test_gca_margins_two_class_closed_form(self):
        # n = 2, q = 0: with w = p(y|x) / p(y) and delta = s_1 - s_2, GCA
        # with margins (rho_1, rho_2) has the conditional error
        # w_1 log(1 + e^(-delta / rho_1)) + w_2 log(1 + e^(delta / rho_2)),
        # convex in delta with slope (w_2 / rho_2 - w_1 / rho_1) / 2 at 0,
        # so the minimizer's label is 1 exactly when w_1 / rho_1 >
        # w_2 / rho_2. Checked on every point, at its minimizer and at
        # random scores.
        rng = np.random.default_rng(45)
        points = [random_conditional_point(rng, 2, ratio_gap=1e-2)
                  for _ in range(200)]
        rho = rng.uniform(0.05, 1.0, (200, 2))
        specs = [LossSpec("GCA", q=0.0, margins=tuple(r)) for r in rho]
        solved = np.array([s for s, _ in minimize_conditional_errors(
            specs, points)])
        w = np.array([p.ratios for p in points])
        table = loss_table([(spec, PriorStats(p.priors))
                            for spec, p in zip(specs, points)], 2)
        for scores in (solved, rng.normal(0, 2, (200, 2))):
            errors, _ = conditional_errors(
                table, np.array([p.cond for p in points]), scores)
            delta = scores[:, 0] - scores[:, 1]
            closed = (w[:, 0] * np.logaddexp(0.0, -delta / rho[:, 0])
                      + w[:, 1] * np.logaddexp(0.0, delta / rho[:, 1]))
            np.testing.assert_allclose(errors, closed, rtol=1e-13, atol=0.0)
        assert np.array_equal(solved[:, 0] > solved[:, 1],
                              w[:, 0] / rho[:, 0] > w[:, 1] / rho[:, 1])

    def test_gca_margins_decision_rule_on_mixed_class_counts(self):
        # q = 0, n from 2 to 6 in one solve, each point with its own
        # margins: the minimizer's label is the top of p(y|x) /
        # (p(y) rho_y), ties to the highest, at every point; that label
        # is not the balanced one at many of them, so the margins are
        # read
        rng = np.random.default_rng(0)
        points, specs = [], []
        for _ in range(200):
            n = int(rng.integers(2, 7))
            points.append(random_conditional_point(rng, n, ratio_gap=1e-2))
            specs.append(LossSpec("GCA", q=0.0,
                                  margins=tuple(rng.uniform(0.05, 1.0, n))))
        solved = minimize_conditional_errors(specs, points)
        assert {p.n for p in points} == {2, 3, 4, 5, 6}
        moved = 0
        for point, spec, (scores, _) in zip(points, specs, solved):
            label = argmax_highest(point.ratios / np.array(spec.margins))
            assert argmax_highest(scores) == label
            moved += label != argmax_highest(point.ratios)
        assert moved > 50


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
                [(_, value)] = minimize_conditional_errors(spec, [point])
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

    @pytest.mark.parametrize("q", [0.8, 0.9])
    def test_gla_oracle_matches_the_closed_form_at_high_q(self, q):
        # the optimum's softmax is proportional to p^(1/(1-q)), flat in
        # the small posterior entries; a first-order descent from s = 0
        # misses 1e-10 at 21 of these points at q = 0.8, and at 176 with
        # 70 wrong labels at q = 0.9
        points = verify.bayes_points(np.random.default_rng(0), 300)
        solved = minimize_conditional_errors(LossSpec("GLA", q=q), points)
        gaps = [abs(value - best_conditional_error("GLA", point, q))
                for point, (_, value) in zip(points, solved)]
        assert max(gaps) <= 1e-10
        assert ([argmax_highest(scores) + 1 for scores, _ in solved]
                == [bayes_balanced_label(point) for point in points])

    def test_gca_oracle_matches_the_closed_form_at_q_09(self):
        # unit margins, n = 2..6 in one solve: the closed form to 1e-10
        # and the balanced label; a first-order descent from s = 0 stops
        # short of 1e-10 at 103 of these points (by up to 1.4e-5)
        rng = np.random.default_rng(0)
        points = [random_conditional_point(rng, int(rng.integers(2, 7)),
                                           ratio_gap=1e-3)
                  for _ in range(200)]
        assert {p.n for p in points} == {2, 3, 4, 5, 6}
        solved = minimize_conditional_errors(
            [LossSpec("GCA", q=0.9, margins=(1.0,) * p.n) for p in points],
            points)
        gaps = [abs(value - best_conditional_error("GCA", point, 0.9))
                for point, (_, value) in zip(points, solved)]
        assert max(gaps) <= 1e-10
        assert ([argmax_highest(scores) + 1 for scores, _ in solved]
                == [bayes_balanced_label(point) for point in points])


def _perturbed_minimizers(q, points, scores, near):
    """The scores, with each entry where ``near`` holds replaced by the
    GLA oracle's minimizer of its point plus that entry as noise; one
    solve covers every such point."""
    scores = list(scores)
    chosen = [i for i, flag in enumerate(near) if flag]
    solved = minimize_conditional_errors(
        LossSpec("GLA", q=q), [points[i] for i in chosen])
    for i, (minimizer, _) in zip(chosen, solved):
        scores[i] = minimizer + scores[i]
    return scores


def _assert_bounds_hold(q, points, scores):
    """Both families' bounds cover every (point, scores) pair at q."""
    for family in ("GLA", "GCA"):
        report = check_regret_bounds(family, points, scores, q)
        failed = np.flatnonzero(~report.holds).tolist()
        assert not failed, (family, q, [points[i] for i in failed])


class TestBoundChecks:
    def test_zero_regrets_at_minimizer(self):
        rng = np.random.default_rng(11)
        for q in (0.0, 0.3):
            point = random_conditional_point(rng, 3)
            [(scores, _)] = minimize_conditional_errors(LossSpec("GLA", q=q),
                                                        [point])
            report = check_regret_bounds("GLA", [point], [scores], q)
            assert report.target_regret.tolist() == [0.0]
            assert abs(report.surrogate_regret[0]) < 1e-9
            assert report.holds.all()

    def test_zero_regrets_at_gca_minimizer(self):
        rng = np.random.default_rng(21)
        for q in (0.0, 0.3):
            point = random_conditional_point(rng, 3)
            spec = LossSpec("GCA", q=q, margins=(1.0, 1.0, 1.0))
            [(scores, _)] = minimize_conditional_errors(spec, [point])
            report = check_regret_bounds("GCA", [point], [scores], q)
            assert report.target_regret.tolist() == [0.0]
            assert abs(report.surrogate_regret[0]) < 1e-9
            assert report.holds.all()

    def test_tie_prediction_goes_to_highest_and_holds(self):
        point = ConditionalPoint([0.6, 0.4], [0.8, 0.2])
        report = check_regret_bounds("GLA", [point], [[0.0, 0.0]], 0.0)
        # argmax tie resolves to class 2, which is balanced-optimal here
        assert report.target_regret.tolist() == [0.0]
        assert report.holds.all()

    def test_fuzz_slack_nonnegative(self):
        rng = np.random.default_rng(12)
        by_q = {}
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            point = random_conditional_point(rng, n, floor=0.03)
            scores = rng.normal(0, 3, n)
            q = float(rng.choice([0.0, 0.3, 0.5, 0.7, 0.9]))
            by_q.setdefault(q, []).append((point, scores))
        for q, cases in by_q.items():
            _assert_bounds_hold(q, *zip(*cases))

    def test_adversarial_saturation_corners(self):
        # Near q = 1 with tiny class marginals the guaranteed surrogate
        # regret drops dozens of orders of magnitude below the two
        # conditional errors; the log-domain regret computation must
        # still resolve it. Spiky posteriors, near-minimizer points, and
        # adversarially wrong predictions all stay covered.
        rng = np.random.default_rng(77)
        by_q = {}
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
                scores = rng.normal(0, 1e-4, n)  # noise on the minimizer
            else:
                scores = -np.log(point.ratios)  # favor the worst label
            by_q.setdefault(q, []).append((point, scores, kind == 1))
        for q, cases in by_q.items():
            points, scores, near = zip(*cases)
            _assert_bounds_hold(q, points, _perturbed_minimizers(
                q, points, scores, near))

    def test_precise_regret_matches_naive_difference(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            point = random_conditional_point(rng, n)
            scores = rng.normal(0, 2, n)
            q = float(rng.choice([0.0, 0.3, 0.7]))
            naive = (_conditional_error(LossSpec("GLA", q=q), scores, point)
                     - best_conditional_error("GLA", point, q))
            report = check_regret_bounds("GLA", [point], [scores], q)
            assert report.surrogate_regret[0] == pytest.approx(
                naive, abs=1e-11)
            spec = LossSpec("GCA", q=q, margins=(1.0,) * n)
            naive = (_conditional_error(spec, scores, point)
                     - best_conditional_error("GCA", point, q))
            report = check_regret_bounds("GCA", [point], [scores], q)
            assert report.surrogate_regret[0] == pytest.approx(
                naive, abs=1e-9, rel=1e-9)

    def test_regret_transforms_exposed(self):
        # each bound is its family's transform of the surrogate regret the
        # report carries, at p_min 0.2 and n = 3
        cond, priors = np.array([[0.6, 0.3, 0.1]]), np.array([[0.2, 0.3, 0.5]])
        scores = np.array([[0.5, -1.0, 2.0]])
        for q, transform in (
                (0.0, lambda t: math.sqrt(2 * t) / 0.2),
                (0.5, lambda t: math.sqrt(2 * t) / (0.2**2 * math.sqrt(0.5)))):
            report = regret_reports("GLA", cond, priors, scores, q)
            (t,), (bound,) = report.surrogate_regret, report.bound_value
            assert t > 0.0 and bound == pytest.approx(transform(t))
        report = regret_reports("GCA", cond, priors, scores, 0.5)
        (t,), (bound,) = report.surrogate_regret, report.bound_value
        assert t > 0.0 and bound == pytest.approx(
            math.sqrt(2 * math.sqrt(3) * t) / math.sqrt(0.2))

    def test_transform_ratio_is_sqrt_pmin(self):
        # at q = 0 the GCA bound per sqrt(t) is sqrt(p_min) times GLA's
        rng = np.random.default_rng(13)
        cond = floored_simplex(rng.random((50, 4)), 0.01)
        priors = floored_simplex(rng.random((50, 4)), 0.01)
        scores = rng.normal(0, 3, (50, 4))
        gla, gca = (regret_reports(family, cond, priors, scores, 0.0)
                    for family in ("GLA", "GCA"))
        assert (gla.surrogate_regret > 0).all()
        assert (gca.surrogate_regret > 0).all()
        ratio = ((gca.bound_value / np.sqrt(gca.surrogate_regret))
                 / (gla.bound_value / np.sqrt(gla.surrogate_regret)))
        assert ratio == pytest.approx(np.sqrt(priors.min(axis=1)), rel=1e-12)

    def test_regret_report_derives_slack_and_holds(self):
        report = RegretReport(target_regret=np.array([0.0, 1.0, 1.0]),
                              surrogate_regret=np.array([0.0, 0.5, 0.5]),
                              bound_value=np.array([0.0, 1.0 - 1e-10, 0.5]))
        assert report.slack.tolist() == [0.0, (1.0 - 1e-10) - 1.0, -0.5]
        assert report.holds.tolist() == [True, True, False]

    def test_restricted_point_rejected(self):
        point = ConditionalPoint([0.5, 0.5], [0.5, 0.5], reachable=[2])
        with pytest.raises(ValueError):
            check_regret_bounds("GLA", [point], [[0.0, 0.0]], 0.0)


def _per_point_log_normalize(logits):
    top = int(np.argmax(logits))
    rest = np.exp(np.delete(logits, top) - logits[top])
    return (logits - logits[top]) - np.log1p(np.sum(rest))


def _per_point_report(family, point, scores, q):
    """The bound check written for one point, with the max entry deleted
    from the normalizer, the zero-weight entries dropped from the regret
    sum and the q = 0 transforms written out: the reference the batched
    path must reproduce exactly. Returns (target, surrogate, bound)."""
    scores = np.asarray(scores, dtype=np.float64)
    exponent = 1.0 / (1.0 - q)
    with np.errstate(divide="ignore"):
        if family == "GLA":
            weights = point.cond
            log_achieved = _per_point_log_normalize(
                scores + np.log(point.priors) / (1.0 - q))
            log_target = _per_point_log_normalize(exponent * np.log(point.cond))
        else:
            weights = point.ratios
            log_achieved = _per_point_log_normalize(scores)
            log_target = _per_point_log_normalize(
                exponent * np.log(weights / weights.sum()))
    keep = weights > 0.0
    w, log_t, log_a = weights[keep], log_target[keep], log_achieved[keep]
    if q == 0.0:
        surrogate = float(np.sum(w * (log_t - log_a)))
    else:
        u_t, u_a = q * log_t, q * log_a
        big = (u_t > -0.693) & (u_a > -0.693)
        delta = np.where(big, np.expm1(u_t) - np.expm1(u_a),
                         np.exp(u_t) - np.exp(u_a))
        surrogate = float(np.sum(w * delta) / q)
    predicted = point.n - int(np.argmax(scores[::-1]))
    target = bal_regret(point, predicted)
    t, p_min = max(surrogate, 0.0), point.p_min
    if family == "GLA" and q == 0.0:
        bound = math.sqrt(2.0 * t) / p_min
    elif family == "GLA":
        bound = math.sqrt(2.0 * t) / (p_min ** (1.0 / (1.0 - q))
                                      * math.sqrt(1.0 - q))
    elif q == 0.0:
        bound = math.sqrt(2.0 * t) / math.sqrt(p_min)
    else:
        bound = math.sqrt(2.0 * point.n**q * t) / math.sqrt(p_min)
    return target, surrogate, bound


def _assert_reference_equal(family, points, scores, q, report):
    fields = (report.target_regret, report.surrogate_regret,
              report.bound_value)
    assert all(f.dtype == np.float64 and f.shape == (len(points),)
               for f in fields)
    for point, s, *row in zip(points, scores, *(f.tolist() for f in fields)):
        assert tuple(row) == _per_point_report(family, point, s, q)


def _saturation_corners(rng, q, count):
    """Points in the style of the adversarial saturation test: floors of
    1e-3, spiky posteriors, scores at scale 20, near-minimizers and
    predictions of the worst label."""
    points, scores = [], []
    for trial in range(count):
        n = int(rng.integers(2, 7))
        w = rng.random(n) ** 4
        cond = 1e-3 + (1 - n * 1e-3) * (w / w.sum())
        w = rng.random(n) ** 4
        point = ConditionalPoint(cond, 1e-3 + (1 - n * 1e-3) * (w / w.sum()))
        if trial % 3 == 0:
            s = rng.normal(0, 20.0, n)
        elif trial % 3 == 1:
            s = rng.normal(0, 1e-4, n)
        else:
            s = -np.log(point.ratios)
        points.append(point)
        scores.append(s)
    near = [trial % 3 == 1 for trial in range(count)]
    return points, _perturbed_minimizers(q, points, scores, near)


class TestBatchedBoundChecks:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.7, 0.9])
    def test_mixed_batch_equals_the_per_point_loop(self, q):
        rng = np.random.default_rng(44)
        points = [random_conditional_point(rng, int(rng.integers(2, 7)),
                                           floor=0.03) for _ in range(60)]
        scores = [rng.normal(0, 3, p.n) for p in points]
        corners, corner_scores = _saturation_corners(rng, q, 15)
        points += corners + [ConditionalPoint([0.5, 0.5, 0.0],
                                              [0.25, 0.25, 0.5])]
        scores += corner_scores + [np.array([0.3, -1.0, 2.0])]
        assert {p.n for p in points} == {2, 3, 4, 5, 6}
        for family in ("GLA", "GCA"):
            report = check_regret_bounds(family, points, scores, q)
            _assert_reference_equal(family, points, scores, q, report)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [0.0, 0.7])
    def test_zero_cond_entry_adds_nothing_and_warns_nothing(self, q):
        point = ConditionalPoint([0.0, 0.6, 0.4], [0.5, 0.3, 0.2])
        scores = [np.array([4.0, -2.0, 1.0])]
        for family in ("GLA", "GCA"):
            report = check_regret_bounds(family, [point], scores, q)
            _assert_reference_equal(family, [point], scores, q, report)
            assert report.holds.all()

    def test_single_and_empty(self):
        point = ConditionalPoint([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])
        scores = [0.5, -0.2, 1.5]
        for family in ("GLA", "GCA"):
            empty = check_regret_bounds(family, [], [], 0.3)
            _assert_reference_equal(family, [], [], 0.3, empty)
            report = check_regret_bounds(family, [point], [scores], 0.3)
            _assert_reference_equal(family, [point], [scores], 0.3, report)

    @pytest.mark.parametrize("family", ["GLA", "GCA"])
    def test_mixed_block_equals_one_call_per_n_and_q(self, family):
        # one check_regret_bounds call on points of every n, with a q per
        # point, gives the bits of one call on each (n, q) slice of them
        rng = np.random.default_rng(46)
        qs = (0.0, 0.3, 0.5, 0.7, 0.9)
        points, scores = [], []
        for i in range(150):
            point = random_conditional_point(rng, int(rng.integers(2, 7)),
                                             floor=0.03)
            points.append(point)
            scores.append(-np.log(point.ratios) if i % 3 == 2
                          else rng.normal(0, (3.0, 20.0)[i % 3], point.n))
        q = np.array([qs[i % 5] for i in range(150)])
        report = check_regret_bounds(family, points, scores, q)
        n = np.array([point.n for point in points])
        for k in range(2, 7):
            for q_k in qs:
                rows = np.flatnonzero((n == k) & (q == q_k))
                assert rows.size
                alone = check_regret_bounds(family, [points[i] for i in rows],
                                            [scores[i] for i in rows], q_k)
                for field in ("target_regret", "surrogate_regret",
                              "bound_value"):
                    assert (getattr(report, field)[rows].tobytes()
                            == getattr(alone, field).tobytes())

    def test_rejects_restricted_points_and_bad_inputs(self):
        regular = ConditionalPoint([0.5, 0.5], [0.5, 0.5])
        restricted = ConditionalPoint([0.5, 0.5], [0.5, 0.5], reachable=[2])
        zeros = [np.zeros(2), np.zeros(2)]
        with pytest.raises(ValueError, match="reachable"):
            check_regret_bounds("GCA", [regular, restricted], zeros, 0.0)
        with pytest.raises(ValueError, match="reachable"):
            check_regret_bounds("GCA", [restricted], [[0.0, 0.0]], 0.5)
        with pytest.raises(ValueError, match="family"):
            check_regret_bounds("LA", [regular], zeros[:1], 0.0)
        for q in (1.0, -0.1, np.nan, [0.3, 1.5]):
            with pytest.raises(ValueError, match="q must lie in"):
                check_regret_bounds("GLA", [regular, regular], zeros, q)
        with pytest.raises(ValueError, match="argument 2 is longer"):
            check_regret_bounds("GLA", [regular], zeros, 0.0)
        with pytest.raises(ValueError, match="2 entries"):
            check_regret_bounds("GLA", [regular], [np.zeros(1)], 0.0)


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
        assert margin_losses([[1.0, 0.0]], [1], [0.0], 1.0)[0] == 0.0

    def test_conventions_differ_exactly_when_margins_clear_rho(self):
        scores = [[3.0, 0.5, -1.0]]
        # all competing gaps >= rho: the runner-up reading gives 0
        assert margin_losses(scores, [1], [2.0], 1.0)[0] == 0.0

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
            (loss,) = margin_losses(scores[None, :], [label], [cost], rho)
            assert loss >= zero_one - 1e-12


def _reference_margin_loss(scores, label, cost, rho):
    """The margin loss written for one score vector with np.delete: the
    reference every row of margin_losses must equal."""
    gaps = np.delete(scores[label - 1] - scores, label - 1)
    return float(cost * np.max(phi_rho(gaps, rho)))


class TestMarginLosses:
    def test_every_row_equals_the_scalar_reference(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m, n = int(rng.integers(1, 20)), int(rng.integers(2, 6))
            scores = rng.normal(0, 2, (m, n))
            # ties between the label and the runner-up, and among rivals
            scores[:, -1] = np.where(rng.random(m) < 0.3, scores[:, 0],
                                     scores[:, -1])
            labels = rng.integers(1, n + 1, m)
            costs = rng.uniform(0, 5, m)
            rho = float(rng.uniform(0.2, 3.0))
            rows = margin_losses(scores, labels, costs, rho)
            for i in range(m):
                ref = _reference_margin_loss(scores[i], int(labels[i]),
                                             float(costs[i]), rho)
                assert rows[i] == ref
                assert margin_losses(scores[i:i + 1], labels[i:i + 1],
                                     costs[i:i + 1], rho)[0] == ref

    def test_a_rho_per_row_equals_each_row_alone(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(0, 2, (30, 4))
        labels = rng.integers(1, 5, 30)
        costs = rng.uniform(0, 5, 30)
        rhos = rng.uniform(0.2, 3.0, 30)
        rows = margin_losses(scores, labels, costs, rhos)
        assert rows.tolist() == [
            margin_losses(scores[i:i + 1], labels[i:i + 1], costs[i:i + 1],
                          float(rhos[i]))[0] for i in range(30)]
        with pytest.raises(ValueError, match="rho"):
            margin_losses(scores, labels, costs, np.where(
                np.arange(30) == 3, 0.0, rhos))

    def test_rejects_bad_input(self):
        scores = np.zeros((2, 3))
        with pytest.raises(ValueError, match="n >= 2"):
            margin_losses(np.zeros((2, 1)), [1, 1], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="1..3"):
            margin_losses(scores, [1, 4], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="costs"):
            margin_losses(scores, [1, 2], [1.0, -1.0], 1.0)
        with pytest.raises(ValueError, match="rho"):
            margin_losses(scores, [1, 2], [1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="finite"):
            margin_losses([[1.0, np.nan]], [1], [1.0], 1.0)


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

    @pytest.mark.parametrize("counts", [(5, 6, 7), (5, 6, 8)],
                             ids=["even-mn", "odd-mn"])
    def test_equals_the_per_trial_loop(self, counts, monkeypatch):
        # one sign matrix and one product per trial, drawn in trial order:
        # the estimate and its error, bit for bit, at m * n = 54 and 57,
        # all 9 trials in one block, or in blocks of 2 and a last of 1
        data = gaussian_mixture(3, 4, list(counts), np.zeros((3, 4)),
                                np.ones(3), seed=6)
        rng, trials = np.random.default_rng(7), 9
        draws = np.empty(trials)
        for t in range(trials):
            eps = 2.0 * rng.integers(0, 2, size=(data.m, data.n)) - 1.0
            draws[t] = 1.5 * np.linalg.norm(data.features.T @ eps,
                                            axis=0).sum() / data.m
        expected = (float(draws.mean()),
                    float(draws.std(ddof=1) / np.sqrt(trials)))
        assert empirical_rademacher_linear(data, 1.5, trials, 7) == expected
        monkeypatch.setattr(theory, "_RADEMACHER_BLOCK", 2 * data.m * data.n)
        assert empirical_rademacher_linear(data, 1.5, trials, 7) == expected

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
        big = self._task(4, m=400)
        # every fourth row of each class: the rows are grouped by class
        small = Dataset(big.features[::4], big.labels[::4], big.n)
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
            ((model, _),) = train_lockstep([model], train_set,
                                           LossSpec("WCE"), [model_cfg])
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
