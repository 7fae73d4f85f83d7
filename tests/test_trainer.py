"""Tests for models, the SGD loop, and the best-in-class search."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from imbloss.datagen import (
    figure1_distribution,
    gaussian_mixture,
    longtail_counts,
)
from imbloss.losses import (
    ClassStats,
    LossSpec,
    batch_loss_and_grad,
    default_gca_margins,
    eval_grad,
    loss_table,
)
from imbloss.trainer import (
    BoundedLinearFamily,
    LinearModel,
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    best_in_class_search,
    boundary_angle_degrees,
    cosine_lr,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train_lockstep,
)
from imbloss.trainer import (
    _backward,
    _delta_objective,
    _forward,
    _weighted_balanced_error,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def sample_problem(data):
    """(X, labels, weights, stats) as the search scores a sample."""
    return data.features, data.labels, np.full(data.m, 1.0 / data.m), \
        data.stats()


def separable_blobs(seed=0, counts=(60, 40), spread=8.0):
    n = len(counts)
    means = spread * np.eye(n)[:, :2] if n == 2 else spread * np.eye(n)
    d = means.shape[1]
    return gaussian_mixture(n, d, list(counts), means, np.full(n, 0.5), seed)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.2) == pytest.approx(0.2)
        assert cosine_lr(100, 100, 0.2) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(50, 100, 0.2) == pytest.approx(0.1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(-1, 4, 0.1)


class TestPredict:
    def test_examples(self):
        model = LinearModel(np.eye(3), np.zeros(3))
        assert predict_batch(model, [[3.0, 1.0, 2.0]]).tolist() == [1]
        model2 = LinearModel(np.eye(2), np.zeros(2))
        assert predict_batch(model2, [[2.0, 2.0]]).tolist() == [2]

    def test_all_zero_model_predicts_last_class(self):
        model = LinearModel(np.zeros((4, 3)), np.zeros(4))
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (10, 3))
        np.testing.assert_array_equal(predict_batch(model, X), np.full(10, 4))


def reference_scores(model, X):
    """The forward pass written on 2-d arrays, one layer at a time: the
    reference of the stacked forward pass behind model.scores."""
    ws = [model.weights] if isinstance(model, LinearModel) else model.weights
    bs = [model.biases] if isinstance(model, LinearModel) else model.biases
    out = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for i, (w, b) in enumerate(zip(ws, bs)):
        out = out @ w.T + b
        if i < len(ws) - 1:
            out = np.maximum(out, 0.0)
    return out


class TestScores:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_scores_equal_the_2d_reference(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 25))
            if kind == "linear":
                model = LinearModel(rng.normal(0, 1, (n, d)),
                                    rng.normal(0, 1, n))
            else:
                widths = [d, *rng.integers(1, 16, int(rng.integers(1, 3))), n]
                model = MlpModel.init_random(widths, int(rng.integers(1000)))
                model.biases = [rng.normal(0, 0.5, b.shape)
                                for b in model.biases]
            assert (model.n, model.d) == (n, d)
            X = rng.normal(0, 3, (int(rng.integers(1, 3000)), d))
            assert np.array_equal(model.scores(X), reference_scores(model, X))
            x = X[0]
            assert model.scores(x).shape == (n,)
            assert np.array_equal(model.scores(x),
                                  reference_scores(model, x)[0])
            assert np.array_equal(model.scores(x.tolist()),
                                  reference_scores(model, x)[0])


def solo(model, data, spec, cfg):
    """One run as a stack of one: (model, history), or its
    TrainingDiverged."""
    (outcome,) = train_lockstep([model], data, spec, [cfg])
    return outcome


class TestTrain:
    def test_zero_lr_leaves_model_unchanged(self):
        data = separable_blobs()
        model = LinearModel.init_random(2, 2, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=16, lr0=0.0, momentum=0.9,
                          weight_decay=0.1, seed=0)
        trained, history = solo(model, data, LossSpec("CE"), cfg)
        np.testing.assert_array_equal(trained.weights, model.weights)
        assert history[0] == pytest.approx(history[-1])

    def test_single_step_is_plain_gradient_descent(self):
        data = separable_blobs(counts=(1, 1))
        model = LinearModel.init_random(2, 2, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=2, lr0=0.05, momentum=0.0,
                          weight_decay=0.0, seed=0, schedule="constant")
        trained, _ = solo(model, data, LossSpec("CE"), cfg)
        stats = data.stats()
        grad_w = np.zeros_like(model.weights)
        for x, y in zip(data.features, data.labels):
            g = eval_grad(LossSpec("CE"), model.scores(x), int(y), stats)
            grad_w += np.outer(g, x)
        grad_w /= data.m
        np.testing.assert_allclose(trained.weights,
                                   model.weights - 0.05 * grad_w, atol=1e-12)

    def test_separable_blobs_reach_zero_training_error(self):
        data = separable_blobs()
        model = LinearModel.init_random(2, 2, seed=3)
        cfg = TrainConfig(epochs=50, batch_size=16, lr0=0.5, momentum=0.9,
                          seed=1)
        trained, history = solo(model, data, LossSpec("CE"), cfg)
        preds = predict_batch(trained, data.features)
        assert np.mean(preds != data.labels) == 0.0
        assert history[-1] < history[0]

    def test_bitwise_determinism(self):
        data = separable_blobs()
        model = LinearModel.init_random(2, 2, seed=4)
        cfg = TrainConfig(epochs=5, batch_size=8, lr0=0.1, momentum=0.9,
                          weight_decay=1e-3, seed=9)
        a, ha = solo(model, data, LossSpec("GLA", q=0.3), cfg)
        b, hb = solo(model, data, LossSpec("GLA", q=0.3), cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        assert ha == hb

    def test_norm_projection_enforced_every_step(self):
        data = separable_blobs()
        bound = 0.3
        model = LinearModel.init_random(2, 2, seed=5, norm_bound=bound)
        cfg = TrainConfig(epochs=5, batch_size=16, lr0=1.0, momentum=0.9, seed=2)
        trained, _ = solo(model, data, LossSpec("WCE"), cfg)
        norms = np.linalg.norm(trained.weights, axis=1)
        assert np.all(norms <= bound + 1e-12)

    def test_tiny_lr_history_stays_at_initial_loss(self):
        data = separable_blobs()
        model = LinearModel.init_random(2, 2, seed=6)
        base = TrainConfig(epochs=2, batch_size=16, lr0=0.0, seed=3)
        _, h0 = solo(model, data, LossSpec("CE"), base)
        tiny = TrainConfig(epochs=2, batch_size=16, lr0=1e-9, seed=3)
        _, h1 = solo(model, data, LossSpec("CE"), tiny)
        assert h1[-1] == pytest.approx(h0[0], rel=1e-6)

    def test_epoch_shuffle_visits_exactly_the_dataset(self, monkeypatch):
        # Identity-matrix scores expose each visited example's feature
        # vector; with lr 0 the multiset per epoch must equal the data.
        data = separable_blobs(counts=(13, 7))
        visited = []
        import imbloss.trainer as tr
        original = tr.batch_loss_and_grad

        def spy(spec, scores, labels, *args, **kwargs):
            # class-major (n, 1, B) scores, one row per example
            visited.append(scores.reshape(len(scores), -1).T.copy())
            return original(spec, scores, labels, *args, **kwargs)

        monkeypatch.setattr(tr, "batch_loss_and_grad", spy)
        model = LinearModel(np.eye(2), np.zeros(2))
        cfg = TrainConfig(epochs=2, batch_size=6, lr0=0.0, seed=4)
        solo(model, data, LossSpec("CE"), cfg)
        per_epoch = np.split(np.concatenate(visited), 2)
        expected = sorted(map(tuple, data.features))
        for epoch_scores in per_epoch:
            # scores == features because the model is the identity
            assert sorted(map(tuple, epoch_scores)) == expected

    def test_epoch_shuffle_is_a_permutation(self):
        # Train on features equal to distinct ids and verify (via the
        # recorded loss) batches come from the same multiset every epoch:
        # run one epoch twice with the same seed and compare histories.
        data = separable_blobs(counts=(9, 9))
        model = LinearModel.init_random(2, 2, seed=8)
        cfg = TrainConfig(epochs=1, batch_size=4, lr0=0.0, seed=5)
        _, h1 = solo(model, data, LossSpec("CE"), cfg)
        cfg2 = TrainConfig(epochs=1, batch_size=18, lr0=0.0, seed=6)
        _, h2 = solo(model, data, LossSpec("CE"), cfg2)
        # zero lr: epoch mean equals the full-data mean regardless of
        # batching or shuffle order
        assert h1[0] == pytest.approx(h2[0], rel=1e-12)

    def test_divergence_returns_a_diagnostic(self):
        data = separable_blobs()
        model = LinearModel.init_random(2, 2, seed=9)
        model.weights *= 1e308  # score overflow on the first forward pass
        cfg = TrainConfig(epochs=1, batch_size=16, lr0=0.1, seed=7)
        outcome = solo(model, data, LossSpec("CE"), cfg)
        assert isinstance(outcome, TrainingDiverged)
        assert str(outcome) == ("non-finite scores at epoch 0, step 0 "
                                "(family=CE, lr=0.1)")

    def test_mlp_trains_and_is_deterministic(self):
        data = separable_blobs()
        model = MlpModel.init_random([2, 16, 2], seed=10)
        cfg = TrainConfig(epochs=30, batch_size=16, lr0=0.2, momentum=0.9,
                          seed=8)
        a, _ = solo(model, data, LossSpec("CE"), cfg)
        b, _ = solo(model, data, LossSpec("CE"), cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        preds = predict_batch(a, data.features)
        assert np.mean(preds != data.labels) == 0.0


def imbalanced_mixture():
    # 63 examples: batches of 16 leave a last batch of 15.
    means = np.random.default_rng(0).normal(0.0, 1.5, (3, 4))
    return gaussian_mixture(3, 4, [40, 17, 6], means, np.ones(3), 1)


def own_mixtures(count):
    """One 63 x 4, 3-class dataset per run, each with its own class counts;
    the first is imbalanced_mixture(). At eq_lambda = 0.2 EQUAL gates
    class 3, class 1, no class, classes 1 and 3, then class 3."""
    means = np.random.default_rng(0).normal(0.0, 1.5, (3, 4))
    counts = [(40, 17, 6), (8, 40, 15), (21, 21, 21), (12, 45, 6),
              (30, 25, 8)]
    return [gaussian_mixture(3, 4, list(c), means, np.ones(3), seed)
            for seed, c in enumerate(counts[:count], 1)]


def lockstep_spec(family, stats):
    params = {
        "CE": {}, "WCE": {}, "LA": {"tau": 1.5},
        "EQUAL": {"eq_p": 0.5, "eq_lambda": 0.2},  # class 3 is rare
        "CB": {"gamma": 0.99}, "FOCAL": {"gamma": 2.0}, "LDAM": {"cap_c": 0.5},
        "GCE": {"q": 0.3}, "GLA": {"q": 0.5},
        "GCA": {"q": 0.3, "margins": tuple(default_gca_margins(stats))},
        "CSMAX": {"rho_margin": 1.0, "psi_tau": 1.0},
    }[family]
    return LossSpec(family, **params)


def assert_same_outcome(got, want):
    if isinstance(want, TrainingDiverged):
        assert isinstance(got, TrainingDiverged)
        assert str(got) == str(want)
        return
    (got_model, got_history), (want_model, want_history) = got, want
    assert got_history == want_history
    assert all(type(v) is float for v in got_history)
    # to_dict lists every parameter as Python floats: == is bit equality
    assert got_model.to_dict() == want_model.to_dict()


def assert_lockstep_matches_solo(models, data, spec, cfgs):
    """data is one shared Dataset or a list of one per model, and spec one
    shared LossSpec or a list of one per model."""
    outcomes = train_lockstep(models, data, spec, cfgs)
    assert len(outcomes) == len(models)
    own = data if isinstance(data, list) else [data] * len(models)
    specs = spec if isinstance(spec, list) else [spec] * len(models)
    for model, x, s, cfg, outcome in zip(models, own, specs, cfgs, outcomes):
        assert_same_outcome(outcome, solo(model, x, s, cfg))
    return outcomes


def seed_configs(seeds=(3, 4, 5, 6), **kwargs):
    base = dict(epochs=3, batch_size=16, lr0=0.2, momentum=0.9)
    base.update(kwargs)
    return [TrainConfig(seed=seed, **base) for seed in seeds]


def saturated_gca_problem():
    """The README sweep's shape: a 10-class long tail of 1242 rows in 20
    dimensions (19 batches of 64 and a last one of 26), and its cube-root
    GCA margins, 0.03 to 0.2, which blow the scores up so that the
    softmax saturates."""
    n, d = 10, 20
    means = 0.8 * np.random.default_rng(1).standard_normal((n, d))
    data = gaussian_mixture(n, d, longtail_counts(n, 500, 100), means,
                            np.ones(n), 2)
    return data, default_gca_margins(data.stats())


def reference_train(model, data, spec, cfg):
    """Per-run SGD written out on 2-d arrays: the loop the lockstep trainer
    must reproduce bit for bit at R = 1."""
    model = model.copy()
    linear = isinstance(model, LinearModel)
    ws = [model.weights] if linear else model.weights
    bs = [model.biases] if linear else model.biases
    params = ws + (bs if model.use_bias else [])
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    stats = data.stats()
    per_epoch = -(-data.m // cfg.batch_size)
    total, step, history = cfg.epochs * per_epoch, 0, []
    for _ in range(cfg.epochs):
        order = rng.permutation(data.m)
        loss_sum = 0.0
        for b in range(per_epoch):
            batch = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            X, y = data.features[batch], data.labels[batch]
            lr = (cosine_lr(step, total, cfg.lr0)
                  if cfg.schedule == "cosine" else cfg.lr0)
            for p, v in zip(params, velocity):
                p += cfg.momentum * v
            acts = [X]
            for i, (w, bias) in enumerate(zip(ws, bs)):
                z = acts[-1] @ w.T + bias
                acts.append(z if i == len(ws) - 1 else np.maximum(z, 0.0))
            values, dscores = batch_loss_and_grad(spec, acts[-1], y, stats,
                                                  rng=rng)
            loss_sum += float(values.sum())
            delta, wgrads, bgrads = dscores / len(batch), [], []
            for i in reversed(range(len(ws))):
                bgrads.insert(0, delta.sum(axis=0))
                wgrads.insert(0, delta.T @ acts[i])
                if i > 0:
                    delta = (delta @ ws[i]) * (acts[i] > 0)
            grads = wgrads + (bgrads if model.use_bias else [])
            for i, (p, v, g) in enumerate(zip(params, velocity, grads)):
                v_new = cfg.momentum * v - lr * g
                p += v_new - cfg.momentum * v
                v[...] = v_new
                if i < len(ws) and cfg.weight_decay > 0.0:
                    p *= 1.0 - lr * cfg.weight_decay
            if linear and model.norm_bound is not None:
                bound = model.norm_bound
                norms = np.linalg.norm(model.weights, axis=1)
                over = norms > bound
                model.weights[over] *= (bound / norms[over])[:, None]
            step += 1
        history.append(loss_sum / data.m)
    return model, history


class TestLockstep:
    @pytest.mark.parametrize("family", [
        "CE", "WCE", "LA", "EQUAL", "CB", "FOCAL", "LDAM",
        "GCE", "GLA", "GCA", "CSMAX"])
    def test_every_family_matches_solo_runs(self, family):
        # solo runs are stacks of one, so the 2-d reference loop is what
        # ties each family's training to the loss's LossSpec form
        data = imbalanced_mixture()
        spec = lockstep_spec(family, data.stats())
        cfgs = seed_configs()
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        for model, cfg, outcome in zip(models, cfgs, outcomes):
            assert_same_outcome(outcome,
                                reference_train(model, data, spec, cfg))

    @pytest.mark.parametrize("make, overrides", [
        (lambda s: LinearModel.init_random(3, 4, s, norm_bound=0.4), {}),
        (lambda s: LinearModel.init_random(3, 4, s, use_bias=False), {}),
        (lambda s: MlpModel.init_random([4, 8, 5, 3], s), {}),
        (lambda s: LinearModel.init_random(3, 4, s, norm_bound=0.4),
         {"weight_decay": 1e-2, "schedule": "constant", "batch_size": 10}),
        (lambda s: MlpModel.init_random([4, 6, 3], s),
         {"weight_decay": 1e-2, "schedule": "constant"}),
        (lambda s: MlpModel.init_random([4, 1, 3], s), {}),
    ], ids=["norm-bound", "no-bias", "mlp", "linear-decay-constant",
            "mlp-decay-constant", "mlp-width-1"])
    @pytest.mark.parametrize("family", ["WCE", "EQUAL"])
    def test_models_and_schedules_match_solo_runs(self, make, overrides,
                                                  family):
        data = imbalanced_mixture()
        spec = lockstep_spec(family, data.stats())
        cfgs = seed_configs(**overrides)
        models = [make(c.seed) for c in cfgs]
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        for model, cfg, (trained, history) in zip(models, cfgs, outcomes):
            want_model, want_history = reference_train(model, data, spec, cfg)
            assert history == want_history
            assert trained.to_dict() == want_model.to_dict()
        if models[0].norm_bound is not None:
            for trained, _ in outcomes:
                norms = np.linalg.norm(trained.weights, axis=1)
                assert np.all(norms <= 0.4 + 1e-12)
        if not models[0].use_bias:
            assert all(not np.any(trained.biases) for trained, _ in outcomes)

    def test_mixed_families_match_solo_runs(self):
        # any families may share a stack, CSMAX's blocks among the others
        data = imbalanced_mixture()
        specs = [LossSpec("CE"),
                 LossSpec("CSMAX", rho_margin=1.0, psi_tau=1.0),
                 lockstep_spec("EQUAL", data.stats()),
                 LossSpec("CSMAX", rho_margin=0.5, psi_tau=2.0),
                 LossSpec("FOCAL", gamma=1.0), LossSpec("FOCAL", gamma=2.0)]
        cfgs = seed_configs(seeds=range(len(specs)))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        outcomes = assert_lockstep_matches_solo(models, data, specs, cfgs)
        assert all(isinstance(outcome, tuple) for outcome in outcomes)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_feature_matches_solo_runs(self, n):
        # At d = 1 a weight gradient is numpy's matrix-vector product,
        # whose BLAS sum order can follow the stride between the rows of
        # the scores' gradient: every run of a stack must see its rows n
        # apart, as a solo run does.
        means = np.arange(n, dtype=np.float64)[:, None]
        data = gaussian_mixture(n, 1, [30, 20, 13, 9, 7][:n], means,
                                np.ones(n), 1)
        spec = LossSpec("WCE")
        cfgs = seed_configs()
        models = [LinearModel.init_random(n, 1, c.seed) for c in cfgs]
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        for model, cfg, outcome in zip(models, cfgs, outcomes):
            assert_same_outcome(outcome,
                                reference_train(model, data, spec, cfg))

    def test_diverged_runs_leave_the_stack_alone(self):
        data = imbalanced_mixture()
        spec = lockstep_spec("CSMAX", data.stats())
        cfgs = seed_configs(seeds=(0, 1, 2, 3, 4))
        # Huge finite weights give a non-finite loss, early or after a few
        # steps depending on the shuffle; infinite ones non-finite scores.
        scales = (1.0, 3e307, 1.0, np.inf, 9e307)
        models = []
        for cfg, scale in zip(cfgs, scales):
            model = LinearModel.init_random(3, 4, cfg.seed)
            model.weights *= scale
            models.append(model)
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        diverged = [str(o) for o in outcomes
                    if isinstance(o, TrainingDiverged)]
        assert len(diverged) == 3
        assert any("non-finite scores" in msg for msg in diverged)
        assert any("non-finite loss" in msg for msg in diverged)
        assert not isinstance(outcomes[0], TrainingDiverged)
        assert not isinstance(outcomes[2], TrainingDiverged)

    @pytest.mark.parametrize("family", [
        "CE", "WCE", "LA", "EQUAL", "CB", "FOCAL", "LDAM",
        "GCE", "GLA", "GCA", "CSMAX"])
    def test_own_datasets_match_solo_runs(self, family):
        # LDAM, CB, LA, GLA, WCE, GCA and CSMAX read each run's own counts
        # or priors, and EQUAL its own gates; the last batch is shorter.
        cfgs = seed_configs(seeds=(3, 4, 5, 6, 7))
        data = own_mixtures(len(cfgs))
        spec = lockstep_spec(family, data[0].stats())
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        assert_lockstep_matches_solo(models, data, spec, cfgs)

    @pytest.mark.parametrize("make", [
        lambda s: LinearModel.init_random(3, 4, s, norm_bound=0.4,
                                          use_bias=False),
        lambda s: MlpModel.init_random([4, 8, 5, 3], s),
    ], ids=["norm-bound", "mlp"])
    @pytest.mark.parametrize("family", ["WCE", "EQUAL"])
    def test_own_datasets_models_match_solo_runs(self, make, family):
        cfgs = seed_configs(weight_decay=1e-2)
        data = own_mixtures(len(cfgs))
        spec = lockstep_spec(family, data[0].stats())
        assert_lockstep_matches_solo([make(c.seed) for c in cfgs], data,
                                     spec, cfgs)

    def test_own_datasets_diverged_runs_leave_the_stack_alone(self):
        # Runs 1 and 4 leave at the first step, run 3 at the third; the
        # runs that stay read their own stats after each leave.
        cfgs = seed_configs(seeds=(0, 1, 2, 3, 4))
        data = own_mixtures(len(cfgs))
        spec = lockstep_spec("CSMAX", data[0].stats())
        models = []
        for cfg, scale in zip(cfgs, (1.0, 3e307, 1.0, 2e307, np.inf)):
            model = LinearModel.init_random(3, 4, cfg.seed)
            model.weights *= scale
            models.append(model)
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        diverged = [str(o) for o in outcomes
                    if isinstance(o, TrainingDiverged)]
        assert len(diverged) == 3
        assert any("non-finite scores" in msg for msg in diverged)
        assert "non-finite loss at epoch 0, step 2 " in str(outcomes[3])
        assert not isinstance(outcomes[0], TrainingDiverged)
        assert not isinstance(outcomes[2], TrainingDiverged)

    def test_rejects_datasets_that_differ_in_shape_or_count(self):
        spec = LossSpec("WCE")
        cfgs = seed_configs(seeds=(0, 1))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        means = np.zeros((3, 4))
        good = own_mixtures(2)
        for other, what in [
                (gaussian_mixture(3, 4, [40, 17, 7], means, np.ones(3), 1),
                 "m"),
                (gaussian_mixture(4, 4, [40, 17, 3, 3], np.zeros((4, 4)),
                                  np.ones(4), 1), "n"),
                (gaussian_mixture(3, 5, [40, 17, 6], np.zeros((3, 5)),
                                  np.ones(3), 1), "d")]:
            with pytest.raises(ValueError, match="share m, n and d"):
                train_lockstep(models, [good[0], other], spec, cfgs)
        for count in (1, 3):
            with pytest.raises(ValueError, match="one dataset per model"):
                train_lockstep(models, own_mixtures(count), spec, cfgs)

    @pytest.mark.parametrize("diverged", [False, True])
    @pytest.mark.parametrize("family", ["GCE", "GLA", "GCA"])
    def test_mixed_q_stack_matches_solo_runs(self, family, diverged):
        # The loss reads one q per row; a run that leaves takes its q with
        # it. Own datasets give each run its own stats as well.
        cfgs = seed_configs(seeds=(3, 4, 5, 6, 7))
        base = lockstep_spec(family, imbalanced_mixture().stats())
        specs = [replace(base, q=q) for q in (0.0, 0.3, 0.5, 0.0, 0.7)]
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        if diverged:  # non-finite scores at the first step
            models[1].weights *= np.inf
        for data in (imbalanced_mixture(), own_mixtures(len(cfgs))):
            outcomes = assert_lockstep_matches_solo(models, data, specs, cfgs)
            assert isinstance(outcomes[1], TrainingDiverged) == diverged
            assert not any(isinstance(o, TrainingDiverged)
                           for o in outcomes[2:])

    @pytest.mark.parametrize("diverged", [False, True])
    def test_mixed_family_stack_matches_solo_runs(self, diverged):
        # one run of every Psi family, GCE, GLA and GCA at two q each; a
        # run that leaves takes its row of the loss table with it, and
        # its message names its own family. Own datasets give each run
        # its own stats as well.
        families = ["CE", "WCE", "LA", "CB", "LDAM", "GCE", "GLA", "GCA",
                    "GCE", "GLA", "GCA"]
        cfgs = seed_configs(seeds=range(3, 3 + len(families)))
        specs = [lockstep_spec(f, imbalanced_mixture().stats())
                 for f in families]
        specs[-3:] = [replace(s, q=0.0) for s in specs[-3:]]
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        if diverged:  # non-finite scores at the first step
            models[4].weights *= np.inf
            models[7].weights *= 3e307
        for data in (imbalanced_mixture(), own_mixtures(5) * 2 + [
                imbalanced_mixture()]):
            outcomes = assert_lockstep_matches_solo(models, data, specs,
                                                    cfgs)
            for run in (4, 7):
                assert isinstance(outcomes[run], TrainingDiverged) == diverged
            if diverged:
                assert "(family=LDAM," in str(outcomes[4])
                assert "(family=GCA," in str(outcomes[7])
            assert sum(isinstance(o, TrainingDiverged)
                       for o in outcomes) == 2 * diverged

    @pytest.mark.parametrize("own", [False, True])
    def test_focal_and_equal_share_a_stack_with_other_families(self, own):
        # CE, FOCAL, two EQUAL points and GCA in one stack: each EQUAL run
        # draws its gates from its own generator, and the other runs draw
        # none from theirs, which also draw their epoch permutations
        cfgs = seed_configs(seeds=(3, 4, 5, 6, 7))
        data = own_mixtures(len(cfgs)) if own else imbalanced_mixture()
        specs = [LossSpec("CE"), LossSpec("FOCAL", gamma=2.0),
                 LossSpec("EQUAL", eq_p=0.5, eq_lambda=0.2),
                 LossSpec("EQUAL", eq_p=0.9, eq_lambda=0.5),
                 lockstep_spec("GCA", imbalanced_mixture().stats())]
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        outcomes = assert_lockstep_matches_solo(models, data, specs, cfgs)
        assert not any(isinstance(o, TrainingDiverged) for o in outcomes)

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # scores / 0.01
    def test_overflowing_adjusted_scores_leave_the_stack(self):
        # Finite scores that GCA's margins divide past the float range give
        # a non-finite loss, not an error: that run leaves, the others go on.
        data = imbalanced_mixture()
        spec = LossSpec("GCA", q=0.3, margins=(0.01, 0.01, 0.01))
        cfgs = seed_configs(seeds=(0, 1, 2))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        models[1].weights *= 5e306
        scores = models[1].scores(data.features)
        assert np.isfinite(scores).all()
        assert not np.isfinite(scores / 0.01).all()
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        assert "non-finite loss at epoch 0, step 0 " in str(outcomes[1])
        assert not isinstance(outcomes[0], TrainingDiverged)
        assert not isinstance(outcomes[2], TrainingDiverged)

    def test_scores_and_loss_diverging_at_one_step_leave_together(self):
        # At step 0 run 1's scores are finite but GCA's margins divide them
        # past the float range, and run 2's scores are not finite: one
        # divergence check after the loss call tells the two apart.
        data = imbalanced_mixture()
        spec = LossSpec("GCA", q=0.3, margins=(0.01, 0.01, 0.01))
        cfgs = seed_configs(seeds=(0, 1, 2, 3))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        models[1].weights *= 5e306
        models[2].weights *= np.inf
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        assert [str(outcomes[run]) for run in (1, 2)] == [
            f"non-finite {what} at epoch 0, step 0 (family=GCA, lr=0.2)"
            for what in ("loss", "scores")]
        assert not isinstance(outcomes[0], TrainingDiverged)
        assert not isinstance(outcomes[3], TrainingDiverged)

    def test_minus_inf_label_score_leaves_without_a_warning(self):
        # Run 1 scores class 1 at -inf: where EQUAL gates classes 2 and 3
        # out of a class-1 row, its log-sum-exp shift is -inf and
        # -inf - -inf is invalid, a warning the loop silences with the
        # others.
        data = imbalanced_mixture()
        spec = LossSpec("EQUAL", eq_p=0.9, eq_lambda=0.3)
        cfgs = seed_configs(seeds=(0, 1, 2))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        models[1].weights[0] = 0.0
        models[1].biases[0] = -np.inf
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        assert str(outcomes[1]).startswith(
            "non-finite scores at epoch 0, step 0 ")
        assert not isinstance(outcomes[0], TrainingDiverged)
        assert not isinstance(outcomes[2], TrainingDiverged)

    def test_equal_gated_class_far_above_the_label_is_not_divergence(self):
        # Run 1 scores class 1 near -800. Where EQUAL gates classes 2 and 3
        # out of a class-1 row, only the label remains and the loss is 0;
        # a shift by the max over all classes made it -inf, and the run
        # was recorded as diverged.
        data = imbalanced_mixture()
        spec = LossSpec("EQUAL", eq_p=0.9, eq_lambda=0.3)
        cfgs = seed_configs(seeds=(0, 1))
        models = [LinearModel.init_random(3, 4, c.seed) for c in cfgs]
        models[1].biases[0] = -800.0
        outcomes = assert_lockstep_matches_solo(models, data, spec, cfgs)
        assert not any(isinstance(o, TrainingDiverged) for o in outcomes)

    def test_rejects_stacks_that_differ_beyond_the_seed(self):
        data = imbalanced_mixture()
        spec = LossSpec("CE")
        models = [LinearModel.init_random(3, 4, s) for s in (0, 1)]
        with pytest.raises(ValueError, match="only in seed"):
            train_lockstep(models, data, spec,
                           [TrainConfig(seed=0), TrainConfig(seed=1, lr0=0.5)])
        mixed = [models[0], LinearModel.init_random(3, 4, 1, norm_bound=1.0)]
        with pytest.raises(ValueError, match="one architecture"):
            train_lockstep(mixed, data, spec, seed_configs(seeds=(0, 1)))
        with pytest.raises(ValueError, match="one config per model"):
            train_lockstep(models, data, spec, seed_configs(seeds=(0,)))
        cfgs = seed_configs(seeds=(0, 1))
        with pytest.raises(ValueError, match="one loss spec per model"):
            train_lockstep(models, data, [LossSpec("CE")], cfgs)

    def test_saturated_gca_stack_bytes_are_pinned(self, monkeypatch):
        # GCA at three q's x two seeds on saturated_gca_problem(); most
        # loss rows' log-sum-exp is exactly 0.0 and the softmax
        # saturates; some rows are not saturated.
        data, rho = saturated_gca_problem()
        n, d = data.n, data.d
        specs = [LossSpec("GCA", q=q, margins=tuple(rho))
                 for q in (0.0, 0.3, 0.5) for _ in range(2)]
        cfgs = seed_configs(seeds=(0, 1) * 3, epochs=10, batch_size=64,
                            lr0=0.1)
        models = [LinearModel.init_random(n, d, c.seed) for c in cfgs]
        rows = []

        def spy(table, scores, labels, **kwargs):
            # class-major (n, R, B) scores, one (m, n) row per example
            adjusted = scores.reshape(n, -1).T / rho[labels - 1][:, None]
            adjusted -= adjusted.max(axis=1, keepdims=True)
            rows.append(np.log(np.exp(adjusted).sum(axis=1)) == 0.0)
            return batch_loss_and_grad(table, scores, labels, **kwargs)

        monkeypatch.setattr("imbloss.trainer.batch_loss_and_grad", spy)
        outcomes = train_lockstep(models, data, specs, cfgs)
        saturated = np.concatenate(rows)
        assert saturated.size == 6 * 10 * data.m
        assert 0.75 < saturated.mean() < 0.95
        digest = hashlib.sha256()
        for model, history in outcomes:
            for array in (model.weights, model.biases, np.array(history)):
                digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "d0482eecb5e22a735dd424856422971c652709b98435ccbd87d3c8c9623a9d7e")

    @pytest.mark.parametrize("make", [
        lambda s: LinearModel.init_random(10, 20, s),
        lambda s: MlpModel.init_random([20, 12, 10], s),
    ], ids=["linear", "mlp"])
    def test_saturated_gca_stack_matches_the_reference(self, make,
                                                       monkeypatch):
        # Late steps of a saturated GCA stack give gradient entries below
        # the smallest normal float; each run must still be bit for bit
        # the 2-d reference loop's.
        data, rho = saturated_gca_problem()
        specs = [LossSpec("GCA", q=q, margins=tuple(rho))
                 for q in (0.0, 0.5)]
        cfgs = seed_configs(seeds=(0, 1), epochs=10, batch_size=64,
                            lr0=0.1)
        subnormal = []

        def spy(*args, **kwargs):
            values, grads = batch_loss_and_grad(*args, **kwargs)
            tiny = np.abs(grads) < np.finfo(np.float64).tiny
            subnormal.append(np.count_nonzero(tiny & (grads != 0.0)))
            return values, grads

        monkeypatch.setattr("imbloss.trainer.batch_loss_and_grad", spy)
        models = [make(c.seed) for c in cfgs]
        outcomes = train_lockstep(models, data, specs, cfgs)
        assert sum(subnormal) > 0
        for model, spec, cfg, outcome in zip(models, specs, cfgs, outcomes):
            assert_same_outcome(outcome,
                                reference_train(model, data, spec, cfg))


@pytest.mark.parametrize("size", [64, 26])  # the sweep's full and last batch
@pytest.mark.parametrize("widths", [(20, 10), (20, 16, 12, 10)],
                         ids=["linear", "mlp"])
def test_bias_gradients_add_the_samples_in_order(widths, size):
    # A solo run's bias gradient adds its batch's rows one by one; a
    # pairwise sum, as over the contiguous last axis, rounds differently.
    rng = np.random.default_rng(36)
    runs = 15
    weights = [rng.normal(0, 1, (runs, out, inp))
               for inp, out in zip(widths[:-1], widths[1:])]
    biases = [rng.normal(0, 1, (runs, 1, out)) for out in widths[1:]]
    acts = _forward(weights, biases, rng.normal(0, 1, (runs, size, widths[0])))
    delta = rng.normal(0, 1, (runs, size, widths[-1])) / size
    grads = _backward(weights, acts, delta, True)
    for i in reversed(range(len(weights))):
        total = delta[:, 0]
        for b in range(1, size):
            total = total + delta[:, b]
        assert np.array_equal(grads[len(weights) + i], total[:, None])
        delta = np.matmul(delta, weights[i]) * (acts[i] > 0)


class TestCheckpoint:
    def test_linear_round_trip_exact(self, tmp_path):
        model = LinearModel.init_random(3, 4, seed=11, norm_bound=2.5)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.biases, model.biases)
        assert back.norm_bound == model.norm_bound

    def test_mlp_round_trip_exact(self, tmp_path):
        model = MlpModel.init_random([4, 8, 3], seed=12)
        path = tmp_path / "mlp.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        for wa, wb in zip(model.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)


class TestCopy:
    def test_a_copy_keeps_the_bits_of_a_row_at_its_bound(self):
        # scaling a row onto its bound can leave it above the bound by
        # rounding, so a copy that projected again would move it
        rng = np.random.default_rng(0)
        for _ in range(2000):
            model = LinearModel(3 * rng.standard_normal((3, 4)), np.zeros(3),
                                norm_bound=1.0)
            assert model.copy().weights.tobytes() == model.weights.tobytes()

    @pytest.mark.parametrize("model", [
        LinearModel.init_random(3, 4, seed=1, norm_bound=0.4, use_bias=False),
        MlpModel.init_random([4, 5, 3], seed=1)], ids=["linear", "mlp"])
    def test_a_copy_owns_its_arrays(self, model):
        copy = model.copy()
        assert type(copy) is type(model)
        assert (copy.norm_bound, copy.use_bias) == (model.norm_bound,
                                                    model.use_bias)
        for (w, b), (cw, cb) in zip(model._layers(), copy._layers()):
            assert np.array_equal(cw, w) and np.array_equal(cb, b)
            cw += 1.0
            cb += 1.0
            assert not np.array_equal(cw, w) and not np.array_equal(cb, b)


class TestBestInClassSearch:
    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan, np.inf])
    def test_norm_bound_must_be_finite_and_positive(self, bound):
        with pytest.raises(ValueError, match="norm_bound"):
            BoundedLinearFamily(n=2, d=2, norm_bound=bound)
        if bound == np.inf:  # a model's infinite cap is no cap
            LinearModel(np.ones((2, 2)), np.zeros(2), norm_bound=bound)
        else:
            with pytest.raises(ValueError, match="norm_bound"):
                LinearModel(np.ones((2, 2)), np.zeros(2), norm_bound=bound)

    def test_smooth_objective_beats_random_models(self):
        data = separable_blobs(counts=(40, 40))
        family = BoundedLinearFamily(n=2, d=2, norm_bound=5.0)
        spec = LossSpec("CE")
        model, value = best_in_class_search(family, data, spec)
        rng = np.random.default_rng(1)
        X, labels, weights, stats = sample_problem(data)
        table = loss_table([(spec, stats)], data.n)
        for _ in range(10):
            probe = family.random_model(rng)
            probe_value, _ = _delta_objective(
                table, np.ascontiguousarray(X.T), labels, weights,
                probe.weights[0] - probe.weights[1])
            assert value <= probe_value + 1e-9

    def test_balanced_objective_on_separable_data_reaches_zero(self):
        data = separable_blobs(counts=(50, 10))
        family = BoundedLinearFamily(n=2, d=2, norm_bound=3.0)
        model, value = best_in_class_search(family, data, "balanced")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_constant_objective_returns_feasible_model(self):
        # CE on symmetric data is smooth; just verify the returned model
        # respects the norm bound.
        data = separable_blobs(counts=(20, 20))
        family = BoundedLinearFamily(n=2, d=2, norm_bound=0.7)
        model, _ = best_in_class_search(family, data, LossSpec("CE"))
        assert np.all(np.linalg.norm(model.weights, axis=1) <= 0.7 + 1e-12)

    def test_balanced_objective_needs_two_classes_in_two_dimensions(self):
        data = separable_blobs(counts=(5, 5, 5))
        family = BoundedLinearFamily(n=3, d=3, norm_bound=1.0)
        with pytest.raises(ValueError, match="n = 2 and d = 2"):
            best_in_class_search(family, data, "balanced")

    @pytest.mark.parametrize("n, d", [(3, 3), (2, 3)])
    def test_smooth_objective_needs_two_classes_in_the_data_dimension(
            self, n, d):
        data = separable_blobs(counts=(5,) * n)
        family = BoundedLinearFamily(n=n, d=d, norm_bound=1.0)
        with pytest.raises(ValueError, match="n = 2 and the data's d"):
            best_in_class_search(family, data, LossSpec("CE"))

    @pytest.mark.parametrize("variant", ["plain", "origin", "duplicates"])
    @pytest.mark.parametrize("seed", range(5))
    def test_balanced_sweep_is_the_best_arc(self, seed, variant):
        # Certificate: the balanced error is constant between the angles
        # where some point changes sides, so the minimum over the midpoints
        # of those arcs, each scored directly, is the exact optimum. Points
        # at x = 0 are class 2 in every direction, and the points of a
        # duplicated x change sides together.
        data = figure1_distribution(300, seed)
        if variant == "origin":
            data.features[:40] = 0.0
        if variant == "duplicates":
            data.features[1::2] = data.features[::2]
        X, labels, weights, stats = sample_problem(data)
        _, value = best_in_class_search(
            BoundedLinearFamily(n=2, d=2, norm_bound=1.0), data, "balanced")
        alpha = np.arctan2(X[:, 1], X[:, 0])
        breaks = np.sort(np.mod(np.concatenate([alpha - np.pi / 2,
                                                alpha + np.pi / 2]),
                                2 * np.pi))
        mids = 0.5 * (breaks + np.append(breaks[1:], breaks[0] + 2 * np.pi))
        best = np.inf
        for theta in mids:
            row = np.array([np.cos(theta), np.sin(theta)])
            model = LinearModel(np.stack([row, -row]), np.zeros(2),
                                use_bias=False)
            best = min(best, _weighted_balanced_error(
                model, X, labels, weights, stats.inv_priors))
        assert value == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        LossSpec("CE"), LossSpec("LA", tau=1.0),
        LossSpec("GCA", q=0.0, margins=(1.0, 1.0))], ids=["CE", "LA", "GCA"])
    @pytest.mark.parametrize("norm_bound", [100.0, 0.5],
                             ids=["interior", "binding"])
    def test_smooth_optimum_is_stationary(self, spec, norm_bound):
        # Certificate: these losses are convex in the weights, so a zero
        # projected-gradient residual w - P(w - grad) marks the optimum.
        data = figure1_distribution(2000, 1)
        family = BoundedLinearFamily(n=2, d=2, norm_bound=norm_bound)
        model, value = best_in_class_search(family, data, spec)
        X, labels, weights, stats = sample_problem(data)
        at, grad = _delta_objective(
            loss_table([(spec, stats)], data.n), np.ascontiguousarray(X.T),
            labels, weights, model.weights[0] - model.weights[1])
        assert at == value
        # the weight gradient: the loss depends on w_1 - w_2 only
        stepped = model.copy()
        stepped.weights -= np.stack([grad, -grad])
        stepped.project()
        assert np.linalg.norm(model.weights - stepped.weights) < 1e-6
        norms = np.linalg.norm(model.weights, axis=1)
        if norm_bound < 1.0:
            np.testing.assert_allclose(norms, norm_bound, rtol=1e-12)
        else:
            assert np.all(norms < 0.1 * norm_bound)

    @pytest.mark.parametrize("spec, norm_bound, descent_value", [
        (LossSpec("LA", tau=1.0), 1.0, 0.25660043454140935),
        (LossSpec("LA", tau=1.0), 0.5, 0.2965445923217496),
        (LossSpec("LA", tau=1.0), 0.25, 0.33163597021718444),
        (LossSpec("GLA", q=0.5), 0.25, 0.22605025913991272),
    ], ids=["LA-1", "LA-0.5", "LA-0.25", "GLA-0.25"])
    def test_binding_bound_on_the_criterion_7_sample(self, spec, norm_bound,
                                                     descent_value):
        # Criterion 7's sample at bounds that bind. The rows end on the
        # bound, the projected-gradient residual of
        # test_smooth_optimum_is_stationary vanishes, and the value is no
        # worse than the one the first-order projected descent reached.
        # GLA at q = 0.5 is not convex: at delta = 0 a Newton step on its
        # raw Hessian goes nowhere.
        data = figure1_distribution(50_000, 2)
        family = BoundedLinearFamily(n=2, d=2, norm_bound=norm_bound)
        model, value = best_in_class_search(family, data, spec)
        np.testing.assert_allclose(np.linalg.norm(model.weights, axis=1),
                                   norm_bound, rtol=0, atol=1e-12)
        _, dscores = batch_loss_and_grad(spec, model.scores(data.features),
                                         data.labels, data.stats())
        stepped = model.copy()
        stepped.weights -= dscores.T @ data.features / data.m
        stepped.project()
        assert np.linalg.norm(model.weights - stepped.weights) < 1e-6
        assert value <= descent_value + 1e-15

    def test_oracle_is_no_worse_than_the_restart_search(self):
        # The objective values of the 20-restart random search that wrote
        # the oracle fixture before the exact search replaced it.
        restart_values = {"balanced": 0.3134491036029508,
                          "gca": 0.822558410953453,
                          "la": 0.2412714489201594}
        with open(FIXTURES / "figure1_oracle.json") as fh:
            oracle = json.load(fh)
        for name, restart_value in restart_values.items():
            assert oracle[name]["objective_value"] <= restart_value + 1e-12


class TestBoundaryAngle:
    def test_horizontal_boundary(self):
        model = LinearModel(np.array([[0.0, 1.0], [0.0, -1.0]]), np.zeros(2),
                            use_bias=False)
        assert boundary_angle_degrees(model) == pytest.approx(0.0)

    def test_diagonal_boundary(self):
        model = LinearModel(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2),
                            use_bias=False)
        assert boundary_angle_degrees(model) == pytest.approx(45.0)

    def test_vertical_boundary(self):
        model = LinearModel(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2),
                            use_bias=False)
        assert boundary_angle_degrees(model) == pytest.approx(90.0)
