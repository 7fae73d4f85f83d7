"""Acceptance suite: one test per acceptance criterion, one printed
pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Several criteria train models or fuzz bounds at full
scale; the whole suite takes under a minute.

Criteria 4, 6, 7, 8 and 9 run the checks of ``imbloss verify`` through
the same ``imbloss.verify`` functions, each on its own sample and seed.

Criterion 7's logit-adjusted threshold is expected to fail: the
converged best-in-class boundary of the tau = 1 logit-adjusted loss on
the skewed two-dimensional sample tilts ~3.2 degrees from horizontal
(confirmed against an independent quadrature computation of the
population optimum), short of the required 5 degrees. The measured
angles are printed and the committed oracle fixture records them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from imbloss import verify
from imbloss.config import synthesize_splits
from imbloss.datagen import figure1_distribution
from imbloss.losses import (
    ClassStats,
    LossSpec,
    default_gca_margins,
    eval_grad,
    eval_loss,
)
from imbloss.metrics import balanced_error
from imbloss.numerics import finite_diff_gradient, gradient_rel_error
from imbloss.theory import (
    ConditionalPoint,
    bal_regret,
    bayes_balanced_label,
    bayes_la_label,
    random_conditional_point,
)
from imbloss.trainer import (
    LinearModel,
    TrainConfig,
    TrainingDiverged,
    train_lockstep,
)
from oracles import bal_regret_bruteforce

FIXTURES = Path(__file__).parent / "fixtures"


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


def random_family_spec(rng, family, n):
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


def test_criterion_1_gradient_correctness():
    families = ("CE", "WCE", "LA", "CB", "FOCAL", "LDAM", "GCE", "GLA",
                "GCA", "EQUAL", "CSMAX")
    worst = 0.0
    for fam_index, family in enumerate(families):
        rng = np.random.default_rng(1000 + fam_index)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 6))
            stats = ClassStats(rng.integers(1, 60, n))
            scores = rng.normal(0, 2, n)
            label = int(rng.integers(1, n + 1))
            spec = random_family_spec(rng, family, n)
            draws = ((rng.random(n) < 0.5).astype(float)
                     if family == "EQUAL" else None)
            if family == "CSMAX":
                top2 = np.sort(scores)[::-1]
                if top2[0] - top2[1] < 1e-3:  # stay away from max ties
                    continue
            grad = eval_grad(spec, scores, label, stats, equal_draws=draws)
            fd = finite_diff_gradient(
                lambda s: eval_loss(spec, s, label, stats, equal_draws=draws),
                scores)
            worst = max(worst, gradient_rel_error(grad, fd))
            checked += 1
    ok = worst < 1e-6
    assert report(1, "analytic gradients match finite differences", ok,
                  f"worst rel err {worst:.2e} over 100 inputs x {len(families)} families")


def test_criterion_2_identity_reductions():
    rng = np.random.default_rng(2)
    exact_la = exact_wce = True
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        stats = ClassStats(rng.integers(1, 60, n))
        scores = rng.normal(0, 3, n)
        label = int(rng.integers(1, n + 1))
        gla = eval_loss(LossSpec("GLA", q=0.0), scores, label, stats)
        la = eval_loss(LossSpec("LA", tau=1.0), scores, label, stats)
        exact_la &= gla == la
        gca = eval_loss(LossSpec("GCA", q=0.0, margins=(1.0,) * n),
                        scores, label, stats)
        wce = eval_loss(LossSpec("WCE"), scores, label, stats)
        exact_wce &= gca == wce
    ok = exact_la and exact_wce
    assert report(2, "GLA(q=0) == LA(tau=1) and GCA(q=0, unit margins) == WCE",
                  ok, "exact float equality, 1000 random inputs each")


def test_criterion_3_conditional_regret_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        point = random_conditional_point(rng, n, floor=0.03)
        if rng.random() < 0.3:
            size = int(rng.integers(1, n + 1))
            reachable = rng.choice(n, size=size, replace=False) + 1
            point = ConditionalPoint(point.cond, point.priors, reachable)
        predicted = int(rng.choice(point.reachable))
        diff = abs(bal_regret(point, predicted)
                   - bal_regret_bruteforce(point, predicted))
        worst = max(worst, diff)
    ok = worst <= 1e-12
    assert report(3, "prior-weighted conditional regret matches brute force",
                  ok, f"worst |diff| {worst:.2e} over 1000 points")


def test_criterion_4_pointwise_optimality_of_adjusted_family():
    points = verify.bayes_points(np.random.default_rng(4), 500)
    records = list(verify.bayes([(point, q) for q in (0.0, 0.3, 0.7)
                                 for point in points]))
    label_hits = sum(r["argmax_label"] == r["balanced_label"]
                     for r in records)
    worst_gap = max(abs(r["value"] - r["closed"]) for r in records)
    trials = len(records)
    ok = label_hits == trials and worst_gap <= 1e-10
    assert report(4, "minimized adjusted-family error picks the balanced label",
                  ok, f"{label_hits}/{trials} labels, worst objective gap "
                      f"{worst_gap:.2e}")


def test_criterion_5_stored_la_witness():
    with open(FIXTURES / "la_witness.json") as fh:
        fixture = json.load(fh)
    ok = True
    details = []
    for tau_key in ("0.5", "2.0"):
        entry = fixture[tau_key]
        point = ConditionalPoint(entry["cond"], entry["priors"])
        tau = float(tau_key)
        la = bayes_la_label(point, tau)
        bal = bayes_balanced_label(point)
        ok &= (la != bal and la == entry["la_label"]
               and bal == entry["balanced_label"])
        details.append(f"tau={tau_key}: la={la} vs balanced={bal}")
    assert report(5, "stored witness points separate LA from balanced labels",
                  ok, "; ".join(details))


def test_criterion_6_bound_fuzzing():
    worst = {"GLA": np.inf, "GCA": np.inf}
    for r in verify.bounds(np.random.default_rng(6), 10_000):
        worst[r["family"]] = min(worst[r["family"]], r["slack"])
    worst_gla, worst_gca = worst["GLA"], worst["GCA"]
    ok = worst_gla >= -1e-9 and worst_gca >= -1e-9
    assert report(6, "conditional-regret bounds hold on 10k fuzz trials "
                     "per family", ok,
                  f"worst slack gla {worst_gla:.3e}, gca {worst_gca:.3e}")


def test_criterion_7_bounded_family_counterexample():
    with open(FIXTURES / "figure1_oracle.json") as fh:
        oracle = json.load(fh)
    data = figure1_distribution(oracle["m"], seed=oracle["data_seed"])
    records, _ = verify.figure1_angles(data, oracle["norm_bound"])
    angles = {r["objective"].lower(): r["angle_degrees"] for r in records
              if r["check"] == "figure1_angle"}
    for name, angle in angles.items():
        # the committed oracle run is reproducible
        assert angle == pytest.approx(oracle[name]["angle_degrees"],
                                      abs=1e-9)
    ok = (angles["balanced"] <= 2.0 and angles["gca"] <= 2.0
          and angles["la"] >= 5.0)
    report(7, "bounded-family boundaries: balanced/GCA horizontal, LA tilted",
           ok, f"balanced {angles['balanced']:.2f} deg <= 2, "
               f"gca {angles['gca']:.2f} deg <= 2, "
               f"la {angles['la']:.2f} deg >= 5")
    assert angles["balanced"] <= 2.0
    assert angles["gca"] <= 2.0
    # Known-red assertion: the converged LA(tau=1) best-in-class boundary
    # tilts ~3.2 degrees (quadrature-verified population value 3.29), so
    # the pinned 5-degree threshold cannot be met; see the repo notes.
    assert angles["la"] >= 5.0


def test_criterion_8_ramp_log_inequality_grid():
    worst = verify.ramp_grid()["worst_slack"]
    ok = worst >= -1e-12
    assert report(8, "cost-weighted ramp is covered by the logistic bound "
                     "on the full grid", ok, f"worst slack {worst:.3e}")


def test_criterion_9_margin_bound_resamples():
    *_, rate = verify.margin_bound(np.random.default_rng(9), 100)
    holds = rate["holds"]
    ok = holds >= 85
    assert report(9, "margin generalization bound holds across resamples",
                  ok, f"{holds}/100 at delta=0.1")


def _table1_runs(profile):
    """Desk-scale analogue of the benchmark comparison (imbalance 100).

    Validation-selected q for the generalized families, matching the
    sweep protocol; returns mean test balanced error per method.
    """
    dataset = {
        "profile": profile, "n": 10, "d": 20, "m_max": 500,
        "imb_ratio": 100.0, "seed": 11, "test_m_max": 200,
        "val_fraction": 0.1, "minority_fraction": 0.5,
        "mean_scale": 0.8, "noise_scale": 1.0,
    }
    splits = synthesize_splits(dataset)
    train_set, val_set, test_set = (splits[k] for k in ("train", "val", "test"))
    stats = train_set.stats()
    margins = tuple(default_gca_margins(stats))
    seeds = range(5)

    def run_mean(spec):
        cfgs = [TrainConfig(epochs=200, batch_size=64, lr0=0.1, momentum=0.9,
                            weight_decay=0.0, seed=seed) for seed in seeds]
        models = [LinearModel.init_random(10, 20, seed) for seed in seeds]
        val_errs, test_errs = [], []
        for outcome in train_lockstep(models, train_set, spec, cfgs):
            if isinstance(outcome, TrainingDiverged):
                raise outcome
            trained, _ = outcome
            val_errs.append(balanced_error(trained, val_set))
            test_errs.append(balanced_error(trained, test_set))
        return float(np.mean(val_errs)), float(np.mean(test_errs))

    def grid_select(specs):
        results = [run_mean(spec) for spec in specs]
        best = int(np.argmin([v for v, _ in results]))
        return results[best][1]

    out = {
        "CE": run_mean(LossSpec("CE"))[1],
        "LA": run_mean(LossSpec("LA", tau=1.0))[1],
        "GLA": grid_select([LossSpec("GLA", q=q) for q in (0.0, 0.3)]),
        "GCA": grid_select([LossSpec("GCA", q=q, margins=margins)
                            for q in (0.0, 0.3)]),
    }
    return out


@pytest.mark.parametrize("profile", ["longtail", "step"])
def test_criterion_10_desk_scale_comparison(profile):
    means = _table1_runs(profile)
    slack = 0.02 * 10
    ok = (means["GLA"] < means["CE"] and means["GCA"] < means["CE"]
          and means["GLA"] < means["LA"] + slack
          and means["GCA"] < means["LA"] + slack)
    assert report(10, f"{profile} imbalance 100: adjusted families beat CE",
                  ok, "mean balanced error " + " ".join(
                      f"{k}={v:.3f}" for k, v in means.items()))


def test_criterion_11_train_command_determinism(tmp_path):
    from imbloss.cli import main

    config = tmp_path / "exp.ini"
    config.write_text(
        "[dataset]\n"
        "profile = longtail\n"
        "n = 3\nd = 4\nm_max = 60\nimb_ratio = 10\nseed = 5\n"
        "test_m_max = 30\nmean_scale = 2.0\n"
        "[loss]\nfamily = GLA\nq = 0.0, 0.3\n"
        "[train]\nepochs = 5\nbatch_size = 16\nlr0 = 0.1\nseed = 1\n"
        "repeats = 2\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(config), "--out", str(out), "synth"]) == 0
        assert main(["--config", str(config), "--out", str(out), "train"]) == 0
        outs.append(sorted((out / "runs").rglob("metrics.json")))
    assert len(outs[0]) == 4
    identical = all(
        a.read_bytes() == b.read_bytes() for a, b in zip(*outs)
    )
    assert report(11, "train command reproduces metrics byte-for-byte",
                  identical, f"{len(outs[0])} runs compared")
