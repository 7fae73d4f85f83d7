"""Command-line orchestration: ``imbloss {synth,train,verify,report}``.

Every command is deterministic given its config and seed. Datasets and
runs are content-addressed by config hash, so rerunning a command never
duplicates work and reproduces identical bytes.

Exit codes: 0 success, 2 config error, 3 theory-check violation,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import theory
from .config import (
    ConfigError,
    canonical_hash,
    load_config,
    loss_grid_points,
    spec_from_gridpoint,
    synthesize_splits,
)
from .datagen import read_dataset_csv, write_dataset_csv
from .losses import LossSpec
from .metrics import balanced_error, confusion, per_class_error
from .trainer import (
    BoundedLinearFamily,
    LinearModel,
    MlpModel,
    TrainConfig,
    TrainingDiverged,
    best_in_class_search,
    boundary_angle_degrees,
    save_checkpoint,
    train,
    train_lockstep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_RUNTIME = 4

SPLITS = ("train", "val", "test")


def _dump_json(path: Path, payload) -> None:
    """Write through a temp file in the same directory and os.replace, so
    a reader finds either no file or the whole of it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _append_jsonl(fh, record) -> None:
    fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def dataset_dir(config, out: Path) -> Path:
    return out / "datasets" / canonical_hash(config["dataset"])


def cmd_synth(config, out: Path) -> Path:
    """Write train/val/test CSVs plus metadata under a content hash."""
    target = dataset_dir(config, out)
    target.mkdir(parents=True, exist_ok=True)
    splits = synthesize_splits(config["dataset"])
    for name in SPLITS:
        write_dataset_csv(splits[name], target / f"{name}.csv",
                          target / f"{name}.meta.json")
    _dump_json(target / "dataset.json", config["dataset"])
    print(f"synth: wrote {', '.join(SPLITS)} to {target}")
    return target


def _load_splits(config, out: Path):
    target = dataset_dir(config, out)
    missing = [s for s in SPLITS if not (target / f"{s}.csv").exists()]
    if missing:
        raise ConfigError(
            f"dataset files missing under {target} ({', '.join(missing)}); "
            f"run `imbloss synth` with this config first"
        )
    return {
        name: read_dataset_csv(target / f"{name}.csv",
                               target / f"{name}.meta.json")
        for name in SPLITS
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _run_hash(config, gridpoint) -> str:
    block = {
        "dataset": config["dataset"],
        "loss": gridpoint,
        "train": {k: v for k, v in config["train"].items()
                  if k not in ("seed", "repeats")},
    }
    return canonical_hash(block)


def _make_model(train_block, n, d, seed):
    if train_block["model"] == "mlp":
        widths = [d] + list(train_block["hidden"]) + [n]
        return MlpModel.init_random(widths, seed)
    return LinearModel.init_random(n, d, seed,
                                   norm_bound=train_block["norm_bound"])


def _read_metrics(path: Path):
    """A finished run's metrics, or None when the file is missing,
    unreadable or incomplete (such a run is trained again)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    status = payload.get("status")
    if status == "diverged":
        return payload
    if status == "ok" and all(f"{split}_balanced_error" in payload
                              for split in ("val", "test")):
        return payload
    return None


def _execute_group(config, gridpoint, seeds, splits, out: Path):
    """Train one grid point's seeds in lockstep; returns their metrics
    payloads in seed order."""
    train_set, val_set, test_set = (splits[s] for s in SPLITS)
    tb = config["train"]
    run_hash = _run_hash(config, gridpoint)
    spec = spec_from_gridpoint(gridpoint, train_set.stats())
    cfgs = [TrainConfig(epochs=tb["epochs"], batch_size=tb["batch_size"],
                        lr0=tb["lr0"], momentum=tb["momentum"],
                        weight_decay=tb["weight_decay"], seed=seed,
                        schedule=tb["schedule"]) for seed in seeds]
    models = [_make_model(tb, train_set.n, train_set.d, seed)
              for seed in seeds]
    outcomes = train_lockstep(models, train_set, spec, cfgs)

    metrics = config["eval"]["metrics"]
    payloads = []
    for seed, outcome in zip(seeds, outcomes):
        run_dir = out / "runs" / run_hash / str(seed)
        run_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "config_hash": run_hash,
            "dataset_hash": canonical_hash(config["dataset"]),
            "profile": config["dataset"]["profile"],
            "imb_ratio": config["dataset"]["imb_ratio"],
            "family": gridpoint["family"],
            "hyperparams": spec.hyperparams(),
            "seed": seed,
        }
        payloads.append(payload)
        if isinstance(outcome, TrainingDiverged):
            payload.update(status="diverged", error=str(outcome))
            _dump_json(run_dir / "metrics.json", payload)
            continue
        trained, history = outcome
        payload.update(
            status="ok",
            final_train_loss=history[-1],
            val_balanced_error=balanced_error(trained, val_set),
            test_balanced_error=balanced_error(trained, test_set),
        )
        if "per_class_error" in metrics:
            payload["test_per_class_error"] = per_class_error(
                trained, test_set).tolist()
        if "confusion" in metrics:
            payload["test_confusion"] = confusion(
                trained, test_set).counts.tolist()
        save_checkpoint(trained, run_dir / "model.json")
        with open(run_dir / "history.csv", "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write("epoch,mean_loss\n")
            for epoch, loss in enumerate(history):
                fh.write(f"{epoch},{loss:.17g}\n")
        # Written last: a complete metrics.json marks the run as done.
        _dump_json(run_dir / "metrics.json", payload)
    return payloads


def _group_worker(args):
    return _execute_group(*args)


def cmd_train(config, out: Path, jobs: int = 1, force: bool = False) -> Path:
    """One run per (grid point x seed); summary with mean +- sd per point.

    The pending seeds of each grid point train in lockstep; with jobs > 1
    the workers take whole grid points. The splits are read once, and
    only when some run is pending. The best grid point is selected by
    mean validation balanced error and reported on test. Diverged runs
    are recorded, not fatal.
    """
    grid = loss_grid_points(config)
    seeds = [config["train"]["seed"] + i
             for i in range(config["train"]["repeats"])]
    done, groups = {}, []
    for gridpoint in grid:
        run_hash = _run_hash(config, gridpoint)
        pending = []
        for seed in seeds:
            payload = None if force else _read_metrics(
                out / "runs" / run_hash / str(seed) / "metrics.json")
            if payload is None:
                pending.append(seed)
            else:
                done[run_hash, seed] = payload
        if pending:
            groups.append((gridpoint, pending))

    if groups:
        splits = _load_splits(config, out)
        tasks = [(config, gridpoint, pending, splits, out)
                 for gridpoint, pending in groups]
        if jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                trained = list(pool.map(_group_worker, tasks))
        else:
            trained = [_group_worker(task) for task in tasks]
        for (gridpoint, pending), payloads in zip(groups, trained):
            run_hash = _run_hash(config, gridpoint)
            for seed, payload in zip(pending, payloads):
                done[run_hash, seed] = payload

    summary_rows = []
    for gridpoint in grid:
        run_hash = _run_hash(config, gridpoint)
        runs = [done[run_hash, seed] for seed in seeds]
        ok = [r for r in runs if r["status"] == "ok"]
        row = {
            "config_hash": run_hash,
            "family": gridpoint["family"],
            "hyperparams": json.dumps(
                {k: v for k, v in gridpoint.items() if k != "family"},
                sort_keys=True),
            "runs_ok": len(ok),
            "runs_failed": len(runs) - len(ok),
        }
        for split in ("val", "test"):
            values = [r[f"{split}_balanced_error"] for r in ok]
            row[f"{split}_mean"] = float(np.mean(values)) if values else ""
            row[f"{split}_sd"] = (float(np.std(values, ddof=1))
                                  if len(values) > 1 else 0.0 if values else "")
        summary_rows.append(row)

    scored = [r for r in summary_rows if r["val_mean"] != ""]
    best_hash = (min(scored, key=lambda r: r["val_mean"])["config_hash"]
                 if scored else None)
    for row in summary_rows:
        row["selected"] = int(row["config_hash"] == best_hash)

    sweep_hash = canonical_hash({
        "dataset": config["dataset"], "loss": config["loss"],
        "train": config["train"]})
    summary_path = out / "runs" / f"summary_{sweep_hash}.csv"
    header = ["config_hash", "family", "hyperparams", "runs_ok",
              "runs_failed", "val_mean", "val_sd", "test_mean", "test_sd",
              "selected"]
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in summary_rows:
            fh.write(",".join(_csv_cell(row[h]) for h in header) + "\n")
    print(f"train: {len(grid) * len(seeds)} runs, summary at {summary_path}")
    if best_hash is not None:
        best = next(r for r in summary_rows if r["config_hash"] == best_hash)
        if isinstance(best["test_mean"], float):
            print(f"train: best by validation: {best['family']} "
                  f"{best['hyperparams']} test {best['test_mean']:.6g} "
                  f"+- {best['test_sd']:.6g}")
    return summary_path


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_DEFAULT_BUDGET = {
    "bayes": 500,
    "bounds": 10_000,
    "margin": 10_000,
    "counterexample": 50_000,
}


def _verify_bayes(budget, seed, evidence):
    """Numeric pointwise-optimality check of the logit-adjusted family.

    The numerically minimized conditional error must match the closed
    form to 1e-10 and its argmax label must equal the balanced-optimal
    label in every trial.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    qs = (0.0, 0.3, 0.7)
    for trial in range(budget):
        n = int(rng.integers(2, 7))
        q = qs[trial % len(qs)]
        point = theory.random_conditional_point(rng, n, ratio_gap=1e-3)
        scores, value = theory.minimize_conditional_error(
            LossSpec("GLA", q=q), point)
        closed = theory.best_conditional_error("GLA", point, q)
        label = int(np.argmax(scores)) + 1
        expected = theory.bayes_balanced_label(point)
        ok = abs(value - closed) <= 1e-10 and label == expected
        violations += not ok
        _append_jsonl(evidence, {
            "trial": trial, "n": n, "q": q,
            "cond": point.cond.tolist(), "priors": point.priors.tolist(),
            "value": value, "closed": closed,
            "argmax_label": label, "balanced_label": expected, "ok": ok,
        })
    return violations


def _verify_bounds(budget, seed, evidence):
    """Conditional-regret bound fuzzing for both loss families."""
    rng = np.random.default_rng(seed)
    qs = (0.0, 0.3, 0.5, 0.7, 0.9)
    violations = 0
    for trial in range(budget):
        n = int(rng.integers(2, 7))
        q = qs[trial % len(qs)]
        point = theory.random_conditional_point(rng, n, floor=0.03)
        scores = rng.normal(0, 3, n)
        for family, check in (("GLA", theory.check_gla_bound),
                              ("GCA", theory.check_gca_bound)):
            report = check(point, scores, q)
            violations += not report.holds
            _append_jsonl(evidence, {
                "trial": trial, "family": family, "n": n, "q": q,
                "cond": point.cond.tolist(),
                "priors": point.priors.tolist(),
                "scores": scores.tolist(),
                "target_regret": report.target_regret,
                "surrogate_regret": report.surrogate_regret,
                "bound_value": report.bound_value, "slack": report.slack,
                "ok": report.holds,
            })
    return violations


def _verify_margin(budget, seed, evidence):
    """Margin-bound machinery: ramp inequality grid, domination fuzz,
    and the generalization bound across fresh train/test resamples."""
    from .datagen import gaussian_mixture

    violations = 0
    # ramp-vs-logistic inequality on the full grid
    v_grid = np.arange(-10.0, 10.0 + 1e-12, 0.01)
    rho_grid = [0.1, 1.0, 10.0]
    costs = [1.0, 2.0, 10.0]
    worst = min(
        theory.check_lamargin(cy, cyp, 1.0, 10.0, v_grid, rho_grid)
        for cy in costs for cyp in costs
    )
    ok = worst >= -1e-12
    violations += not ok
    _append_jsonl(evidence, {"check": "ramp_log_inequality",
                             "worst_slack": worst, "ok": ok})

    # margin loss dominates the cost-weighted zero-one loss
    rng = np.random.default_rng(seed)
    dom_trials = min(budget, 2000)
    dom_failures = 0
    for trial in range(dom_trials):
        n = int(rng.integers(2, 6))
        scores = rng.normal(0, 2, n)
        label = int(rng.integers(1, n + 1))
        cost = float(rng.uniform(0.0, 5.0))
        rho = float(rng.uniform(0.2, 3.0))
        predicted = n - int(np.argmax(scores[::-1]))
        loss = theory.margin_loss(scores, label, cost, rho)
        if loss < cost * (predicted != label) - 1e-12:
            dom_failures += 1
            _append_jsonl(evidence, {"check": "domination", "trial": trial,
                                     "ok": False})
    violations += dom_failures
    _append_jsonl(evidence, {"check": "domination", "trials": dom_trials,
                             "failures": dom_failures,
                             "ok": dom_failures == 0})

    # generalization bound across resamples of a 3-class Gaussian task
    resamples = max(10, min(100, budget // 100))
    holds = 0
    rng = np.random.default_rng(seed + 1)
    # the sampling distribution is fixed; only train/test draws resample
    means = np.random.default_rng(123).normal(0, 2.0, (3, 6))
    for rep in range(resamples):
        counts = rng.multinomial(500, [0.6, 0.3, 0.1])
        while np.any(counts == 0):
            counts = rng.multinomial(500, [0.6, 0.3, 0.1])
        train_set = gaussian_mixture(3, 6, counts, means, np.ones(3),
                                     int(rng.integers(2**31)))
        test_counts = rng.multinomial(2000, [0.6, 0.3, 0.1])
        while np.any(test_counts == 0):
            test_counts = rng.multinomial(2000, [0.6, 0.3, 0.1])
        test_set = gaussian_mixture(3, 6, test_counts, means, np.ones(3),
                                    int(rng.integers(2**31)))
        model = LinearModel.init_random(3, 6, rep, norm_bound=1.0,
                                        use_bias=False)
        model, _ = train(model, train_set, LossSpec("WCE"),
                         TrainConfig(epochs=10, batch_size=50, lr0=0.05,
                                     seed=rep))
        report = theory.check_theorem5_bound(
            model, train_set, test_set, rho=0.5, norm_bound=1.0, delta=0.1,
            trials=30, seed=rep)
        holds += report.holds
        _append_jsonl(evidence, {"check": "margin_bound", "rep": rep,
                                 "rhs": report.rhs,
                                 "test_risk": report.test_balanced_risk,
                                 "ok": report.holds})
    required = math.ceil(0.85 * resamples)
    ok = holds >= required
    violations += not ok
    _append_jsonl(evidence, {"check": "margin_bound_rate", "holds": holds,
                             "resamples": resamples, "required": required,
                             "ok": ok})
    return violations


def _verify_counterexample(budget, seed, evidence):
    """Stored-witness and bounded-hypothesis-set geometry checks.

    The two-class grid search must produce label disagreements for
    temperatures 0.5 and 2; on the skewed two-dimensional sample the
    best norm-100 linear boundary under the balanced and class-aware
    objectives must lie within 2 degrees of horizontal while the
    logit-adjusted (tau = 1) boundary stays at least 5 degrees away.
    """
    from .datagen import figure1_distribution

    violations = 0
    for tau in (0.5, 2.0):
        point = theory.find_la_disagreement(tau)
        ok = point is not None and (
            theory.bayes_la_label(point, tau)
            != theory.bayes_balanced_label(point))
        violations += not ok
        _append_jsonl(evidence, {
            "check": "la_disagreement", "tau": tau,
            "point": None if point is None else {
                "cond": point.cond.tolist(), "priors": point.priors.tolist()},
            "ok": ok,
        })

    m = max(int(budget), 1000)
    data = figure1_distribution(m, seed)
    family = BoundedLinearFamily(n=2, d=2, norm_bound=100.0)
    angles = {}
    for name, objective in (("balanced", "balanced"),
                            ("GCA", LossSpec("GCA", q=0.0, margins=(1.0, 1.0))),
                            ("LA", LossSpec("LA", tau=1.0))):
        model, value = best_in_class_search(family, data, objective,
                                            restarts=20, seed=seed)
        angles[name] = boundary_angle_degrees(model)
        _append_jsonl(evidence, {"check": "figure1_angle", "objective": name,
                                 "angle_degrees": angles[name],
                                 "objective_value": value})
    ok = (angles["balanced"] <= 2.0 and angles["GCA"] <= 2.0
          and angles["LA"] >= 5.0)
    violations += not ok
    _append_jsonl(evidence, {"check": "figure1_thresholds", **angles,
                             "ok": ok})
    return violations


def cmd_verify(suite: str, budget, seed: int, out: Path) -> int:
    """Run one named verification suite; nonzero count means violation."""
    runners = {
        "bayes": _verify_bayes,
        "bounds": _verify_bounds,
        "margin": _verify_margin,
        "counterexample": _verify_counterexample,
    }
    if suite not in runners:
        raise ConfigError(f"unknown suite {suite!r}; "
                          f"choose from {sorted(runners)}")
    budget = VERIFY_DEFAULT_BUDGET[suite] if budget is None else int(budget)
    out.mkdir(parents=True, exist_ok=True)
    evidence_path = out / f"verify_{suite}.jsonl"
    with open(evidence_path, "w", encoding="ascii", newline="\n") as fh:
        violations = runners[suite](budget, seed, fh)
    status = "ok" if violations == 0 else f"{violations} violations"
    print(f"verify[{suite}]: {status}; evidence at {evidence_path}")
    return violations


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(run_dirs, out: Path):
    """Aggregate run metrics into a comparison table and plot data."""
    rows, missing = [], []
    for raw in run_dirs:
        path = Path(raw) / "metrics.json"
        if not path.exists():
            missing.append(str(raw))
            continue
        with open(path, "r", encoding="ascii") as fh:
            rows.append(json.load(fh))
    if missing:
        print("report: missing metrics for: " + ", ".join(missing),
              file=sys.stderr)

    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["family"], json.dumps(row["hyperparams"], sort_keys=True),
               row["profile"], row["imb_ratio"])
        groups.setdefault(key, []).append(row)

    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "table.csv"
    with open(table_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("family,hyperparams,profile,imb_ratio,runs_ok,"
                 "test_mean,test_sd\n")
        for key in sorted(groups):
            family, hp, profile, ratio = key
            ok = [r for r in groups[key] if r["status"] == "ok"]
            values = [r["test_balanced_error"] for r in ok]
            mean = f"{np.mean(values):.17g}" if values else ""
            sd = (f"{np.std(values, ddof=1):.17g}" if len(values) > 1
                  else "0" if values else "")
            fh.write(",".join([family, _csv_cell(hp), profile,
                               f"{ratio:.17g}", str(len(ok)), mean, sd])
                     + "\n")

    plot_path = out / "plot_data.csv"
    with open(plot_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("family,hyperparams,profile,imb_ratio,seed,"
                 "test_balanced_error,status\n")
        for key in sorted(groups):
            for r in sorted(groups[key], key=lambda r: r["seed"]):
                value = (f"{r['test_balanced_error']:.17g}"
                         if r["status"] == "ok" else "")
                fh.write(",".join([
                    r["family"],
                    _csv_cell(json.dumps(r["hyperparams"], sort_keys=True)),
                    r["profile"], f"{r['imb_ratio']:.17g}", str(r["seed"]),
                    value, r["status"]]) + "\n")
    print(f"report: wrote {table_path} and {plot_path}")
    return table_path, plot_path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_global_flags(parser, suppress: bool) -> None:
    # Registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work in either position.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--config", type=Path, default=default(None),
                        help="experiment config file")
    parser.add_argument("--seed", type=int, default=default(0),
                        help="base seed for verify suites")
    parser.add_argument("--out", type=Path, default=default(Path("out")),
                        help="output directory root")
    parser.add_argument("--jobs", type=int, default=default(1),
                        help="parallel workers for training sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbloss",
        description="Imbalanced-classification losses: synthesize data, "
                    "train models, verify theory, report results.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write train/val/test dataset files")
    _add_global_flags(p_synth, suppress=True)

    p_train = sub.add_parser("train", help="run the training sweep")
    p_train.add_argument("--force", action="store_true",
                         help="retrain even if run outputs exist")
    _add_global_flags(p_train, suppress=True)

    p_verify = sub.add_parser("verify", help="run a theory-verification suite")
    p_verify.add_argument("suite",
                          choices=("bayes", "bounds", "margin",
                                   "counterexample"))
    p_verify.add_argument("--budget", type=int, default=None,
                          help="trials / sample size for the suite")
    _add_global_flags(p_verify, suppress=True)

    p_report = sub.add_parser("report", help="aggregate finished runs")
    p_report.add_argument("run_dirs", nargs="+",
                          help="run directories containing metrics.json")
    _add_global_flags(p_report, suppress=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            if args.config is None:
                raise ConfigError("synth requires --config")
            cmd_synth(load_config(args.config), args.out)
            return EXIT_OK
        if args.command == "train":
            if args.config is None:
                raise ConfigError("train requires --config")
            cmd_train(load_config(args.config), args.out, jobs=args.jobs,
                      force=args.force)
            return EXIT_OK
        if args.command == "verify":
            violations = cmd_verify(args.suite, args.budget, args.seed,
                                    args.out)
            return EXIT_OK if violations == 0 else EXIT_VIOLATION
        if args.command == "report":
            cmd_report(args.run_dirs, args.out)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
