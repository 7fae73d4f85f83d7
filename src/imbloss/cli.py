"""Command-line orchestration: ``imbloss {synth,train,verify,report}``.

Every command is deterministic given its config and seed. Datasets and
runs are content-addressed by config hash, so rerunning a command never
duplicates work and reproduces identical bytes.

Exit codes: 0 success, 2 config error, 3 theory-check violation,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import datagen, verify
from .config import (
    ConfigError,
    canonical_hash,
    load_config,
    loss_grid_points,
    spec_from_gridpoint,
    synthesize_splits,
    train_config,
)
from .datagen import (
    DatasetShapeError,
    read_dataset_csv,
    replacing,
    write_csv,
    write_dataset_csv,
    write_json,
)
from .metrics import balanced_error, confusion, per_class_error
from .trainer import (
    LinearModel,
    MlpModel,
    TrainingDiverged,
    save_checkpoint,
    train_lockstep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_RUNTIME = 4

SPLITS = ("train", "val", "test")


# json.dumps(record, sort_keys=True) without building an encoder per record
_JSONL = json.JSONEncoder(sort_keys=True)


def _append_jsonl(fh, record) -> None:
    fh.write(_JSONL.encode(record) + "\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def dataset_dir(config, out: Path) -> Path:
    return out / "datasets" / canonical_hash(config["dataset"])


def cmd_synth(config, out: Path) -> Path:
    """Write train/val/test CSVs plus metadata under a content hash."""
    target = dataset_dir(config, out)
    splits = synthesize_splits(config["dataset"])
    for name in SPLITS:
        write_dataset_csv(splits[name], target / f"{name}.csv",
                          target / f"{name}.meta.json")
    write_json(target / "dataset.json", config["dataset"])
    print(f"synth: wrote {', '.join(SPLITS)} to {target}")
    return target


def _load_splits(config, out: Path):
    target = dataset_dir(config, out)
    try:
        return {name: read_dataset_csv(target / f"{name}.csv",
                                       target / f"{name}.meta.json",
                                       config["dataset"]["n"])
                for name in SPLITS}
    except (FileNotFoundError, DatasetShapeError) as exc:
        raise ConfigError(f"missing or damaged dataset ({exc}); "
                          f"rerun `imbloss synth` with this config") from None


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


# Keys every metrics payload carries, whatever its status; `report`
# groups runs by them.
_RUN_KEYS = ("family", "hyperparams", "profile", "imb_ratio", "seed")


def _read_metrics(path: Path):
    """A finished run's metrics, or None when the file is missing,
    unreadable or incomplete (such a run is trained again, and `report`
    lists it as missing)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or not all(k in payload
                                                for k in _RUN_KEYS):
        return None
    status = payload.get("status")
    if status == "diverged":
        return payload
    if status == "ok" and all(f"{split}_balanced_error" in payload
                              for split in ("val", "test")):
        return payload
    return None


def _execute_stack(config, points, splits, out: Path):
    """Train the pending seeds of the given grid points as one lockstep
    stack; returns each run's metrics payload, keyed by (run hash, seed)."""
    train_set, val_set, test_set = (splits[s] for s in SPLITS)
    tb = config["train"]
    runs = [(gridpoint, seed) for gridpoint, seeds in points for seed in seeds]
    specs = [spec_from_gridpoint(gridpoint, train_set.stats())
             for gridpoint, _ in runs]
    outcomes = train_lockstep(
        [_make_model(tb, train_set.n, train_set.d, seed) for _, seed in runs],
        train_set, specs, [train_config(tb, seed) for _, seed in runs])

    metrics = config["eval"]["metrics"]
    payloads = {}
    for (gridpoint, seed), spec, outcome in zip(runs, specs, outcomes):
        run_hash = _run_hash(config, gridpoint)
        run_dir = out / "runs" / run_hash / str(seed)
        payload = {
            "config_hash": run_hash,
            "dataset_hash": canonical_hash(config["dataset"]),
            "profile": config["dataset"]["profile"],
            "imb_ratio": config["dataset"]["imb_ratio"],
            "family": gridpoint["family"],
            "hyperparams": spec.hyperparams(),
            "seed": seed,
        }
        payloads[run_hash, seed] = payload
        if isinstance(outcome, TrainingDiverged):
            payload.update(status="diverged", error=str(outcome))
            write_json(run_dir / "metrics.json", payload)
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
            payload["test_confusion"] = confusion(trained, test_set).tolist()
        save_checkpoint(trained, run_dir / "model.json")
        write_csv(run_dir / "history.csv", ["epoch", "mean_loss"],
                  enumerate(history))
        # Written last: a complete metrics.json marks the run as done.
        write_json(run_dir / "metrics.json", payload)
    return payloads


def _stack_worker(args):
    return _execute_stack(*args)


def cmd_train(config, out: Path, jobs: int = 1, force: bool = False) -> Path:
    """One run per (grid point x seed); summary with mean +- sd per point.

    The pending runs of every grid point train as one lockstep stack;
    with jobs > 1 its grid points are split among the workers, and each
    worker trains its share as one stack. The splits are read once, and
    only when some run is pending. The best grid point is selected by
    mean validation balanced error and reported on test. Diverged runs
    are recorded, not fatal.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    grid = loss_grid_points(config)
    seeds = [config["train"]["seed"] + i
             for i in range(config["train"]["repeats"])]
    done, stack = {}, []
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
            stack.append((gridpoint, pending))

    if stack:
        splits = _load_splits(config, out)
        parts = min(jobs, len(stack))
        tasks = [(config, stack[len(stack) * i // parts:
                                len(stack) * (i + 1) // parts], splits, out)
                 for i in range(parts)]
        if len(tasks) > 1:
            # imported here: it loads multiprocessing, which nothing else
            # needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                trained = list(pool.map(_stack_worker, tasks))
        else:
            trained = [_stack_worker(task) for task in tasks]
        for payloads in trained:
            done.update(payloads)

    summary_rows = []
    for gridpoint in grid:
        run_hash = _run_hash(config, gridpoint)
        runs = [done[run_hash, seed] for seed in seeds]
        row = {
            "config_hash": run_hash,
            "family": gridpoint["family"],
            "hyperparams": json.dumps(
                {k: v for k, v in gridpoint.items() if k != "family"},
                sort_keys=True),
        }
        for split in ("val", "test"):
            row["runs_ok"], row[f"{split}_mean"], row[f"{split}_sd"] = \
                _aggregate(runs, split)
        row["runs_failed"] = len(runs) - row["runs_ok"]
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
    write_csv(summary_path, header,
              ([row[h] for h in header] for row in summary_rows))
    print(f"train: {len(grid) * len(seeds)} runs, summary at {summary_path}")
    if best_hash is not None:
        best = next(r for r in summary_rows if r["config_hash"] == best_hash)
        if isinstance(best["test_mean"], float):
            print(f"train: best by validation: {best['family']} "
                  f"{best['hyperparams']} test {best['test_mean']:.6g} "
                  f"+- {best['test_sd']:.6g}")
    return summary_path


def _aggregate(runs, split):
    """A group's ok-run count, and the mean and ddof = 1 sd of the
    ``split`` balanced error over its ok runs: sd 0.0 for one, and both
    "" for none."""
    values = [r[f"{split}_balanced_error"] for r in runs
              if r["status"] == "ok"]
    if not values:
        return 0, "", ""
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return len(values), float(np.mean(values)), sd


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _margin_suite(budget, seed):
    yield verify.ramp_grid()
    yield from verify.domination(np.random.default_rng(seed), min(budget, 2000))
    yield from verify.margin_bound(np.random.default_rng(seed + 1),
                                   max(10, min(100, budget // 100)))


def _counterexample_suite(budget, seed):
    yield from verify.la_disagreements()
    data = datagen.figure1_distribution(max(budget, 1000), seed)
    yield from verify.figure1_angles(data, 100.0)[0]


# Each suite's default budget, and its evidence records for (budget, seed).
VERIFY_SUITES = {
    "bayes": (500, lambda budget, seed: verify.bayes(zip(
        verify.bayes_points(np.random.default_rng(seed), budget),
        itertools.cycle((0.0, 0.3, 0.7))))),
    "bounds": (10_000, lambda budget, seed: verify.bounds(
        np.random.default_rng(seed), budget)),
    "margin": (10_000, _margin_suite),
    "counterexample": (50_000, _counterexample_suite),
}


def cmd_verify(suite: str, budget, seed: int, out: Path) -> int:
    """Run one named verification suite; nonzero count means violation."""
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {suite!r}; "
                          f"choose from {sorted(VERIFY_SUITES)}")
    default_budget, records = VERIFY_SUITES[suite]
    budget = default_budget if budget is None else int(budget)
    if budget < 1:
        raise ConfigError(f"--budget must be >= 1, got {budget}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    evidence_path = out / f"verify_{suite}.jsonl"
    violations = 0
    with replacing(evidence_path) as fh:
        for record in records(budget, seed):
            _append_jsonl(fh, record)
            violations += verify.is_violation(record)
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
        payload = _read_metrics(Path(raw) / "metrics.json")
        if payload is None:
            missing.append(str(raw))
        else:
            rows.append(payload)
    if missing:
        print("report: missing metrics for: " + ", ".join(missing),
              file=sys.stderr)

    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["family"], json.dumps(row["hyperparams"], sort_keys=True),
               row["profile"], row["imb_ratio"])
        groups.setdefault(key, []).append(row)

    keys = sorted(groups)
    table_path = out / "table.csv"
    write_csv(table_path, ["family", "hyperparams", "profile", "imb_ratio",
                           "runs_ok", "test_mean", "test_sd"],
              ((*key, *_aggregate(groups[key], "test")) for key in keys))

    plot_path = out / "plot_data.csv"
    write_csv(plot_path, ["family", "hyperparams", "profile", "imb_ratio",
                          "seed", "test_balanced_error", "status"],
              ((*key, r["seed"], r["test_balanced_error"]
                if r["status"] == "ok" else "", r["status"])
               for key in keys
               for r in sorted(groups[key], key=lambda r: r["seed"])))
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
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
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
