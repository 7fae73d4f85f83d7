"""Experiment configuration: INI files with [dataset]/[loss]/[train]/[eval].

The format is plain ``key = value`` under named sections, diffable and
language-neutral. Comma-separated values on loss hyperparameters define
sweep grids; the cross product of all grids is the sweep. A complete
example::

    [dataset]
    profile = longtail          ; longtail | step | figure1 | gaussian
    n = 10
    d = 20
    m_max = 500
    imb_ratio = 100
    seed = 1
    test_m_max = 200            ; test-set base size before reduction
    val_fraction = 0.1
    minority_fraction = 0.5     ; step profile only
    mean_scale = 3.0            ; class-mean spread of the feature mixture
    noise_scale = 1.0

    [loss]
    family = GLA
    q = 0.0, 0.3, 0.5           ; comma list = sweep grid

    [train]
    model = linear              ; linear | mlp
    epochs = 100
    batch_size = 64
    lr0 = 0.1
    momentum = 0.9
    weight_decay = 0.0
    schedule = cosine
    seed = 0
    repeats = 5

    [eval]
    metrics = balanced_error, per_class_error

Config hashes are sha256 over the canonical JSON of the resolved blocks,
so identical configs land in identical run directories and reruns never
duplicate work.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import fields

import numpy as np

from .datagen import (
    Dataset,
    figure1_distribution,
    gaussian_mixture,
    longtail_counts,
    step_counts,
)
from .losses import HYPERPARAMETERS, LossSpec
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


PROFILES = ("longtail", "step", "figure1", "gaussian")

# Standard cross-validation search ranges per family. Paste the relevant
# entries into a [loss] block (or subset them: at desk scale a 10-point
# grid is usually overkill).
DEFAULT_SEARCH_GRIDS = {
    "GCE": {"q": [round(0.1 * k, 1) for k in range(10)]},
    "GLA": {"q": [round(0.1 * k, 1) for k in range(10)]},
    "GCA": {"q": [round(0.1 * k, 1) for k in range(10)]},
    "EQUAL": {
        "eq_p": [round(0.1 * k, 1) for k in range(1, 10)],
        "eq_lambda": [v * 1e-3 for v in
                      (0.176, 0.5, 0.8, 1.5, 1.76, 2.0, 3.0, 5.0)],
    },
    "CB": {"gamma": [round(0.1 * k, 1) for k in range(1, 10)]
           + [0.99, 0.999, 0.9999]},
    "FOCAL": {"gamma": [0.5 * k for k in range(2, 21)]
              + [round(0.1 * k, 1) for k in range(10)]},
    "LDAM": {"cap_c": [10.0**k for k in range(-4, 5)]
             + [5.0 * 10.0**k for k in range(-4, 4)]},
    "LA": {"tau": [1.0]},  # the consistent temperature
}

# Every hyperparameter but margins, which is resolved per run, not swept.
_LOSS_GRID_KEYS = tuple(k for k in HYPERPARAMETERS if k != "margins")

# The numeric options of [dataset] and [train]: type and default.
_DATASET_NUMBERS = {
    "n": (int, 2), "d": (int, 2), "m_max": (int, 100),
    "imb_ratio": (float, 1.0), "seed": (int, 0), "test_m_max": (int, 100),
    "val_fraction": (float, 0.1), "minority_fraction": (float, 0.5),
    "mean_scale": (float, 3.0), "noise_scale": (float, 1.0)}
_TRAIN_NUMBERS = {
    "epochs": (int, 100), "batch_size": (int, 64), "lr0": (float, 0.1),
    "momentum": (float, 0.9), "weight_decay": (float, 0.0), "seed": (int, 0),
    "repeats": (int, 1), "norm_bound": (float, None)}


def _parse_floats(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty value list: {text!r}")
    try:
        return [float(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _parse_widths(text: str) -> list[int]:
    widths = _parse_floats(text)
    if not all(w.is_integer() and w >= 1 for w in widths):
        raise ConfigError(f"[train] hidden widths must be positive integers, "
                          f"got {text!r}")
    return [int(w) for w in widths]


def _numbers(block: dict, section: str, table: dict) -> dict:
    """The numeric options of ``table`` parsed from block, or defaulted;
    a value must be a finite number of its option's type."""
    out = {}
    for key, (kind, default) in table.items():
        try:
            out[key] = kind(block[key]) if key in block else default
            if key in block and not math.isfinite(out[key]):
                raise ValueError
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be a finite "
                              f"{kind.__name__}, got {block[key]!r}") from None
    return out


def _reject_unknown(block: dict, section: str, known) -> None:
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown {section} option {key!r}")


def load_config(path) -> dict:
    """Parse and resolve an experiment config file into plain dicts."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not parser.has_section("dataset"):
        raise ConfigError("missing [dataset] section")

    ds = dict(parser.items("dataset"))
    _reject_unknown(ds, "dataset", ("profile", *_DATASET_NUMBERS))
    profile = ds.get("profile")
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}, got {profile!r}")
    ds.setdefault("test_m_max", ds.get("m_max", "100"))
    dataset = {"profile": profile, **_numbers(ds, "dataset", _DATASET_NUMBERS)}
    if profile == "figure1":
        dataset["n"], dataset["d"] = 2, 2
    if dataset["n"] < 2 or dataset["m_max"] < 1 or dataset["imb_ratio"] < 1:
        raise ConfigError("need n >= 2, m_max >= 1, imb_ratio >= 1")
    if not (0.0 < dataset["val_fraction"] < 1.0):
        raise ConfigError("val_fraction must lie in (0, 1)")

    if not parser.has_section("loss"):
        raise ConfigError("missing [loss] section")
    loss_raw = dict(parser.items("loss"))
    family = loss_raw.pop("family", None)
    if family is None:
        raise ConfigError("loss family is required")
    family = family.strip().upper()
    loss = {"family": family}
    margins = loss_raw.pop("margins", None)
    if margins is not None:
        margins = margins.strip()
        loss["margins"] = ("default" if margins == "default"
                           else _parse_floats(margins))
        if margins != "default" and len(loss["margins"]) != dataset["n"]:
            raise ConfigError(f"[loss] margins has {len(loss['margins'])} "
                              f"values, expected n = {dataset['n']}")
    for key, raw in loss_raw.items():
        if key not in _LOSS_GRID_KEYS:
            raise ConfigError(f"unknown loss option {key!r}")
        loss[key] = _parse_floats(raw)
        if len(set(loss[key])) != len(loss[key]):
            raise ConfigError(f"[loss] {key} repeats a grid value: {raw!r}")

    tr = dict(parser.items("train")) if parser.has_section("train") else {}
    _reject_unknown(tr, "train", ("model", "hidden", "schedule",
                                  *_TRAIN_NUMBERS))
    train = {
        "model": tr.get("model", "linear"),
        "hidden": _parse_widths(tr["hidden"]) if "hidden" in tr else [],
        "schedule": tr.get("schedule", "cosine"),
        **_numbers(tr, "train", _TRAIN_NUMBERS),
    }
    if train["model"] not in ("linear", "mlp"):
        raise ConfigError(f"model must be linear or mlp, got {train['model']!r}")
    if train["model"] == "mlp" and not train["hidden"]:
        raise ConfigError("mlp model needs hidden widths")
    if train["model"] == "mlp" and train["norm_bound"] is not None:
        raise ConfigError("norm_bound applies to linear models only")
    if train["model"] == "linear" and train["hidden"]:
        raise ConfigError("hidden widths apply to mlp models only")
    if train["norm_bound"] is not None and train["norm_bound"] <= 0:
        raise ConfigError("[train] norm_bound must be positive")
    if train["repeats"] < 1:
        raise ConfigError("[train] repeats must be >= 1")
    try:
        train_config(train, train["seed"])
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from None

    ev = dict(parser.items("eval")) if parser.has_section("eval") else {}
    _reject_unknown(ev, "eval", ("metrics",))
    metrics = [s.strip() for s in
               ev.get("metrics", "balanced_error, per_class_error").split(",")
               if s.strip()]
    known_metrics = ("balanced_error", "per_class_error", "confusion")
    for name in metrics:
        if name not in known_metrics:
            raise ConfigError(f"unknown metric {name!r}; "
                              f"choose from {known_metrics}")
    if "balanced_error" not in metrics:
        # required: grid selection and summaries key off it
        metrics.insert(0, "balanced_error")
    evaluation = {"metrics": metrics}

    config = {"dataset": dataset, "loss": loss, "train": train,
              "eval": evaluation}
    points = loss_grid_points(config)
    if not points:
        raise ConfigError("empty loss grid")
    # Fail fast on out-of-range hyperparameters: materialize every grid
    # point against placeholder balanced stats.
    from .losses import ClassStats

    placeholder = ClassStats(np.ones(dataset["n"], dtype=np.int64))
    for point in points:
        spec_from_gridpoint(point, placeholder)
    return config


def train_config(train: dict, seed: int) -> TrainConfig:
    """The optimization settings of one run of a resolved [train] block."""
    return TrainConfig(**{f.name: train[f.name] for f in fields(TrainConfig)
                          if f.name != "seed"}, seed=seed)


def canonical_hash(block) -> str:
    """12-hex-digit content hash of a resolved config block."""
    blob = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


def loss_grid_points(config) -> list[dict]:
    """Cartesian product of the loss block's hyperparameter grids.

    Each point is a dict of scalars (margins stay symbolic: "default" or
    an explicit list, resolved against the training stats at run time).
    """
    loss = config["loss"]
    keys = [k for k in _LOSS_GRID_KEYS if k in loss]
    points = [{}]
    for key in keys:
        points = [dict(p, **{key: v}) for p in points for v in loss[key]]
    out = []
    for point in points:
        entry = {"family": loss["family"], **point}
        if "margins" in loss:
            entry["margins"] = loss["margins"]
        out.append(entry)
    return out


def spec_from_gridpoint(point: dict, train_stats=None) -> LossSpec:
    """Materialize a LossSpec, resolving "default" margins from stats."""
    from .losses import default_gca_margins

    kwargs = dict(point)
    family = kwargs.pop("family")
    margins = kwargs.pop("margins", None)
    if family == "GCA":
        if margins is None or margins == "default":
            if train_stats is None:
                raise ConfigError("GCA default margins need training stats")
            kwargs["margins"] = tuple(default_gca_margins(train_stats))
        else:
            kwargs["margins"] = tuple(float(v) for v in margins)
    elif margins is not None:
        raise ConfigError(f"{family} does not accept margins")
    try:
        return LossSpec(family, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Dataset synthesis from the [dataset] block.
# ---------------------------------------------------------------------------


def _train_counts(dataset: dict) -> np.ndarray:
    profile = dataset["profile"]
    n, m_max, ratio = dataset["n"], dataset["m_max"], dataset["imb_ratio"]
    if profile == "longtail":
        return longtail_counts(n, m_max, ratio)
    if profile == "step":
        return step_counts(n, m_max, ratio, dataset["minority_fraction"])
    if profile == "gaussian":
        return np.full(n, m_max, dtype=np.int64)
    raise ConfigError(f"profile {profile} has no per-class counts")


def _val_counts(train_counts: np.ndarray, fraction: float) -> np.ndarray:
    return np.maximum(np.floor(fraction * train_counts + 0.5), 1).astype(np.int64)


def _figure1_split(m: int, seed_seq, min_m: int = 2) -> Dataset:
    """Draw a two-class sample, retrying derived seeds until both classes
    appear (needed so stratified metrics stay well-defined)."""
    m = max(int(m), min_m)
    for attempt, child in enumerate(seed_seq.spawn(100)):
        data = figure1_distribution(m, child)
        if np.all(data.class_counts() >= 1):
            return data
    raise ConfigError(f"could not draw both classes in {m} samples")


def synthesize_splits(dataset: dict) -> dict[str, Dataset]:
    """Generate train/val/test datasets for a [dataset] block.

    The class-mean landscape is drawn once from the dataset seed; the
    three splits are independent draws from the same mixture with derived
    seeds. Validation is a fresh holdout sized at val_fraction of the
    training counts (at least one example per class); the test set is
    imbalanced identically to the training set with base size test_m_max.
    """
    profile = dataset["profile"]
    root = np.random.SeedSequence(dataset["seed"])
    landscape_seq, train_seq, val_seq, test_seq = root.spawn(4)

    if profile == "figure1":
        m = dataset["m_max"]
        splits = {
            "train": _figure1_split(m, train_seq),
            "val": _figure1_split(round(dataset["val_fraction"] * m), val_seq),
            "test": _figure1_split(dataset["test_m_max"], test_seq),
        }
    else:
        n, d = dataset["n"], dataset["d"]
        rng = np.random.default_rng(landscape_seq)
        means = dataset["mean_scale"] * rng.standard_normal((n, d))
        scales = np.full(n, dataset["noise_scale"])
        train_counts = _train_counts(dataset)
        test_block = dict(dataset, m_max=dataset["test_m_max"])
        test_counts = _train_counts(test_block)
        val_counts = _val_counts(train_counts, dataset["val_fraction"])
        splits = {
            "train": gaussian_mixture(n, d, train_counts, means, scales,
                                      train_seq),
            "val": gaussian_mixture(n, d, val_counts, means, scales, val_seq),
            "test": gaussian_mixture(n, d, test_counts, means, scales,
                                     test_seq),
        }
    for name, data in splits.items():
        data.meta.update(profile=profile, split=name,
                         imb_ratio=dataset["imb_ratio"],
                         seed=dataset["seed"])
    return splits
