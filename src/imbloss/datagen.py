"""Synthetic imbalanced datasets and finite joint distributions.

Two substrates live here:

* :class:`Dataset` -- feature vectors with 1-based integer labels plus
  provenance metadata, written/read as CSV with a JSON sidecar;
* :class:`DiscreteJoint` -- a finite joint distribution p(x, y) on an
  abstract grid of inputs, the ground truth for all the consistency
  oracles.

Counts follow the usual long-tail / step protocols: long-tailed counts
decay exponentially across sorted classes, step counts split the classes
into a majority and a minority group sharing one size each.

Randomness contract: every generator takes an integer seed and uses
numpy's PCG64 stream (``numpy.random.default_rng``); the algorithm
identifier is recorded in the dataset metadata. Acceptance-style checks
treat distributional properties, not bit-exact streams, as the
cross-implementation contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .losses import ClassStats

RNG_ALGORITHM = "numpy-pcg64"


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _seed_repr(seed):
    """JSON-friendly form of a seed (ints pass through, others stringify)."""
    if seed is None or isinstance(seed, (int, np.integer)):
        return None if seed is None else int(seed)
    return str(seed)


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass
class Dataset:
    """Feature matrix (m, d) with 1-based labels in 1..n and metadata."""

    features: np.ndarray
    labels: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("features and labels must have the same length")
        if self.labels.size == 0:
            raise ValueError("dataset must be non-empty")
        if self.labels.min() < 1 or self.labels.max() > self.n:
            raise ValueError(f"labels must lie in 1..{self.n}")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels - 1, minlength=self.n)

    def stats(self) -> ClassStats:
        """ClassStats of this sample; every class must be present."""
        return ClassStats(self.class_counts())


class DiscreteJoint:
    """Finite joint distribution p(x_i, y_j) with derived marginals.

    The joint is a (num_x, n) matrix of non-negative entries summing to
    one; every class marginal and every input marginal must be positive
    so the conditionals exist.
    """

    def __init__(self, joint):
        joint = np.asarray(joint, dtype=np.float64)
        if joint.ndim != 2 or joint.shape[1] < 2:
            raise ValueError("joint must be (num_x, n) with n >= 2")
        if np.any(joint < 0):
            raise ValueError("joint entries must be >= 0")
        total = joint.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"joint must sum to 1, got {total!r}")
        self.joint = joint
        self.p_x = joint.sum(axis=1)
        self.p_y = joint.sum(axis=0)
        if np.any(self.p_y <= 0):
            raise ValueError("every class marginal must be positive")
        if np.any(self.p_x <= 0):
            raise ValueError("every input marginal must be positive")
        self.cond_y_given_x = joint / self.p_x[:, None]
        self.cond_x_given_y = joint / self.p_y[None, :]

    @property
    def num_x(self) -> int:
        return self.joint.shape[0]

    @property
    def n(self) -> int:
        return self.joint.shape[1]

    @property
    def p_min(self) -> float:
        return float(self.p_y.min())


def longtail_counts(n: int, m_max: int, imb_ratio: float) -> np.ndarray:
    """Exponentially decaying counts m_k = m_max * ratio^(-(k-1)/(n-1)).

    Rounded half-up and floored at one example per class; the first class
    keeps m_max and the last lands near m_max / imb_ratio.
    """
    if n < 2 or m_max < 1 or imb_ratio < 1:
        raise ValueError("need n >= 2, m_max >= 1, imb_ratio >= 1")
    k = np.arange(n, dtype=np.float64)
    raw = m_max * imb_ratio ** (-k / (n - 1))
    return np.maximum(_round_half_up(raw), 1)


def step_counts(
    n: int, m_maj: int, imb_ratio: float, minority_fraction: float = 0.5
) -> np.ndarray:
    """Two-group counts: the last ceil(n * fraction) classes are minority.

    Minority classes share round(m_maj / imb_ratio) (floored at 1), the
    rest share m_maj.
    """
    if n < 2 or m_maj < 1 or imb_ratio < 1:
        raise ValueError("need n >= 2, m_maj >= 1, imb_ratio >= 1")
    if not (0.0 < minority_fraction < 1.0):
        raise ValueError("minority_fraction must lie in (0, 1)")
    n_min = int(np.ceil(n * minority_fraction))
    if n_min < 1:
        raise ValueError("at least one minority class required")
    counts = np.full(n, m_maj, dtype=np.int64)
    counts[n - n_min:] = max(int(_round_half_up(m_maj / imb_ratio)), 1)
    return counts


def imbalance_ratio(counts) -> float:
    """max_k m_k / min_k m_k."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("counts must be >= 1")
    return float(counts.max() / counts.min())


def subsample(dataset: Dataset, target_counts, seed) -> Dataset:
    """Uniform without-replacement per-class subsample, seeded.

    Feature-label pairing is preserved (rows are selected whole); the
    selected rows keep their original relative order.
    """
    target = np.asarray(target_counts, dtype=np.int64)
    if target.shape != (dataset.n,):
        raise ValueError(f"target_counts must have length {dataset.n}")
    available = dataset.class_counts()
    if np.any(target > available):
        bad = int(np.argmax(target > available)) + 1
        raise ValueError(
            f"class {bad} has {available[bad - 1]} examples, "
            f"need {target[bad - 1]}"
        )
    if np.any(target < 1):
        raise ValueError("target counts must be >= 1")
    rng = _rng(seed)
    keep = []
    for k in range(1, dataset.n + 1):
        rows = np.flatnonzero(dataset.labels == k)
        keep.append(rng.choice(rows, size=target[k - 1], replace=False))
    keep = np.sort(np.concatenate(keep))
    meta = dict(dataset.meta)
    meta.update(subsample_seed=_seed_repr(seed), counts=target.tolist())
    return Dataset(dataset.features[keep], dataset.labels[keep], dataset.n, meta)


def gaussian_mixture(
    n: int, d: int, counts, means, scales, seed
) -> Dataset:
    """Isotropic Gaussian blobs: counts_k draws from N(mean_k, scale_k^2 I)."""
    counts = np.asarray(counts, dtype=np.int64)
    means = np.asarray(means, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if counts.shape != (n,) or means.shape != (n, d) or scales.shape != (n,):
        raise ValueError("counts (n,), means (n, d), and scales (n,) required")
    if np.any(counts < 1) or np.any(scales < 0):
        raise ValueError("counts must be >= 1 and scales >= 0")
    rng = _rng(seed)
    features = np.concatenate([
        means[k] + scales[k] * rng.standard_normal((counts[k], d))
        for k in range(n)
    ])
    labels = np.repeat(np.arange(1, n + 1), counts)
    meta = {
        "profile": "gaussian_mixture",
        "seed": _seed_repr(seed),
        "rng": RNG_ALGORITHM,
        "counts": counts.tolist(),
        "imb_ratio": imbalance_ratio(counts),
    }
    return Dataset(features, labels, n, meta)


def figure1_distribution(m: int, seed) -> Dataset:
    """Two-class 2-d sample with prior 1/8 on class 1.

    x1 ~ U[0, 1]; given the sign label y in {+1, -1} (class 1 maps to +1,
    class 2 to -1), x2 | x1 ~ N(y * x1, x1^2). At x1 = 0 the conditional
    degenerates and x2 is exactly 0.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    rng = _rng(seed)
    plus = rng.random(m) < 0.125
    sign = np.where(plus, 1.0, -1.0)
    x1 = rng.random(m)
    x2 = sign * x1 + x1 * rng.standard_normal(m)
    labels = np.where(plus, 1, 2)
    meta = {
        "profile": "figure1",
        "seed": _seed_repr(seed),
        "rng": RNG_ALGORITHM,
        "counts": np.bincount(labels - 1, minlength=2).tolist(),
    }
    return Dataset(np.column_stack([x1, x2]), labels, 2, meta)


def random_discrete_joint(
    num_x: int, n: int, p_min_floor: float, seed
) -> DiscreteJoint:
    """Random finite joint whose class marginals all reach p_min_floor.

    Class marginals are floor + (1 - n * floor) * (random simplex point);
    each class's conditional p(x | y) is positive random mass normalized
    over the grid, so every cell is strictly positive.
    """
    if num_x < 1 or n < 2:
        raise ValueError("need num_x >= 1 and n >= 2")
    if not (0.0 < p_min_floor < 1.0 / n):
        raise ValueError(f"p_min_floor must lie in (0, 1/{n})")
    rng = _rng(seed)
    w = rng.uniform(0.2, 1.0, size=n)
    marginals = p_min_floor + (1.0 - n * p_min_floor) * (w / w.sum())
    cond = rng.uniform(0.05, 1.0, size=(num_x, n))
    cond /= cond.sum(axis=0, keepdims=True)
    return DiscreteJoint(cond * marginals[None, :])


# ---------------------------------------------------------------------------
# File format: CSV with header f0,...,f{d-1},label (floats printed with 17
# significant digits, labels 1-based) plus a JSON metadata sidecar.
# ---------------------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, csv_path, meta_path=None) -> None:
    lines = [",".join([f"f{j}" for j in range(dataset.d)] + ["label"])]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{label}")
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if meta_path is not None:
        meta = dict(dataset.meta)
        meta.setdefault("counts", dataset.class_counts().tolist())
        meta["n"] = dataset.n
        meta["d"] = dataset.d
        meta["m"] = dataset.m
        with open(meta_path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")


class DatasetShapeError(ValueError):
    """A split with a non-numeric field, a label that is not a whole
    number in 1..n, a class without an example, a header not ending in
    ``label``, a sidecar that is not a JSON object or whose n is not the
    expected one, or rows or columns that disagree with its header or
    sidecar."""


def read_dataset_csv(csv_path, meta_path=None, n: int | None = None) -> Dataset:
    """Read a split written by :func:`write_dataset_csv`; every field must
    be a number and every label a whole number in 1..n, every class must
    occur, its header must end in ``label``, its sidecar must be a JSON
    object whose n, if it has one, is the given n, and its shape must
    match its header and the sidecar's m and d (DatasetShapeError)."""
    with open(csv_path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header[-1] != "label":
            raise DatasetShapeError(f"{csv_path}: last column must be 'label'")
        d = len(header) - 1
        try:
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DatasetShapeError(f"{csv_path}: {exc}") from None
    meta = {}
    if meta_path is not None:
        with open(meta_path, "r", encoding="ascii") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:
                raise DatasetShapeError(f"{meta_path}: {exc}") from None
        if not isinstance(meta, dict):
            raise DatasetShapeError(f"{meta_path}: not a JSON object")
        if n is not None and meta.get("n", n) != n:
            raise DatasetShapeError(f"{meta_path}: n is {meta['n']!r}, "
                                    f"expected {n}")
        n = meta.get("n", n)
    if raw.shape != (meta.get("m", len(raw)), d + 1) or meta.get("d", d) != d:
        raise DatasetShapeError(
            f"{csv_path}: {len(raw)} rows of {raw.shape[1]} columns disagree "
            f"with its header or sidecar")
    labels = raw[:, d]
    n = labels.max() if n is None else n
    if not (isinstance(n, (int, float)) and np.all(
            (labels >= 1) & (labels <= n) & (labels == np.floor(labels)))
            # a bincount, not np.unique, whose first call loads 1.5 MB
            and np.bincount(labels.astype(np.int64) - 1,
                            minlength=int(n)).all()):
        raise DatasetShapeError(
            f"{csv_path}: labels must be whole numbers in 1..{n}, "
            f"every class present")
    return Dataset(raw[:, :d], labels.astype(np.int64), int(n), meta)
