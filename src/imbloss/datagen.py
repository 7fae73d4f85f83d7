"""Synthetic imbalanced datasets, and the text files imbloss writes.

:class:`Dataset` holds feature vectors with 1-based integer labels plus
provenance metadata, written/read as CSV with a JSON sidecar. Every file
the package writes goes through :func:`replacing`, as CSV by
:func:`write_csv` or as JSON by :func:`write_json`, so a reader finds the
old file or the whole new one.

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

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import ClassStats

RNG_ALGORITHM = "numpy-pcg64"


def _seed_repr(seed):
    """JSON-friendly form of a seed (ints pass through, others stringify)."""
    if seed is None or isinstance(seed, (int, np.integer)):
        return None if seed is None else int(seed)
    return str(seed)


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass
class Dataset:
    """Feature matrix (m, d) with 1-based labels in 1..n and metadata.

    Both arrays are stored C-contiguous: the trainer gathers batches from
    their rows with ``take``, which copies a strided source whole, and a
    strided view, such as a column slice of a CSV array, is copied once
    here instead, which also frees the array behind it."""

    features: np.ndarray
    labels: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, np.float64, order="C")
        self.labels = np.asarray(self.labels, np.int64, order="C")
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
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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


# ---------------------------------------------------------------------------
# Text files. CSV: a header line, then one line per row; floats printed
# with 17 significant digits, a cell holding a comma or a quote quoted. A
# split is a CSV with header f0,...,f{d-1},label (labels 1-based) plus a
# JSON metadata sidecar.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def replacing(path):
    """Open a temp file in path's directory, which it makes, for writing
    and os.replace it onto path when the block completes, so a reader
    finds the old file or the whole new one; a block that raises leaves
    no temp file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """payload as JSON, keys sorted, indented by 2, newline-terminated."""
    with replacing(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    """One CSV line for the header and one for each row of cells."""
    with replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def write_dataset_csv(dataset: Dataset, csv_path, meta_path=None) -> None:
    write_csv(csv_path, [f"f{j}" for j in range(dataset.d)] + ["label"],
              ([*row, label] for row, label in zip(dataset.features.tolist(),
                                                   dataset.labels.tolist())))
    if meta_path is not None:
        meta = dict(dataset.meta)
        meta.setdefault("counts", dataset.class_counts().tolist())
        meta["n"] = dataset.n
        meta["d"] = dataset.d
        meta["m"] = dataset.m
        write_json(meta_path, meta)


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
