"""Linear and small MLP score models plus a deterministic SGD trainer.

The optimizer is mini-batch SGD with Nesterov momentum in the lookahead
form

    v <- mu * v - lr * grad L(w + mu * v);   w <- w + v,

decoupled L2 weight decay applied to weight matrices only (never to
biases), and an optional per-class L2 norm cap on linear weight rows
enforced by projection after every step. Given a seed, a training run is
bitwise deterministic.

There is one SGD loop, and it trains R runs in lockstep: runs that share
every TrainConfig field but the seed, and that train on one shared
dataset or each on its own dataset of the same shape. Their parameters
are stacked along a leading model axis and each run keeps its own
generator, loss and label statistics, so every run's model and history
are bit for bit those of training it alone. One loss call per step covers
the whole stack; it reads each run's loss from one row of a loss table,
built once per stack. That loop, ``train_lockstep``, takes every grid
point and seed of a sweep on shared data, as ``imbloss train`` does,
resamples each with its own train set, as ``verify margin`` does, or one
run as a stack of one. There is also one forward pass, over such stacks: a
model's ``scores`` runs it on a stack of one.

The forward pass writes the scores class-major, (n, R, B), the layout
the loss core reads, and the loss returns its gradient in that layout.
One division by the batch size lays it out as (R, B, n), each run's rows
n apart as in a solo run, for the weight products: BLAS's matrix-vector
product, which numpy takes for a layer of width 1, may round otherwise
at another row stride. Each of these computes every number as the solo
run's 2-d arrays do.

Prediction always uses the raw scores h(x, .): the prior-based logit
adjustments of the adjusted losses live inside the loss and are never
applied at prediction time.

``best_in_class_search`` finds the best norm-bounded two-class linear
scorer, deterministically: an exact angular sweep for the prior-weighted
zero-one objective and, for a smooth surrogate, the damped Newton driver
of the conditional-error oracle on w_1 - w_2 over its ball, which finds
the global optimum of every loss convex in the weights (every q = 0
family) and a stationary point of the others. That resolves geometry
questions such as where a bounded family places its decision boundary.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from .datagen import Dataset, replacing
from .losses import LossSpec, batch_loss_and_grad, loss_table
from .numerics import argmax_highest, newton_minimize, project_rows


@dataclass
class TrainConfig:
    """Optimization settings; epochs and batch_size must be >= 1."""

    epochs: int = 200
    batch_size: int = 64
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    schedule: str = "cosine"  # cosine | constant

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr0 < 0:
            raise ValueError("lr0 must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay lr0 * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps < 1 or not (0 <= step <= total_steps):
        raise ValueError("need 0 <= step <= total_steps, total_steps >= 1")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


class _Model:
    """What both model classes derive from their ``_layers()``: the class
    count n, the input dimension d and the scores, which come from the one
    forward pass, :func:`_forward`, on a stack of one model."""

    @property
    def n(self) -> int:
        return self._layers()[-1][0].shape[0]

    @property
    def d(self) -> int:
        return self._layers()[0][0].shape[1]

    def copy(self):
        """A copy with arrays of its own, bit for bit this model's: a
        bounded row at its bound is not projected again."""
        return deepcopy(self)

    def scores(self, X) -> np.ndarray:
        """Scores of one input (d,) or of a batch (B, d)."""
        X = np.asarray(X, dtype=np.float64)
        layers = self._layers()
        out = _forward([w[None] for w, _ in layers],
                       [b[None, None] for _, b in layers],
                       X.reshape(1, -1, X.shape[-1]))[-1][:, 0].T
        return out[0] if X.ndim == 1 else out


class LinearModel(_Model):
    """Per-class linear scorer h(x, y) = w_y . x + b_y.

    ``norm_bound`` caps ||w_y||_2 for every class; the cap is enforced by
    projection, so after any update every row satisfies the bound. With
    ``use_bias=False`` the biases stay exactly zero.
    """

    kind = "linear"

    def __init__(self, weights, biases, norm_bound=None, use_bias=True):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (n, d) and biases (n,)")
        self.norm_bound = None if norm_bound is None else float(norm_bound)
        self.use_bias = bool(use_bias)
        if self.norm_bound is not None and not self.norm_bound > 0:
            raise ValueError(f"norm_bound must be positive, got {norm_bound}")
        self.project()

    @classmethod
    def init_random(cls, n, d, seed, norm_bound=None, use_bias=True):
        """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) weights, zero biases."""
        rng = np.random.default_rng(seed)
        limit = 1.0 / np.sqrt(d)
        weights = rng.uniform(-limit, limit, size=(n, d))
        return cls(weights, np.zeros(n), norm_bound, use_bias)

    def project(self) -> None:
        if self.norm_bound is not None:
            project_rows(self.weights, self.norm_bound)

    def _layers(self):
        return [(self.weights, self.biases)]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "norm_bound": self.norm_bound,
            "use_bias": self.use_bias,
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
        }


class MlpModel(_Model):
    """Fully connected rectifier network with n output scores.

    ``widths`` is (d, hidden..., n). A desk-scale stand-in for larger
    architectures; supports the same training loop as LinearModel.
    """

    kind = "mlp"

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching weight/bias lists")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("layer weights must be (out, in), biases (out,)")
        self.norm_bound = None
        self.use_bias = True

    @classmethod
    def init_random(cls, widths, seed):
        if len(widths) < 2:
            raise ValueError("widths needs at least input and output sizes")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def _layers(self):
        return list(zip(self.weights, self.biases))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "widths": [self.d] + [w.shape[0] for w in self.weights],
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }


def save_checkpoint(model, path) -> None:
    """JSON checkpoint with shapes and row-major float64 arrays."""
    with replacing(path) as fh:
        json.dump(model.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, "r", encoding="ascii") as fh:
        blob = json.load(fh)
    if blob["kind"] == "linear":
        return LinearModel(blob["weights"], blob["biases"],
                           blob["norm_bound"], blob["use_bias"])
    if blob["kind"] == "mlp":
        return MlpModel(blob["weights"], blob["biases"])
    raise ValueError(f"unknown checkpoint kind {blob['kind']!r}")


def predict_batch(model, X) -> np.ndarray:
    """1-based predicted class of each row of X; ties go to the highest
    class index."""
    return argmax_highest(model.scores(X)) + 1


class TrainingDiverged(RuntimeError):
    """A batch produced non-finite scores or loss: returned by
    train_lockstep as that run's outcome."""


def _forward(weights, biases, X):
    """Activations of stacked rectifier networks; the last are the scores.

    Every array carries a leading model axis: X is (R, B, d), weights[i]
    is (R, out, in), biases[i] is (R, 1, out) and each hidden activation
    is rectified, (R, B, out). A linear model is one layer. Batched matmul
    computes each slice as the 2-d product would. The scores are
    class-major, (n, R, B), the layout the loss core reads: the last
    layer writes each run's W A^T into them, whose entries are the dot
    products of A W^T, bit for bit.
    """
    acts = [X]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(np.matmul(acts[-1], w.transpose(0, 2, 1)) + b,
                               0.0))
    w, b = weights[-1], biases[-1]
    scores = np.empty((w.shape[1],) + X.shape[:2])
    np.matmul(w, acts[-1].transpose(0, 2, 1), out=scores.transpose(1, 0, 2))
    scores += b.transpose(2, 0, 1)
    acts.append(scores)
    return acts


def _backward(weights, acts, dscores, bias_grads):
    """Gradients of the stacked layers: weights first, then biases unless
    bias_grads is False."""
    wgrads, bgrads = [], []
    delta = dscores
    for i in range(len(weights) - 1, -1, -1):
        wgrads.insert(0, np.matmul(delta.transpose(0, 2, 1), acts[i]))
        if bias_grads:
            # A bias gradient adds the batch's samples in the order of a
            # solo run's axis-0 sum over its (B, out) delta: one by one,
            # as numpy adds the leading axis of a contiguous (B, R, out)
            # copy, faster than axis 1 of (R, B, out); but pairwise at
            # out = 1, as numpy sums each run's (B, 1) column of delta.
            bgrads.insert(0, delta.sum(axis=1, keepdims=True)
                          if delta.shape[2] == 1 else np.ascontiguousarray(
                              delta.transpose(1, 0, 2)).sum(axis=0)[:, None])
        if i:
            delta = np.matmul(delta, weights[i]) * (acts[i] > 0)
    return wgrads + bgrads


# The loop reads non-finite scores and losses as divergence itself, so
# numpy's divide, overflow and invalid warnings would only repeat it.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def train_lockstep(models, data, spec, cfgs):
    """Mini-batch SGD with Nesterov momentum for several models in
    lockstep, one per config; cfgs may differ only in their seed, and the
    models must share one architecture. The input models are not mutated.

    ``data`` is one Dataset that every run trains on, or a list of one
    Dataset per model, all with the same m, n and d; each run then draws
    its batches and its label statistics from its own. ``spec`` is one
    LossSpec, or a list of one per model of any families.

    Returns one outcome per model, in order: ``(model, history)``, where
    ``history`` is the per-epoch mean training loss (averaged over the
    examples visited in the epoch, evaluated at the lookahead point where
    gradients are computed), or the TrainingDiverged of a run whose
    scores or loss turned non-finite: that run leaves the stack at that
    step and the others go on.

    The R parameter sets are stacked along a leading model axis, and each
    run keeps its own generator, which draws its epoch permutations and,
    for an EQUAL run only, its gates, in the order a solo run draws them.
    Every operation acts on each slice as the solo loop acts on its
    arrays, so each outcome is bit for bit that of training the run in a
    stack of its own. Runs with their own datasets train on them
    concatenated, each run's permutations offset to its own rows. The
    loss table has one row per run, built from its spec and its own label
    statistics; a run that leaves takes its row with it.
    """
    if len(models) != len(cfgs) or not models:
        raise ValueError("need one config per model, and at least one model")
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("lockstep configs may differ only in seed")
    specs = [spec] * len(models) if isinstance(spec, LossSpec) else spec
    if len(specs) != len(models):
        raise ValueError("need one loss spec per model")
    if isinstance(data, Dataset):
        features, labels = data.features, data.labels
        run_stats = [data.stats()] * len(models)
        offsets = np.zeros(len(models), dtype=np.int64)
    else:
        if len(data) != len(models):
            raise ValueError("need one dataset per model")
        if any((x.m, x.n, x.d) != (data[0].m, data[0].n, data[0].d)
               for x in data):
            raise ValueError("lockstep datasets must share m, n and d")
        features = np.concatenate([x.features for x in data])
        labels = np.concatenate([x.labels for x in data])
        run_stats = [x.stats() for x in data]
        offsets = np.arange(len(data)) * data[0].m
        data = data[0]  # for m, n and d, which every dataset shares
    first = models[0]
    shapes = [(w.shape, b.shape) for w, b in first._layers()]
    for model in models:
        if model.d != data.d:
            raise ValueError(f"model expects d={model.d}, data has d={data.d}")
        if model.n != data.n:
            raise ValueError(f"model expects n={model.n}, data has n={data.n}")
        if (type(model) is not type(first)
                or [(w.shape, b.shape) for w, b in model._layers()] != shapes
                or model.norm_bound != first.norm_bound
                or model.use_bias != first.use_bias):
            raise ValueError("lockstep models must share one architecture")
    table = loss_table(list(zip(specs, run_stats)), data.n)
    models = [model.copy() for model in models]
    depth = len(shapes)
    norm_bound = first.norm_bound
    # Every layer's weights, then every layer's biases as (R, 1, out).
    arrays = [np.stack([model._layers()[i][0] for model in models])
              for i in range(depth)]
    arrays += [np.stack([model._layers()[i][1] for model in models])[:, None]
               for i in range(depth)]
    # Velocities pair with the leading arrays: the weights, then the
    # biases when they train. zip() below stops at the last velocity.
    velocity = [np.zeros_like(a)
                for a in arrays[:2 * depth if first.use_bias else depth]]
    # Per-run state is indexed by stack slice, so the runs that diverge
    # leave every stack through one boolean mask.
    rngs = np.array([np.random.default_rng(c.seed) for c in cfgs])
    live = np.arange(len(models))  # run index of each stack slice
    outcomes = [None] * len(models)
    histories = [[] for _ in models]

    m = data.m
    batches_per_epoch = (m + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * batches_per_epoch
    step = 0
    for epoch in range(cfg.epochs):
        orders = np.stack([rng.permutation(m) for rng in rngs])
        orders += offsets[:, None]
        loss_sums = np.zeros(live.size)
        for b in range(batches_per_epoch):
            batch = orders[:, b * cfg.batch_size:(b + 1) * cfg.batch_size]
            size = batch.shape[1]
            lr = (cosine_lr(step, total_steps, cfg.lr0)
                  if cfg.schedule == "cosine" else cfg.lr0)

            # Lookahead: evaluate the gradient at w + mu * v; the update
            # reads the same mu * v.
            ahead = [cfg.momentum * v for v in velocity]
            for p, mv in zip(arrays, ahead):
                p += mv
            acts = _forward(arrays[:depth], arrays[depth:],
                            features.take(batch, axis=0))
            scores = acts.pop()  # class-major (n, R, B)
            # each run draws its own EQUAL gates, if any, from its rng;
            # the gradient comes back class-major as well
            values, dscores = batch_loss_and_grad(
                table, scores, labels.take(batch).reshape(-1), rng=rngs)
            values = values.reshape(live.size, size)
            # Non-finite scores need not give a non-finite loss (a -inf
            # score of a class other than the label does not), so both are
            # read.
            if not (np.isfinite(values).all()
                    and np.isfinite(scores).all()):
                finite = np.isfinite(scores).all(axis=(0, 2))
                ok = finite & np.isfinite(values).all(axis=1)
                for r in np.flatnonzero(~ok):
                    outcomes[live[r]] = TrainingDiverged(
                        f"non-finite {'loss' if finite[r] else 'scores'} "
                        f"at epoch {epoch}, step {step} "
                        f"(family={specs[live[r]].family}, lr={lr:.6g})")
                live, rngs, orders, loss_sums, offsets = (
                    x[ok] for x in (live, rngs, orders, loss_sums, offsets))
                if not live.size:
                    return outcomes
                arrays, velocity, ahead, acts = (
                    [a[ok] for a in x]
                    for x in (arrays, velocity, ahead, acts))
                values, dscores, table = values[ok], dscores[:, ok], table[ok]
            del scores  # not alive through the backward pass: a lower peak
            loss_sums += values.sum(axis=1)
            # each run's rows of the gradient n apart, as a solo run's
            delta = np.divide(dscores.transpose(1, 2, 0), size, order="C")
            grads = _backward(arrays[:depth], acts, delta, first.use_bias)
            for i, (p, mv, g) in enumerate(zip(arrays, ahead, grads)):
                velocity[i] = mv - lr * g
                p += velocity[i] - mv
                if i < depth and cfg.weight_decay > 0.0:
                    p *= 1.0 - lr * cfg.weight_decay
            if norm_bound is not None:
                project_rows(arrays[0], norm_bound)
            step += 1
        for run, loss_sum in zip(live, loss_sums):
            histories[run].append(float(loss_sum / m))

    for r, run in enumerate(live):
        model = models[run]
        for (w, b), ws, bs in zip(model._layers(), arrays[:depth],
                                  arrays[depth:]):
            w[...] = ws[r]
            b[...] = bs[r, 0]
        outcomes[run] = (model, histories[run])
    return outcomes


# ---------------------------------------------------------------------------
# Best-in-class search over norm-bounded linear scorers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedLinearFamily:
    """Linear scorers h(x, y) = w_y . x with ||w_y||_2 <= norm_bound.

    No bias term: decision boundaries pass through the origin. The cap is
    a closed ball rather than a sphere, which searches the same losses:
    these objectives depend only on weight-row differences, and any
    difference feasible in the ball is realizable with every row at
    exactly the bound (put the slack in a common orthogonal component).
    With two classes that difference delta = w_1 - w_2 ranges over
    ||delta|| <= 2 norm_bound, reached by w_1 = delta / 2 = -w_2.
    """

    n: int
    d: int
    norm_bound: float

    def __post_init__(self):
        if not (np.isfinite(self.norm_bound) and self.norm_bound > 0):
            raise ValueError("norm_bound must be finite and positive, "
                             f"got {self.norm_bound}")

    def random_model(self, rng) -> LinearModel:
        raw = rng.standard_normal((self.n, self.d))
        raw *= self.norm_bound / np.linalg.norm(raw, axis=1, keepdims=True)
        return LinearModel(raw, np.zeros(self.n),
                           norm_bound=self.norm_bound, use_bias=False)


def _delta_objective(table, X_t, labels, weights, delta):
    """The weighted loss of the scorer w_1 = delta / 2 = -w_2 and its
    gradient in delta. np.sum adds the m terms of each row of X_t = X.T
    in a fixed order, where BLAS would split them by thread count."""
    half = 0.5 * (delta @ X_t)
    values, dscores = batch_loss_and_grad(
        table, np.stack([half, -half])[:, None], labels)
    grad = np.sum((dscores[0, 0] - dscores[1, 0]) * (0.5 * weights) * X_t,
                  axis=1)
    return float(np.sum(weights * values)), grad


def _weighted_balanced_error(model, X, labels, weights, inv_priors):
    preds = predict_batch(model, X)
    wrong = (preds != labels).astype(np.float64)
    return float(np.sum(weights * wrong * inv_priors[labels - 1]))


def _balanced_direction(X, labels, cost):
    """The angle t of delta = w_1 - w_2 = (cos t, sin t) that minimises
    the two-class error weighted by ``cost``, exactly.

    A point x predicts class 1 iff delta . x > 0 (ties go to class 2, so
    x = 0 always does), that is iff t lies within pi/2 of the angle of x.
    The error is constant on the arcs between the 2m breakpoints
    angle(x_i) +- pi/2; one cumulative sum over the sorted breakpoints
    gives it on every arc, up to a common constant. Returns the midpoint
    of the first best arc. A breakpoint itself can only do better when two
    points lie on exactly opposite rays from the origin.
    """
    alpha = np.arctan2(X[:, 1], X[:, 0])
    # Rising past angle(x) - pi/2 turns x to class 1, which moves the
    # error by -cost for label 1 and +cost for label 2; rising past
    # angle(x) + pi/2 undoes it. A point at x = 0 never turns.
    step = np.where(labels == 1, -cost, cost) * np.any(X != 0.0, axis=1)
    breaks = np.mod(np.concatenate([alpha - np.pi / 2, alpha + np.pi / 2]),
                    2 * np.pi)
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    errors = np.cumsum(np.concatenate([step, -step])[order])
    ends = np.append(breaks[1:], breaks[0] + 2 * np.pi)
    # No direction lies strictly between equal breakpoints.
    k = int(np.argmin(np.where(ends > breaks, errors, np.inf)))
    return 0.5 * (breaks[k] + ends[k])


def best_in_class_search(family: BoundedLinearFamily, data: Dataset,
                         objective):
    """The best model of the bounded linear family on a two-class sample.

    ``objective`` is the string "balanced" (the prior-weighted zero-one
    objective) or a LossSpec. "balanced" needs d = 2; it only depends on
    the boundary's direction, and an angular sweep over it finds the exact
    optimum, with rows at the bound. A LossSpec runs the damped Newton
    driver of the conditional-error oracle, ``numerics.newton_minimize``,
    on delta = w_1 - w_2 from 0 over the ball ||delta|| <= 2 norm_bound.
    Its result is the global optimum when the loss is convex in the
    weights (every q = 0 family, LA and CE among them) and a stationary
    point otherwise. Deterministic.

    Returns (best_model, best_objective_value).
    """
    X, labels, stats = data.features, data.labels, data.stats()
    weights = np.full(data.m, 1.0 / data.m)
    bound = family.norm_bound
    if objective == "balanced":
        if (family.n, family.d, data.n, data.d) != (2, 2, 2, 2):
            raise ValueError("the balanced search needs n = 2 and d = 2")
        theta = _balanced_direction(
            X, labels, weights * stats.inv_priors[labels - 1])
        row = bound * np.array([np.cos(theta), np.sin(theta)])
        model = LinearModel(np.stack([row, -row]), np.zeros(2), bound,
                            use_bias=False)
        return model, _weighted_balanced_error(model, X, labels, weights,
                                               stats.inv_priors)
    if not isinstance(objective, LossSpec):
        raise ValueError(f"unknown objective {objective!r}")
    if (family.n, data.n) != (2, 2) or family.d != data.d:
        raise ValueError("the smooth search needs n = 2 and the data's d")

    sample = (loss_table([(objective, stats)], 2), np.ascontiguousarray(X.T),
              labels, weights)

    def rows_objective(ids, rows):
        # one loss call per delta: at m = 50,000 one call on all 2d rows of
        # a Hessian tile peaks at four times the memory
        values, grads = zip(*(_delta_objective(*sample, row) for row in rows))
        return np.array(values), np.array(grads)

    start = np.zeros((1, data.d))
    (delta,), (value,) = newton_minimize(
        rows_objective, start, *rows_objective(None, start), np.eye(data.d),
        1, radius=2.0 * bound)
    # the driver projects until the projection is a no-op, so LinearModel
    # leaves delta / 2 as it is
    return LinearModel(np.stack([delta, -delta]) / 2, np.zeros(2), bound,
                       use_bias=False), float(value)


def boundary_angle_degrees(model: LinearModel) -> float:
    """Angle in [0, 90] between a 2-class 2-d boundary and the x1-axis.

    The decision boundary of a no-bias two-class linear scorer is the
    line (w_1 - w_2) . x = 0; the angle is measured against x2 = 0.
    """
    if model.n != 2 or model.d != 2:
        raise ValueError("needs a 2-class, 2-d linear model")
    delta = model.weights[0] - model.weights[1]
    return float(np.degrees(np.arctan2(abs(delta[0]), abs(delta[1]))))
