"""Per-layer metrics of a traced run, and the per-family loss timings.

``PER_LAYER`` fixes the names, units and order of every per-layer metric;
BENCHMARK.json lists the same rows. A metric of a layer that a workload
does not exercise reads 0 on that workload.
"""

from __future__ import annotations

import time

SHAPES = ("64x10", "50000x2")
# One representative hyperparameter setting per family: the sweep's middle
# q for the generalized families, the first standard grid value otherwise.
FAMILY_PARAMS = {
    "CE": {}, "WCE": {}, "LA": {"tau": 1.0},
    "EQUAL": {"eq_p": 0.5, "eq_lambda": 0.00176},
    "CB": {"gamma": 0.999}, "FOCAL": {"gamma": 2.0}, "LDAM": {"cap_c": 0.5},
    "GCE": {"q": 0.3}, "GLA": {"q": 0.3}, "GCA": {"q": 0.3},
    "CSMAX": {"rho_margin": 1.0, "psi_tau": 1.0},
}

PER_LAYER = [
    ("cli.cmd_synth.s", "s"),
    ("cli.cmd_train.s", "s"),
    ("cli.cmd_train_resume.s", "s"),
    ("cli.cmd_report.s", "s"),
    ("cli.cmd_verify.bayes.s", "s"),
    ("cli.cmd_verify.bounds.s", "s"),
    ("cli.cmd_verify.margin.s", "s"),
    ("cli.cmd_verify.counterexample.s", "s"),
    ("cli.run_cache_hit_ratio", "ratio"),
    ("config.load_config.s", "s"),
    ("config.synthesize_splits.s", "s"),
    ("datagen.read_dataset_csv.calls", "count"),
    ("datagen.read_dataset_csv.s", "s"),
    ("datagen.write_dataset_csv.s", "s"),
    ("datagen.gaussian_mixture.calls", "count"),
    ("datagen.gaussian_mixture.s", "s"),
    ("trainer.train.calls", "count"),
    ("trainer.train.s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.train.steps", "count"),
    ("trainer.train.us_per_step", "us"),
    ("trainer.best_in_class_search.s", "s"),
    ("trainer.best_in_class_search.self_s", "s"),
    ("trainer.predict_batch.calls", "count"),
    ("trainer.predict_batch.s", "s"),
    ("trainer.save_checkpoint.s", "s"),
    ("losses.batch_loss_and_grad.calls", "count"),
    ("losses.batch_loss_and_grad.s", "s"),
    ("losses.batch_loss_and_grad.rows", "count"),
    ("losses.batch_loss_and_grad.ns_per_row", "ns"),
    ("losses.batch_loss_and_grad.computed_mb", "MB"),
    *[(f"losses.{family}.us_per_call.{shape}", "us")
      for family in FAMILY_PARAMS for shape in SHAPES],
    ("numerics.log_softmax.calls", "count"),
    ("numerics.log_softmax.s", "s"),
    ("numerics.as_finite_array.calls", "count"),
    ("theory.minimize_conditional_error.calls", "count"),
    ("theory.minimize_conditional_error.s", "s"),
    ("theory.check_gla_bound.s", "s"),
    ("theory.check_gca_bound.s", "s"),
    ("theory.check_theorem5_bound.s", "s"),
    ("theory.check_lamargin.s", "s"),
    ("theory.empirical_rademacher_linear.s", "s"),
    ("theory.find_la_disagreement.s", "s"),
    ("metrics.balanced_error.calls", "count"),
    ("metrics.balanced_error.s", "s"),
    ("metrics.per_class_error.s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every span-derived row of PER_LAYER as name -> value.

    ``traced_wall`` is the summed wall time of the traced commands and
    ``untraced_wall`` the median wall time of untraced passes.
    """
    summary = tracer.summary()
    roots = tracer.roots()
    values: dict[str, float] = {}

    def spans(name, step=None):
        return [i for i, n in enumerate(tracer.names) if n == name
                and (step is None or tracer.names[roots[i]] == step)]

    def seconds(indices):
        return sum(tracer.ends[i] - tracer.starts[i] for i in indices)

    for metric, _ in PER_LAYER:
        layer_fn, _, key = metric.rpartition(".")
        row = summary.get(layer_fn)
        if row is not None and key in row:
            values[metric] = row[key]

    for step in ("synth", "train", "train_resume", "report"):
        values[f"cli.cmd_{step}.s"] = seconds(spans(
            f"cli.cmd_{step.split('_')[0]}", f"step.{step}"))
    for i in spans("cli.cmd_verify"):
        name = f"cli.cmd_verify.{tracer.attrs[i]['suite']}.s"
        values[name] = values.get(name, 0.0) + seconds([i])

    lookups = sum(tracer.attrs[i]["lookups"] for i in spans("cli.cmd_train"))
    misses = sum(len(spans("trainer.train", f"step.{step}"))
                 for step in ("train", "train_resume"))
    values["cli.run_cache_hit_ratio"] = \
        (lookups - misses) / lookups if lookups else 0.0

    train = summary.get("trainer.train", {})
    steps = train.get("steps", 0)
    values["trainer.train.us_per_step"] = \
        train["self_s"] * 1e6 / steps if steps else 0.0
    loss = summary.get("losses.batch_loss_and_grad", {})
    rows = loss.get("rows", 0)
    values["losses.batch_loss_and_grad.ns_per_row"] = \
        loss["s"] * 1e9 / rows if rows else 0.0
    values["losses.batch_loss_and_grad.computed_mb"] = loss.get("bytes", 0) / 1e6

    covered = sum(tracer.ends[i] - tracer.starts[i]
                  for i, p in enumerate(tracer.parents)
                  if p >= 0 and tracer.parents[p] < 0)
    values["other.self_s"] = traced_wall - covered
    values["trace.overhead_s"] = traced_wall - untraced_wall

    return {name: values.get(name, 0) for name, _ in PER_LAYER
            if ".us_per_call." not in name}


def _time_calls(fn, inner: int, reps: int) -> list[float]:
    """Microseconds per call, one sample per rep of ``inner`` calls."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) * 1e6 / inner)
    return samples


def family_inputs(config: dict, figure1_seed: int):
    """(scores, labels, stats) at the sweep's training shape (a 64-row
    batch of its train split, n = 10) and at the counterexample shape
    (its 50,000-point sample, n = 2), scored by seeded random models."""
    import numpy as np

    from imbloss.config import synthesize_splits
    from imbloss.datagen import figure1_distribution
    from imbloss.trainer import BoundedLinearFamily, LinearModel

    rng = np.random.default_rng(config["dataset"]["seed"])
    train = synthesize_splits(config["dataset"])["train"]
    rows = rng.permutation(train.m)[:64]
    model = LinearModel.init_random(train.n, train.d, 0)
    small = (model.scores(train.features[rows]), train.labels[rows],
             train.stats())

    data = figure1_distribution(50_000, figure1_seed)
    bounded = BoundedLinearFamily(n=2, d=2, norm_bound=100.0)
    big = (bounded.random_model(rng).scores(data.features), data.labels,
           data.stats())
    return {"64x10": small, "50000x2": big}


def family_timings(config: dict, figure1_seed: int, smoke: bool) -> dict:
    """losses.<FAMILY>.us_per_call.<shape> -> per-rep samples of the mean
    per-call time of the unwrapped batch_loss_and_grad, in microseconds."""
    import numpy as np

    from imbloss.losses import LossSpec, batch_loss_and_grad, default_gca_margins

    inputs = family_inputs(config, figure1_seed)
    # (calls per rep, reps) per shape
    budget = {"64x10": (20, 2), "50000x2": (1, 2)} if smoke else \
        {"64x10": (300, 7), "50000x2": (3, 7)}
    out = {}
    for family, params in FAMILY_PARAMS.items():
        for shape in SHAPES:
            scores, labels, stats = inputs[shape]
            kwargs = dict(params)
            if family == "GCA":
                kwargs["margins"] = tuple(default_gca_margins(stats))
            spec = LossSpec(family, **kwargs)
            rng = np.random.default_rng(0)
            inner, reps = budget[shape]
            samples = _time_calls(
                lambda: batch_loss_and_grad(spec, scores, labels, stats,
                                            rng=rng), inner, reps)
            out[f"losses.{family}.us_per_call.{shape}"] = samples
    return out
