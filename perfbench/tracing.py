"""Span tracing for the imbloss modules, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper at each module attribute that holds it: the defining
module and every module that imported it by name (``from .losses import
batch_loss_and_grad`` binds ``trainer.batch_loss_and_grad``, which is where
the trainer looks it up). Nothing under ``src/`` changes. ``uninstall``
puts the original functions back.

Spans are kept in memory as parallel arrays and written out once, when the
traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "config", "datagen", "trainer", "losses", "numerics",
          "theory", "metrics")


def _batch_loss_probe(args, kwargs, result):
    """Rows, and bytes of the scores in plus values and gradients out."""
    scores = args[1] if len(args) > 1 else kwargs["scores"]
    values, grads = result
    nbytes = getattr(scores, "nbytes", 0) + values.nbytes
    if grads is not None:
        nbytes += grads.nbytes
    return {"rows": len(values), "bytes": nbytes}


def _train_probe(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    batches = (data.m + cfg.batch_size - 1) // cfg.batch_size
    return {"steps": cfg.epochs * batches}


def _verify_probe(args, kwargs, result):
    suite = args[0] if args else kwargs["suite"]
    return {"suite": suite}


def _train_cmd_probe(args, kwargs, result):
    """Run lookups of one ``cmd_train``: grid points x repeats."""
    config = args[0] if args else kwargs["config"]
    points = 1
    for key, value in config["loss"].items():
        if key != "margins" and isinstance(value, list):
            points *= len(value)
    return {"lookups": points * config["train"]["repeats"]}


# Extra counts recorded at a span's boundary, from its arguments and result.
PROBES = {
    "losses.batch_loss_and_grad": _batch_loss_probe,
    "trainer.train": _train_probe,
    "cli.cmd_verify": _verify_probe,
    "cli.cmd_train": _train_cmd_probe,
}


class Tracer:
    """Records one span per call of a wrapped function.

    A span is (name, start, end, parent); ``parent`` is the index of the
    enclosing span or -1. Harness steps open root spans with ``step``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def step(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a root span named ``step.<name>``."""
        idx = self._open(f"step.{name}")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                self.attrs[idx] = probe(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"imbloss.{layer}")
                   for layer in LAYERS}
        holders = [importlib.import_module("imbloss"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, hattr, fn))
                            setattr(holder, hattr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and summed
        probe counts."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            for key, value in self.attrs.get(i, {}).items():
                if isinstance(value, (int, float)):
                    row[key] = row.get(key, 0) + value
        return out

    def roots(self) -> list[int]:
        """Index of each span's root span (parents precede children)."""
        roots = []
        for i, p in enumerate(self.parents):
            roots.append(i if p < 0 else roots[p])
        return roots

    def write(self, path: Path) -> None:
        """Write every span as JSON: parallel columns plus a name table."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        payload = {
            "workload": self.workload,
            "clock": "perf_counter seconds since the tracer started",
            "columns": ["name", "start", "end", "parent"],
            "names": table,
            "name": [index[name] for name in self.names],
            "start": [round(t - self.t0, 7) for t in self.starts],
            "end": [round(t - self.t0, 7) for t in self.ends],
            "parent": self.parents.tolist(),
            "attrs": {str(i): a for i, a in self.attrs.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
