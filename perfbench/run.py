#!/usr/bin/env python3
"""The imbloss benchmark: end-to-end CLI timings and per-module traced timings.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``sweep``   - synth, fresh train, cached train, report on the README
                reference config (GCA, q in {0, 0.3, 0.5} x 5 seeds).
* ``verify``  - ``verify bayes``, ``verify bounds``, ``verify margin`` at
                their default budgets.
* ``figure1`` - ``verify counterexample`` at its default budget.

With ``--trace 0`` every command runs as a fresh ``python -m imbloss.cli``
process and the end-to-end metrics are printed. With ``--trace 1`` the same
commands run in this process through ``imbloss.cli.main`` with every public
function of the package wrapped in a timing span, and the per-layer metrics
are printed. ``--smoke`` shrinks every workload to toy size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything before it
is a readable report: environment, per-run wall times, every metric with
its unit and sample count, the failure fraction with its base, and the
digest of every output file. Results, digests and spans are also kept
under ``.bench_build/perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import REFERENCE_CHUNK_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("sweep", "verify", "figure1")
SETUP_PROBES = 3  # per pass
# BLAS stays single-threaded: the matrices are tiny, the load is one
# process with --jobs 1, and the setting is recorded with every result.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Default budgets of the verify suites, passed explicitly so the work per
# command stays fixed.
BUDGETS = {"bayes": 500, "bounds": 10_000, "margin": 10_000,
           "counterexample": 50_000}
SMOKE_BUDGETS = {"bayes": 6, "bounds": 20, "margin": 20,
                 "counterexample": 1000}
VERIFY_SUITES = ("bayes", "bounds", "margin")

# figure1 draws its data seed from a pool of seeds whose outcome is pinned
# in figure1_pins.json.
FIGURE1_POOL = 10
FIGURE1_LEGS = ("witness_tau0.5", "witness_tau2", "balanced", "GCA", "LA")

REFERENCE_CONFIG = """\
[dataset]
profile = longtail
n = {n}
d = {d}
m_max = {m_max}
imb_ratio = {imb_ratio}
seed = {seed}
test_m_max = {test_m_max}
val_fraction = 0.1
mean_scale = 0.8
noise_scale = 1.0

[loss]
family = GCA
q = 0.0, 0.3, 0.5
margins = default

[train]
model = linear
epochs = {epochs}
batch_size = 64
lr0 = 0.1
momentum = 0.9
weight_decay = 0.0
schedule = cosine
seed = {seed}
repeats = {repeats}

[eval]
metrics = balanced_error, per_class_error
"""
REFERENCE_SIZES = {"n": 10, "d": 20, "m_max": 500, "imb_ratio": 100,
                   "test_m_max": 200, "epochs": 200, "repeats": 5}
SMOKE_SIZES = {"n": 4, "d": 5, "m_max": 40, "imb_ratio": 10,
               "test_m_max": 20, "epochs": 2, "repeats": 2}
GRID_POINTS = 3


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass
class Command:
    step: str
    argv: list[str]
    rc: int = -1
    wall_s: float = 0.0
    ref_wall_s: float = 0.0    # wall_s at reference host speed
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    stdout: str = ""
    stderr: str = ""
    notes: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv: list[str], cwd: Path, speed: HostSpeed):
    """Run one child to completion: (rc, wall s, wall s at reference host
    speed, peak RSS MB, CPU s, out, err)."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        try:
            status, usage, wall, ref_wall = speed.wait(proc.pid, start)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux.
    return (proc.returncode, wall, ref_wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime, stdout, stderr)


class Subprocesses:
    """Untraced executor: one fresh interpreter per CLI command, its wall
    time also scaled to reference host speed."""

    def __init__(self, cwd: Path, speed: HostSpeed):
        self.cwd = cwd
        self.speed = speed

    def __call__(self, cmd: Command) -> Command:
        argv = [sys.executable, "-m", "imbloss.cli", *cmd.argv]
        (cmd.rc, cmd.wall_s, cmd.ref_wall_s, cmd.rss_mb, cmd.cpu_s,
         cmd.stdout, cmd.stderr) = run_process(argv, self.cwd, self.speed)
        return cmd


class InProcess:
    """Traced executor: ``imbloss.cli.main`` in this interpreter, each
    command inside a root span named after its workload step."""

    def __init__(self, tracer):
        import imbloss.cli

        self.cli = imbloss.cli
        self.tracer = tracer

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2

    def __call__(self, cmd: Command) -> Command:
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cmd.rc = self.tracer.step(cmd.step, self._main, list(cmd.argv))
        cmd.wall_s = time.perf_counter() - start
        cmd.cpu_s = time.process_time() - cpu
        cmd.stdout, cmd.stderr = out.getvalue(), err.getvalue()
        return cmd


# ---------------------------------------------------------------------------
# Workloads: each is a generator of commands plus a correctness gate.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Result of one pass through a workload's command sequence."""

    commands: list[Command]
    ops: int = 0               # operations attempted (fail_frac base)
    op_failures: int = 0       # fail_frac numerator
    unexpected: int = 0        # failures not in the pinned outcome
    base: str = ""
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def ref_wall_s(self) -> float:
        return sum(c.ref_wall_s for c in self.commands)

    def wall_of(self, step: str, ref: bool = False) -> float:
        return sum(c.ref_wall_s if ref else c.wall_s
                   for c in self.commands if c.step == step)


def violations_from(stdout: str) -> int | None:
    """Violation count from a ``verify[...]: ...`` line, None if absent."""
    for line in stdout.splitlines():
        if line.startswith("verify[") and "]: " in line:
            status = line.split("]: ", 1)[1].split(";", 1)[0]
            if status == "ok":
                return 0
            if status.endswith(" violations"):
                return int(status.split()[0])
    return None


def write_reference_config(path: Path, seed: int, smoke: bool) -> Path:
    sizes = SMOKE_SIZES if smoke else REFERENCE_SIZES
    path.write_text(REFERENCE_CONFIG.format(seed=seed, **sizes),
                    encoding="ascii")
    return path


def sweep_commands(wd: Path, seed: int, smoke: bool):
    ini = write_reference_config(wd / "exp.ini", seed, smoke)
    out = wd / "out"
    common = ["--config", str(ini), "--out", str(out), "--jobs", "1"]
    yield Command("synth", [*common, "synth"])
    yield Command("train", [*common, "train"])
    before = digest_tree(out / "runs")
    resume = yield Command("train_resume", [*common, "train"])
    resume.notes["runs_before"] = before
    run_dirs = sorted(str(p.parent) for p in out.glob("runs/*/*/metrics.json"))
    yield Command("report", ["--out", str(out / "report"), "report",
                             *run_dirs])


def sweep_gate(wd: Path, seed: int, smoke: bool, outcome: Outcome) -> None:
    sizes = SMOKE_SIZES if smoke else REFERENCE_SIZES
    expected_runs = GRID_POINTS * sizes["repeats"]
    out = wd / "out"
    runs = sorted(out.glob("runs/*/*/metrics.json"))
    statuses = [json.loads(p.read_text(encoding="ascii"))["status"]
                for p in runs]
    outcome.ops = expected_runs
    outcome.base = f"runs of the sweep ({GRID_POINTS} grid points x " \
                   f"{sizes['repeats']} seeds)"
    outcome.op_failures = expected_runs - statuses.count("ok")
    outcome.unexpected = outcome.op_failures
    if len(runs) != expected_runs:
        outcome.problems.append(f"{len(runs)} run dirs, expected {expected_runs}")
    if outcome.op_failures:
        outcome.problems.append(f"run statuses {statuses}")
    resume = next(c for c in outcome.commands if c.step == "train_resume")
    if f"train: {expected_runs} runs," not in resume.stdout:
        outcome.problems.append("cached train did not read every run: "
                                + resume.stdout.strip())
    after = digest_tree(out / "runs")
    if after != resume.notes["runs_before"]:
        outcome.problems.append("cached train changed run outputs")
    plot = out / "report" / "plot_data.csv"
    if not plot.exists() or len(plot.read_text().splitlines()) != expected_runs + 1:
        outcome.problems.append("report plot_data.csv lacks a row per run")
    outcome.digests = digest_tree(out)


def verify_commands(wd: Path, seed: int, smoke: bool):
    budgets = SMOKE_BUDGETS if smoke else BUDGETS
    for suite in VERIFY_SUITES:
        yield Command(f"verify.{suite}",
                      ["--out", str(wd / "out"), "--seed", str(seed),
                       "verify", suite, "--budget", str(budgets[suite])])


def verify_checks(suite: str, budget: int) -> int:
    """Checks a suite counts toward its violation total."""
    if suite == "bayes":
        return budget                   # one per trial
    if suite == "bounds":
        return 2 * budget               # GLA and GCA per trial
    return 2 + min(budget, 2000)        # ramp grid, domination trials, rate


def verify_gate(wd: Path, seed: int, smoke: bool, outcome: Outcome) -> None:
    budgets = SMOKE_BUDGETS if smoke else BUDGETS
    outcome.base = "checks counted by the bayes, bounds and margin suites"
    for cmd in outcome.commands:
        suite = cmd.step.split(".", 1)[1]
        outcome.ops += verify_checks(suite, budgets[suite])
        found = violations_from(cmd.stdout)
        if found is None:
            outcome.problems.append(f"{cmd.step}: no verify status "
                                    f"(rc {cmd.rc}): {cmd.stderr[-300:]}")
            continue
        outcome.op_failures += found
        if found or cmd.rc != 0:
            outcome.problems.append(f"{cmd.step}: {found} violations, rc {cmd.rc}")
    outcome.unexpected = outcome.op_failures
    outcome.digests = digest_tree(wd / "out")


def figure1_seed(seed: int) -> int:
    return seed % FIGURE1_POOL


def figure1_commands(wd: Path, seed: int, smoke: bool):
    budgets = SMOKE_BUDGETS if smoke else BUDGETS
    yield Command("verify.counterexample",
                  ["--out", str(wd / "out"), "--seed", str(figure1_seed(seed)),
                   "verify", "counterexample", "--budget",
                   str(budgets["counterexample"])])


def figure1_legs(evidence: Path) -> dict[str, bool]:
    """Leg name -> holds, from the counterexample suite's evidence."""
    legs = {}
    for line in evidence.read_text(encoding="ascii").splitlines():
        rec = json.loads(line)
        if rec["check"] == "la_disagreement":
            legs[f"witness_tau{rec['tau']:g}"] = rec["ok"]
        elif rec["check"] == "figure1_thresholds":
            legs["balanced"] = rec["balanced"] <= 2.0
            legs["GCA"] = rec["GCA"] <= 2.0
            legs["LA"] = rec["LA"] >= 5.0
            legs["angles"] = {k: rec[k] for k in ("balanced", "GCA", "LA")}
    return legs


def figure1_gate(wd: Path, seed: int, smoke: bool, outcome: Outcome) -> None:
    cmd = outcome.commands[0]
    outcome.ops = len(FIGURE1_LEGS)
    outcome.base = ("legs of the counterexample suite (2 stored witnesses, "
                    "3 boundary angles)")
    found = violations_from(cmd.stdout)
    evidence = wd / "out" / "verify_counterexample.jsonl"
    if found is None or not evidence.exists():
        outcome.problems.append(f"no counterexample result (rc {cmd.rc}): "
                                f"{cmd.stderr[-300:]}")
        outcome.unexpected = outcome.ops
        return
    legs = figure1_legs(evidence)
    angles = legs.pop("angles", {})
    red = [name for name in FIGURE1_LEGS if not legs.get(name, False)]
    outcome.op_failures = len(red)
    outcome.notes.append(f"figure1 data seed {figure1_seed(seed)}: red legs "
                         f"{red}, angles {angles}, violations {found}")
    angle_red = any(name in red for name in ("balanced", "GCA", "LA"))
    witness_red = sum(name.startswith("witness") for name in red)
    if found != witness_red + angle_red or cmd.rc != (3 if found else 0):
        outcome.problems.append(f"violation count {found} (rc {cmd.rc}) does "
                                f"not match the evidence legs {red}")
    if not smoke:
        pin = load_pins()[str(figure1_seed(seed))]
        outcome.unexpected = len(set(red) ^ set(pin["red_legs"]))
        if found != pin["violations"] or outcome.unexpected:
            outcome.problems.append(
                f"figure1 outcome differs from the pinned one: "
                f"violations {found} vs {pin['violations']}, red legs "
                f"{red} vs {pin['red_legs']}")
    outcome.digests = digest_tree(wd / "out")


def load_pins() -> dict:
    with open(HERE / "figure1_pins.json", encoding="ascii") as fh:
        return json.load(fh)["seeds"]


WORKLOAD_SPECS = {
    "sweep": (sweep_commands, sweep_gate, "train"),
    "verify": (verify_commands, verify_gate, "verify.margin"),
    "figure1": (figure1_commands, figure1_gate, "verify.counterexample"),
}


def run_workload(workload: str, seed: int, smoke: bool, wd: Path,
                 execute) -> Outcome:
    """One pass through the workload in a fresh directory, then the gate."""
    commands_of, gate, _ = WORKLOAD_SPECS[workload]
    if wd.exists():
        shutil.rmtree(wd)
    wd.mkdir(parents=True)
    outcome = Outcome(commands=[])
    gen = commands_of(wd, seed, smoke)
    cmd = next(gen)
    while True:
        execute(cmd)
        outcome.commands.append(cmd)
        try:
            cmd = gen.send(cmd)
        except StopIteration:
            break
    try:
        gate(wd, seed, smoke, outcome)
    except (OSError, ValueError, KeyError) as exc:
        outcome.problems.append(f"outputs could not be checked: {exc!r}")
    for c in outcome.commands:
        if c.rc not in (0, 3):
            outcome.problems.append(f"{c.step} exited {c.rc}: {c.stderr[-500:]}")
    return outcome


# ---------------------------------------------------------------------------
# Digests, environment, state
# ---------------------------------------------------------------------------


def digest_tree(base: Path) -> dict[str, str]:
    """sha256 of every file under ``base``, keyed by relative path."""
    out = {}
    if base.exists():
        for path in sorted(base.rglob("*")):
            if path.is_file() and not path.name.startswith("."):
                out[path.relative_to(base).as_posix()] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "imbloss").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "platform": platform.platform(),
    }


def check_digests(key: str, digests: dict[str, str]) -> list[str]:
    """Compare output digests with the first run of this source and seed."""
    path = STATE / "digests" / f"{key}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, sort_keys=True, indent=1),
                        encoding="ascii")
        return []
    stored = json.loads(path.read_text(encoding="ascii"))
    changed = sorted(k for k in stored.keys() | digests.keys()
                     if stored.get(k) != digests.get(k))
    return [f"output bytes differ from an earlier run of the same source "
            f"and seed: {changed[:5]}"] if changed else []


def append_result(record: dict) -> None:
    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "results.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def stored_untraced_walls(workload: str, smoke: bool, src: str) -> list[float]:
    path = STATE / "results.jsonl"
    if not path.exists():
        return []
    walls = []
    for line in path.read_text(encoding="ascii").splitlines():
        rec = json.loads(line)
        if (rec["workload"] == workload and rec["smoke"] == smoke
                and rec["env"]["source_digest"] == src):
            walls.extend(rec.get("untraced_wall_s", []))
    return walls


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(wd: Path, smoke: bool, speed: HostSpeed
                  ) -> tuple[list[float], list[float], str]:
    """Fresh interpreters that import imbloss.cli and load the config: raw
    and reference-speed wall times, and numpy's version."""
    ini = write_reference_config(wd / "setup.ini", 0, smoke)
    code = ("import sys, imbloss.cli, numpy; "
            "imbloss.cli.load_config(sys.argv[1]); print(numpy.__version__)")
    walls, ref_walls, version = [], [], "unknown"
    for _ in range(SETUP_PROBES):
        rc, wall, ref_wall, _, _, out, err = run_process(
            [sys.executable, "-c", code, str(ini)], wd, speed)
        if rc != 0:
            raise BenchmarkError(f"setup probe failed: {err.strip()[-500:]}")
        walls.append(wall)
        ref_walls.append(ref_wall)
        version = out.strip()
    return walls, ref_walls, version


def compare_passes(outcomes: list[Outcome]) -> list[str]:
    first = outcomes[0].digests
    return [f"pass {i} output bytes differ from pass 0"
            for i, o in enumerate(outcomes[1:], 1) if o.digests != first]


def describe(values: list[float] | None) -> str:
    if values is None:
        return "one traced pass"
    return (f"n={len(values)} median={statistics.median(values):.6g} "
            f"min={min(values):.6g} max={max(values):.6g}")


def untraced(args, wd: Path):
    """Passes of fresh CLI processes, each preceded by its own set-up
    probes, while another pass is expected to end within ``--seconds``;
    at least one."""
    speed = HostSpeed()
    setup_walls, ref_setups, outcomes = [], [], []
    start = time.perf_counter()
    last = 0.0
    while not outcomes or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        walls, ref_walls, numpy_version = measure_setup(wd, args.smoke,
                                                        speed)
        setup_walls += walls
        ref_setups += ref_walls
        outcomes.append(run_workload(args.workload, args.seed, args.smoke,
                                     wd / f"pass{len(outcomes)}",
                                     Subprocesses(wd, speed)))
        last = time.perf_counter() - pass_start
    env = environment(numpy_version)
    train_step = WORKLOAD_SPECS[args.workload][2]
    walls = [o.ref_wall_s for o in outcomes]
    trains = [o.wall_of(train_step, ref=True) for o in outcomes]
    rss = max(c.rss_mb for o in outcomes for c in o.commands)
    metrics = {
        "wall_s": (statistics.median(walls), "s", walls),
        "setup_s": (statistics.median(ref_setups), "s", ref_setups),
        "train_s": (statistics.median(trains), "s", trains),
        "peak_rss_mb": (rss, "MB",
                        [c.rss_mb for o in outcomes for c in o.commands]),
    }
    raw_walls = [o.wall_s for o in outcomes]
    raw_trains = [o.wall_of(train_step) for o in outcomes]
    notes = [f"times are scaled to reference host speed (perfbench/"
             f"hostspeed.py, kernel chunk {REFERENCE_CHUNK_S} s there); host "
             f"speed factor per kernel chunk: {describe(speed.factors())}",
             f"raw wall_s: {describe(raw_walls)}",
             f"raw setup_s: {describe(setup_walls)}",
             f"raw train_s: {describe(raw_trains)}",
             "setup_s: fresh interpreter that imports imbloss.cli and loads "
             "the reference config", f"train_s: wall time of step "
             f"'{train_step}'", "peak_rss_mb: highest RSS of any command"]
    record = {"untraced_wall_s": raw_walls, "setup_wall_s": setup_walls,
              "setup_ref_wall_s": ref_setups,
              "host_chunk_s": statistics.quantiles(speed.chunks, n=10)}
    return env, outcomes, metrics, notes, record


def traced(args, wd: Path):
    """One pass in this interpreter with every public imbloss function
    wrapped, then the per-family loss timings."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import imbloss.config
    import numpy

    import layers
    from tracing import Tracer

    env = environment(numpy.__version__)
    notes, ref = [], None
    reference = stored_untraced_walls(args.workload, args.smoke,
                                      env["source_digest"])
    if reference:
        notes.append(f"untraced reference: {len(reference)} stored passes")
    else:
        ref = run_workload(args.workload, args.seed, args.smoke,
                           wd / "untraced", Subprocesses(wd, HostSpeed()))
        reference = [ref.wall_s]
        notes.append("untraced reference: one pass run now (none stored)")

    tracer = Tracer(args.workload)
    tracer.install()
    try:
        outcome = run_workload(args.workload, args.seed, args.smoke,
                               wd / "traced", InProcess(tracer))
    finally:
        tracer.uninstall()
    if ref is not None:
        outcome.problems += ref.problems
        if ref.digests != outcome.digests:
            outcome.problems.append("traced outputs differ from untraced ones")
    rows = {name: (value, None) for name, value in layers.per_layer(
        tracer, outcome.wall_s, statistics.median(reference)).items()}
    config = imbloss.config.load_config(
        write_reference_config(wd / "family.ini", args.seed, args.smoke))
    rows.update((name, (statistics.median(samples), samples))
                for name, samples in layers.family_timings(
                    config, figure1_seed(args.seed), args.smoke).items())
    metrics = {name: (rows[name][0], unit, rows[name][1])
               for name, unit in layers.PER_LAYER}
    lookups = sum(a.get("lookups", 0) for a in tracer.attrs.values())
    notes.append(f"cli.run_cache_hit_ratio base: {lookups} run lookups by "
                 f"cmd_train")
    notes.append(f"trace.overhead_s: traced wall {outcome.wall_s:.6g} s minus "
                 f"untraced median {statistics.median(reference):.6g} s; the "
                 f"traced commands skip one interpreter start each")
    span_path = STATE / "trace" / f"{args.workload}-seed{args.seed}" \
        f"{'-smoke' if args.smoke else ''}.json"
    tracer.write(span_path)
    notes.append(f"spans: {len(tracer.names)} written to "
                 f"{span_path.relative_to(ROOT)}")
    record = {"untraced_wall_s": [ref.wall_s] if ref else []}
    return env, [outcome], metrics, notes, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size workloads, for the harness test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "imbloss" / "cli.py").is_file():
        raise BenchmarkError(f"imbloss sources not found under {SRC}")

    # Before numpy is imported here (host-speed kernel, traced run).
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The load is one process at a time. Pinning it, and the children that
    # inherit the mask, to one CPU makes the host-speed kernel measure the
    # CPU the commands run on; the CPUs of a shared host drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wd = STATE / "work" / f"{args.workload}-{os.getpid()}"
    wd.mkdir(parents=True, exist_ok=True)
    try:
        mode = traced if args.trace else untraced
        env, outcomes, metrics, notes, record = mode(args, wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    problems = [p for o in outcomes for p in o.problems]
    problems += compare_passes(outcomes)
    key = f"{env['source_digest']}-{args.workload}-seed{args.seed}" \
          f"{'-smoke' if args.smoke else ''}"
    problems += check_digests(key, outcomes[0].digests)

    ops = sum(o.ops for o in outcomes)
    op_failures = sum(o.op_failures for o in outcomes)
    unexpected = sum(o.unexpected for o in outcomes)
    walls = [o.wall_s for o in outcomes]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} smoke={int(args.smoke)} seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes: {len(outcomes)}; pass wall s: {walls}")
    for i, o in enumerate(outcomes):
        print(f"pass {i} commands: " + ", ".join(
            f"{c.step}={c.wall_s:.4f}s "
            + (f"ref={c.ref_wall_s:.4f}s " if c.ref_wall_s else "")
            + f"cpu={c.cpu_s:.4f}s rc={c.rc}"
            for c in o.commands))
    for note in notes + [n for o in outcomes for n in o.notes]:
        print(note)
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({describe(samples)})")
    base = outcomes[0].base
    print(f"fail_frac = {op_failures}/{ops} = "
          f"{op_failures / ops if ops else 0.0!r} (base: {base}, "
          f"{len(outcomes)} passes); new failures (not in the pinned "
          f"outcome): {unexpected}")
    digest = hashlib.sha256(json.dumps(outcomes[0].digests, sort_keys=True)
                            .encode()).hexdigest()
    print(f"outputs: {len(outcomes[0].digests)} files, digest {digest}")
    for rel, sha in outcomes[0].digests.items():
        print(f"  {sha[:16]} {rel}")
    for problem in problems:
        print(f"GATE FAIL: {problem}")

    append_result({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "env": env,
        "pass_wall_s": walls, **record,
        "command_wall_s": [{c.step: c.wall_s for c in o.commands}
                           for o in outcomes],
        "command_ref_wall_s": [{c.step: c.ref_wall_s for c in o.commands}
                               for o in outcomes],
        "metrics": {k: v[0] for k, v in metrics.items()},
        "ops": ops, "op_failures": op_failures, "unexpected": unexpected,
        "outputs_digest": digest, "problems": problems,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so a running child is killed and
    # waited for before the benchmark exits.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
