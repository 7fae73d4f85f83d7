"""Tests for config parsing and the command-line workflows."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imbloss.cli import main
from imbloss.config import (
    ConfigError,
    load_config,
    loss_grid_points,
    spec_from_gridpoint,
    synthesize_splits,
)
from imbloss.losses import ClassStats

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, tmp_path, **env):
    """Run ``python args`` in a fresh process with imbloss importable."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


BASE_CONFIG = """\
[dataset]
profile = longtail
n = 3
d = 4
m_max = 60
imb_ratio = 10
seed = 5
test_m_max = 30
mean_scale = 2.0

[loss]
family = GLA
q = 0.0, 0.3

[train]
epochs = 4
batch_size = 16
lr0 = 0.1
seed = 1
repeats = 2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


class TestConfigParsing:
    def test_grid_cartesian_product(self, config_file):
        config = load_config(config_file)
        points = loss_grid_points(config)
        assert points == [{"family": "GLA", "q": 0.0},
                          {"family": "GLA", "q": 0.3}]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_bad_profile(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("profile = longtail",
                                            "profile = mystery"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_grid_rejected_at_parse(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("q = 0.0, 0.3", "q = ,"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_loss_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("q = 0.0, 0.3", "qq = 0.5"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_hyperparameter_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace("q = 0.0, 0.3", "q = 1.5"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_margins_resolve_from_stats(self):
        point = {"family": "GCA", "q": 0.1, "margins": "default"}
        spec = spec_from_gridpoint(point, ClassStats([8, 1]))
        np.testing.assert_allclose(spec.margins, (2 / 3, 1 / 3))

    def test_default_search_grids_are_valid(self):
        from imbloss.config import DEFAULT_SEARCH_GRIDS

        stats = ClassStats([10, 5])
        for family, grid in DEFAULT_SEARCH_GRIDS.items():
            keys = list(grid)
            combos = [{}]
            for key in keys:
                combos = [dict(c, **{key: v}) for c in combos
                          for v in grid[key]]
            for combo in combos:
                spec_from_gridpoint({"family": family, **combo}, stats)

    @pytest.mark.parametrize("old, new", [
        ("epochs = 4", "epoch = 4"),
        ("repeats = 2",
         "repeats = 2\nmodel = mlp\nhidden = 8\nnorm_bound = 1.0"),
        ("repeats = 2", "repeats = 2\nhidden = 8"),
    ], ids=["unknown-key", "mlp-norm-bound", "linear-hidden"])
    def test_train_block_rejects_options_it_would_ignore(self, tmp_path, old,
                                                         new):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "synth"]) == 2

    @pytest.mark.parametrize("old, new", [
        ("imb_ratio = 10", "imb_ration = 10"),
        ("mean_scale = 2.0", "mean_scale = 2.0\n\n[eval]\nmetric = confusion"),
    ], ids=["dataset-typo", "eval-typo"])
    def test_dataset_and_eval_blocks_reject_unknown_keys(self, tmp_path, old,
                                                         new):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "synth"]) == 2

    @pytest.mark.parametrize("old, new, key", [
        ("m_max = 60", "m_max = 6O", "m_max"),
        ("epochs = 4", "epochs = 2.5", "epochs"),
        ("lr0 = 0.1", "lr0 = fast", "lr0"),
        ("imb_ratio = 10", "imb_ratio = nan", "imb_ratio"),
        ("q = 0.0, 0.3", "q = 0.3, 0.30", "q"),
        ("family = GLA", "family = GCA\nmargins = 1.0, 2.0", "margins"),
    ], ids=["dataset-int", "train-int", "train-float", "dataset-nan",
            "repeated-grid-value", "margins-length"])
    def test_malformed_scalar_is_config_error(self, tmp_path, old, new, key):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "synth"]) == 2

    @pytest.mark.parametrize("old, new, key", [
        ("seed = 1", "seed = 1\nschedule = linear", "schedule"),
        ("lr0 = 0.1", "lr0 = 0.1\nmomentum = 1.5", "momentum"),
        ("lr0 = 0.1", "lr0 = -1", "lr0"),
        ("seed = 1", "seed = 1\nweight_decay = -0.1", "weight_decay"),
        ("seed = 1", "seed = 1\nnorm_bound = -1", "norm_bound"),
        ("seed = 1", "seed = 1\nnorm_bound = 0", "norm_bound"),
        ("epochs = 4", "epochs = 0", "epochs"),
        ("repeats = 2", "repeats = 0", "repeats"),
        ("repeats = 2", "repeats = 2\nmodel = mlp\nhidden = 0", "hidden"),
        ("repeats = 2", "repeats = 2\nmodel = mlp\nhidden = 8.5", "hidden"),
        ("repeats = 2", "repeats = 2\nmodel = mlp\nhidden = 8, -4",
         "hidden"),
    ], ids=["schedule", "momentum", "lr0", "weight-decay", "norm-bound",
            "zero-norm-bound", "epochs", "repeats", "zero-hidden",
            "fractional-hidden", "negative-hidden"])
    def test_out_of_range_train_option_is_config_error(self, tmp_path, old,
                                                       new, key):
        path = tmp_path / "bad.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=rf"\[train\] .*{key}"):
            load_config(path)
        out = tmp_path / "o"
        for command in ("synth", "train"):
            assert main(["--config", str(path), "--out", str(out),
                         command]) == 2
        assert not (out / "runs").exists()

    def test_valid_configs_keep_their_run_hashes(self, config_file, tmp_path):
        from imbloss.cli import _run_hash

        config = load_config(config_file)
        hashes = [_run_hash(config, p) for p in loss_grid_points(config)]
        assert hashes == ["859faaeea949", "5ff29d14f83c"]
        path = tmp_path / "mlp.ini"
        path.write_text(BASE_CONFIG.replace(
            "repeats = 2", "repeats = 2\nmodel = mlp\nhidden = 8, 4"))
        config = load_config(path)
        hashes = [_run_hash(config, p) for p in loss_grid_points(config)]
        assert hashes == ["23e3377834ca", "aa9731d80502"]

    def test_figure1_forces_two_classes(self, tmp_path):
        path = tmp_path / "f1.ini"
        path.write_text(BASE_CONFIG.replace("profile = longtail",
                                            "profile = figure1"))
        config = load_config(path)
        assert config["dataset"]["n"] == 2
        assert config["dataset"]["d"] == 2


class TestSynthesizeSplits:
    def test_counts_follow_profile(self, config_file):
        config = load_config(config_file)
        splits = synthesize_splits(config["dataset"])
        np.testing.assert_array_equal(splits["train"].class_counts(),
                                      [60, 19, 6])
        np.testing.assert_array_equal(splits["test"].class_counts(),
                                      [30, 9, 3])
        assert np.all(splits["val"].class_counts() >= 1)

    def test_splits_are_distinct_draws(self, config_file):
        config = load_config(config_file)
        splits = synthesize_splits(config["dataset"])
        assert not np.array_equal(splits["train"].features[:6],
                                  splits["test"].features[:6])

    def test_figure1_val_has_both_classes(self):
        dataset = {"profile": "figure1", "n": 2, "d": 2, "m_max": 200,
                   "imb_ratio": 1.0, "seed": 0, "test_m_max": 100,
                   "val_fraction": 0.1, "minority_fraction": 0.5,
                   "mean_scale": 1.0, "noise_scale": 1.0}
        splits = synthesize_splits(dataset)
        assert np.all(splits["val"].class_counts() >= 1)


class TestCommands:
    def test_synth_is_byte_deterministic(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(config_file), "--out", str(out_a),
                     "synth"]) == 0
        assert main(["--config", str(config_file), "--out", str(out_b),
                     "synth"]) == 0
        files_a = sorted((out_a / "datasets").rglob("*.*"))
        files_b = sorted((out_b / "datasets").rglob("*.*"))
        assert len(files_a) == 7
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_train_without_synth_is_config_error(self, config_file, tmp_path):
        code = main(["--config", str(config_file),
                     "--out", str(tmp_path / "o"), "train"])
        assert code == 2

    def test_train_then_report_round_trip(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(config_file), "--out", str(out),
                     "synth"]) == 0
        assert main(["--config", str(config_file), "--out", str(out),
                     "train"]) == 0
        summaries = list((out / "runs").glob("summary_*.csv"))
        assert len(summaries) == 1
        lines = summaries[0].read_text().splitlines()
        assert len(lines) == 3  # header + two grid points
        assert lines[0].startswith("config_hash,family,hyperparams")
        assert sum(line.endswith(",1") for line in lines[1:]) == 1  # selected

        run_dirs = sorted(str(p.parent)
                          for p in (out / "runs").rglob("metrics.json"))
        assert len(run_dirs) == 4
        rep = tmp_path / "rep"
        assert main(["--out", str(rep), "report", *run_dirs]) == 0
        table = (rep / "table.csv").read_text().splitlines()
        assert table[0] == ("family,hyperparams,profile,imb_ratio,runs_ok,"
                            "test_mean,test_sd")
        assert len(table) == 3
        plot = (rep / "plot_data.csv").read_text().splitlines()
        assert len(plot) == 5  # header + one row per run

    def test_report_lists_missing_runs(self, tmp_path, capsys):
        rep = tmp_path / "rep"
        assert main(["--out", str(rep), "report",
                     str(tmp_path / "ghost")]) == 0
        err = capsys.readouterr().err
        assert "ghost" in err

    @pytest.mark.parametrize("damage", [
        lambda text: text[:40],
        lambda text: b'{"status": "diverged"}\n',
    ], ids=["truncated", "incomplete"])
    def test_report_lists_damaged_metrics_as_missing(self, config_file,
                                                     tmp_path, capsys,
                                                     damage):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        main(["--config", str(config_file), "--out", str(out), "train"])
        victim, *others = sorted((out / "runs").rglob("metrics.json"))
        victim.write_bytes(damage(victim.read_bytes()))
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert main(["--out", str(rep), "report", str(victim.parent),
                     *(str(p.parent) for p in others)]) == 0
        assert str(victim.parent) in capsys.readouterr().err
        plot = (rep / "plot_data.csv").read_text().splitlines()
        assert len(plot) == 1 + len(others)

    def test_report_single_run_has_zero_sd_and_parses_back(self, tmp_path):
        import csv

        config = tmp_path / "one.ini"
        config.write_text(BASE_CONFIG.replace("repeats = 2", "repeats = 1")
                          .replace("q = 0.0, 0.3", "q = 0.0"))
        out = tmp_path / "o"
        main(["--config", str(config), "--out", str(out), "synth"])
        main(["--config", str(config), "--out", str(out), "train"])
        run_dirs = [str(p.parent)
                    for p in (out / "runs").rglob("metrics.json")]
        assert len(run_dirs) == 1
        rep = tmp_path / "rep"
        assert main(["--out", str(rep), "report", *run_dirs]) == 0
        with open(rep / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["test_sd"] == "0"
        assert float(rows[0]["test_mean"]) >= 0.0
        assert rows[0]["family"] == "GLA"
        assert json.loads(rows[0]["hyperparams"]) == {"q": 0.0}

    def test_rerun_skips_existing_runs(self, config_file, tmp_path):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        main(["--config", str(config_file), "--out", str(out), "train"])
        metrics = sorted((out / "runs").rglob("metrics.json"))
        stamps = [p.stat().st_mtime_ns for p in metrics]
        assert main(["--config", str(config_file), "--out", str(out),
                     "train"]) == 0
        assert [p.stat().st_mtime_ns for p in metrics] == stamps

    def test_train_jobs_2_writes_the_same_bytes_as_jobs_1(self, config_file,
                                                           tmp_path):
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            main(["--config", str(config_file), "--out", str(out), "synth"])
            assert main(["--config", str(config_file), "--out", str(out),
                         "--jobs", jobs, "train"]) == 0
            trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in sorted((out / "runs").rglob("*"))
                          if p.is_file()})
        assert len(trees[0]) == 4 * 3 + 1  # 3 files per run, one summary
        assert trees[0] == trees[1]

    def test_diverged_runs_are_recorded_not_fatal(self, tmp_path):
        # At lr0 = 1e305 the GCA scores of three runs, divided by their
        # margins, overflow: those runs record a non-finite loss, the
        # fourth trains on, and train writes the summary.
        path = tmp_path / "div.ini"
        path.write_text(BASE_CONFIG.replace(
            "family = GLA\nq = 0.0, 0.3",
            "family = GCA\nq = 0.0, 0.3\nmargins = default").replace(
            "lr0 = 0.1", "lr0 = 1e305"))
        out = tmp_path / "o"
        main(["--config", str(path), "--out", str(out), "synth"])
        assert main(["--config", str(path), "--out", str(out),
                     "train"]) == 0
        runs = [json.loads(p.read_text())
                for p in sorted((out / "runs").rglob("metrics.json"))]
        assert len(runs) == 4
        assert sorted(r["status"] for r in runs) == ["diverged"] * 3 + ["ok"]
        assert all("non-finite loss" in r["error"] for r in runs
                   if r["status"] == "diverged")
        (summary,) = (out / "runs").glob("summary_*.csv")
        rows = summary.read_text().splitlines()[1:]
        # runs_ok and runs_failed of q = 0.0 and q = 0.3
        assert [row.split(",")[-7:-5] for row in rows] == [["0", "2"],
                                                           ["1", "1"]]

    @pytest.mark.parametrize("loss, digest", [
        ("family = GCA\nq = 0.0, 0.5\nmargins = default",
         "835a363130bab7e212335e4da7238204c50119df9ae4b3c189653168708f8198"),
        ("family = LA\ntau = 0.5, 1.0, 2.0",
         "9b6d29cae1947d78f713af63844cffc77faee04f0cdc95576f698a5cea16630c"),
    ], ids=["gca-q-grid", "la-tau-grid"])
    def test_train_output_bytes_are_pinned(self, tmp_path, loss, digest):
        # written when a stack held only grid points that differed in q,
        # so each tau of the LA grid trained as a stack of its own; the
        # digest covers the sha256 of every file under runs/
        path = tmp_path / "pin.ini"
        path.write_text(BASE_CONFIG.replace("family = GLA\nq = 0.0, 0.3",
                                            loss))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out),
                     "synth"]) == 0
        assert main(["--config", str(path), "--out", str(out),
                     "train"]) == 0
        manifest = "".join(
            f"{p.relative_to(out).as_posix()} "
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
            for p in sorted((out / "runs").rglob("*")) if p.is_file())
        assert manifest.count("\n") == (13 if "GCA" in loss else 19)
        assert hashlib.sha256(manifest.encode()).hexdigest() == digest

    def test_train_rejects_jobs_below_one(self, config_file, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(config_file), "--out", str(out),
                     "synth"]) == 0
        assert main(["--config", str(config_file), "--out", str(out),
                     "--jobs", "0", "train"]) == 2
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("damage", [
        lambda text: text[:40],
        lambda text: b'{"status": "ok"}\n',
        None,
    ], ids=["truncated", "incomplete", "deleted"])
    def test_damaged_metrics_retrains_only_that_run(self, config_file,
                                                    tmp_path, damage):
        # The lone run retrains as a stack of one, where it first trained
        # in one stack with every seed and q of the sweep.
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        main(["--config", str(config_file), "--out", str(out), "train"])
        files = sorted(p for p in (out / "runs").rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        victim, *others = sorted((out / "runs").rglob("metrics.json"))
        stamps = [p.stat().st_mtime_ns for p in others]
        if damage is None:
            victim.unlink()
        else:
            victim.write_bytes(damage(before[victim]))
        assert main(["--config", str(config_file), "--out", str(out),
                     "train"]) == 0
        assert {p: p.read_bytes() for p in files} == before
        assert [p.stat().st_mtime_ns for p in others] == stamps
        assert sorted(p for p in (out / "runs").rglob("*")
                      if p.is_file()) == files  # no temp files left

    def test_failed_json_write_keeps_the_old_file(self, tmp_path):
        from imbloss.cli import _dump_json

        path = tmp_path / "metrics.json"
        _dump_json(path, {"status": "ok"})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _dump_json(path, {"status": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_failed_verify_suite_keeps_the_old_evidence(self, tmp_path,
                                                        monkeypatch):
        from imbloss import cli

        out = tmp_path / "v"
        assert main(["--out", str(out), "verify", "bayes",
                     "--budget", "3"]) == 0
        before = (out / "verify_bayes.jsonl").read_bytes()

        def one_record_then_fail(budget, seed):
            yield {"trial": 0, "ok": True}
            raise RuntimeError("suite failed partway")

        monkeypatch.setitem(cli.VERIFY_SUITES, "bayes",
                            (3, one_record_then_fail))
        assert main(["--out", str(out), "verify", "bayes"]) == 4
        assert (out / "verify_bayes.jsonl").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["verify_bayes.jsonl"]

    def test_importing_the_cli_loads_no_process_pool(self, tmp_path):
        done = run_python(["-c", "import sys, imbloss.cli; print(sorted("
                           "{'concurrent.futures.process', 'multiprocessing'}"
                           " & set(sys.modules)))"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_verify_suites_small_budget(self, tmp_path):
        out = tmp_path / "v"
        assert main(["--out", str(out), "--seed", "3", "verify", "bayes",
                     "--budget", "20"]) == 0
        assert main(["--out", str(out), "--seed", "3", "verify", "bounds",
                     "--budget", "50"]) == 0
        records = [json.loads(line) for line in
                   (out / "verify_bounds.jsonl").read_text().splitlines()]
        assert len(records) == 100  # two families per trial
        assert all(r["ok"] for r in records)
        assert all(r["slack"] >= -1e-9 for r in records)

    def test_bounds_records_do_not_depend_on_the_block_size(self,
                                                            monkeypatch):
        # block boundaries, and a last block shorter than the others,
        # leave every record as one block of all the trials writes it
        from imbloss import verify

        whole = list(verify.bounds(np.random.default_rng(3), 23))
        monkeypatch.setattr(verify, "_BOUNDS_BLOCK", 5)
        assert list(verify.bounds(np.random.default_rng(3), 23)) == whole
        assert [r["trial"] for r in whole] == [t for t in range(23)
                                               for _ in range(2)]

    def test_margin_records_do_not_depend_on_the_block_size(self,
                                                            monkeypatch):
        # the margin suite trains its resamples a block at a time; the
        # records of 10 resamples in blocks of 3 (the last of one) are
        # those of one block of all of them
        from imbloss import verify

        monkeypatch.setattr(verify, "_MARGIN_BLOCK", 10)
        whole = list(verify.margin_bound(np.random.default_rng(4), 10))
        monkeypatch.setattr(verify, "_MARGIN_BLOCK", 3)
        assert list(verify.margin_bound(np.random.default_rng(4), 10)) == whole
        assert [r.get("rep") for r in whole] == [*range(10), None]

    def test_diverged_margin_resample_raises_after_the_ones_before(
            self, monkeypatch):
        from imbloss import trainer, verify

        train_lockstep = trainer.train_lockstep

        def diverge_rep_4(models, data, spec, cfgs):
            return [trainer.TrainingDiverged(f"rep {cfg.seed}")
                    if cfg.seed == 4 else outcome for cfg, outcome in
                    zip(cfgs, train_lockstep(models, data, spec, cfgs))]

        monkeypatch.setattr(verify, "_MARGIN_BLOCK", 3)
        monkeypatch.setattr(trainer, "train_lockstep", diverge_rep_4)
        records = verify.margin_bound(np.random.default_rng(4), 10)
        assert [next(records)["rep"] for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(trainer.TrainingDiverged, match="rep 4"):
            next(records)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_full_budget_margin_bytes_are_pinned(self, tmp_path, threads):
        # written when the margin suite trained each of its 100 resamples
        # alone, before it trained them in blocks; the same under 1 and 2
        # BLAS threads
        done = run_python(["-m", "imbloss.cli", "--out", "v", "--seed", "0",
                           "verify", "margin", "--budget", "10000"],
                          tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(
            (tmp_path / "v" / "verify_margin.jsonl").read_bytes()
        ).hexdigest() == ("bdb0af257f7d5dd162f63deb02c221ee"
                          "d512dcce898c1b9ed29bb6f6c69e0656")

    @pytest.mark.parametrize("suite, budget, seed, code, digest", [
        # written by the per-point descent before the lockstep loop
        ("bayes", 30, 0, 0, "75b7f71e1518faaa02eea5b8f30c6e0d"
                            "c98ab6448eac9973decfd284a2900629"),
        # the two below were written by the suites as they stood in
        # cli.py, before they moved to imbloss.verify
        ("bounds", 50, 3, 0, "0081c42a7b7750e52f5bddd45202c516"
                             "16ee97e95a133534fcde22df89add31f"),
        ("margin", 20, 0, 0, "523f2afc48c98ce03691497070d9f6a9"
                             "67b993bac64615dc4cfd903f58765e83"),
        # written by the exact search with its row sums in a fixed order,
        # the same under any BLAS thread count; the optimality
        # certificates in test_trainer.py back it (balanced at 2.81
        # degrees, so exit 3)
        ("counterexample", 1000, 0, 3, "6948eaabd79f0582a160be04e4931249"
                                       "64c2b0a50c239f711278451eac97dc02"),
    ], ids=["bayes", "bounds", "margin", "counterexample"])
    def test_verify_evidence_bytes_are_pinned(self, tmp_path, suite, budget,
                                              seed, code, digest):
        # the evidence must not change by a byte
        out = tmp_path / "v"
        assert main(["--out", str(out), "--seed", str(seed), "verify", suite,
                     "--budget", str(budget)]) == code
        assert hashlib.sha256((out / f"verify_{suite}.jsonl").read_bytes()
                              ).hexdigest() == digest

    @pytest.mark.parametrize("args", [
        ["verify", "bounds", "--budget", "0"],
        ["verify", "margin", "--budget", "-5"],
        ["--seed", "-1", "verify", "bayes", "--budget", "3"],
    ], ids=["zero-budget", "negative-budget", "negative-seed"])
    def test_verify_rejects_empty_budget_and_negative_seed(self, tmp_path,
                                                           args):
        out = tmp_path / "v"
        assert main(["--out", str(out), *args]) == 2
        assert not out.exists()

    def test_verify_counts_each_failed_check_once(self):
        from imbloss.verify import is_violation

        records = [
            {"trial": 0, "family": "GLA", "ok": False},
            {"check": "domination", "trial": 3, "ok": False},
            {"check": "domination", "trials": 20, "failures": 1, "ok": False},
            {"check": "margin_bound", "rep": 0, "ok": False},
            {"check": "margin_bound_rate", "holds": 8, "resamples": 10,
             "required": 9, "ok": False},
            {"check": "figure1_angle", "objective": "LA"},
            {"check": "figure1_thresholds", "ok": True},
        ]
        assert [is_violation(r) for r in records] == [
            True, True, False, False, True, False, False]

    def test_verify_violation_exit_code(self, tmp_path):
        # At m = 1000 the small-sample boundary geometry deterministically
        # misses the pinned angle thresholds, exercising the violation
        # exit code and the evidence trail.
        out = tmp_path / "v"
        code = main(["--out", str(out), "--seed", "0", "verify",
                     "counterexample", "--budget", "1000"])
        assert code == 3
        records = [json.loads(line) for line in
                   (out / "verify_counterexample.jsonl").read_text().splitlines()]
        assert any(not r.get("ok", True) for r in records)

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nprofile = nope\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                     "synth"]) == 2

    @pytest.mark.parametrize("cut", [
        "rows", "column", "header", "sidecar", "sidecar-list", "sidecar-n",
        "label-range", "label-fraction", "sidecar-n-4", "class-missing",
        "val-class-missing", "test-class-missing"])
    def test_split_disagreeing_with_its_sidecar_is_config_error(
            self, config_file, tmp_path, capsys, cut):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        split = cut.split("-")[0] if cut.startswith(("val", "test")) \
            else "train"
        csv = next((out / "datasets").rglob(f"{split}.csv"))
        sidecar = csv.with_name(f"{split}.meta.json")
        lines = csv.read_text().splitlines()
        if cut.endswith("class-missing"):  # class 3's rows, and m to match
            lines = [line for line in lines if not line.endswith(",3")]
            meta = json.loads(sidecar.read_text())
            sidecar.write_text(json.dumps(dict(meta, m=len(lines) - 1)))
        elif cut == "rows":  # the header and the first half of the rows
            lines = lines[:1 + (len(lines) - 1) // 2]
        elif cut == "column":  # a consistent file one feature short
            lines = [line.split(",", 1)[1] for line in lines]
        elif cut == "header":  # the label column renamed
            lines[0] = lines[0].replace("label", "class")
        elif cut.startswith("label"):  # a label outside 1..3, or not whole
            lines[1] = lines[1].rsplit(",", 1)[0] + (
                ",7" if cut == "label-range" else ",1.5")
        else:  # a sidecar cut short mid-object, not an object, or with n
            # not a number or not the config's n
            text = sidecar.read_text()
            sidecar.write_text({"sidecar": text[:20], "sidecar-list": "[1, 2]",
                                "sidecar-n": text.replace('"n": 3', '"n": "3"'),
                                "sidecar-n-4": text.replace('"n": 3', '"n": 4')
                                }[cut])
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["--config", str(config_file), "--out", str(out),
                     "train"])
        assert code == 2
        assert "rerun `imbloss synth`" in capsys.readouterr().err
        assert not (out / "runs").exists()

    def test_corrupt_dataset_is_config_error(self, config_file, tmp_path,
                                             capsys):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        csv = next((out / "datasets").rglob("train.csv"))
        csv.write_text("f0,f1,f2,f3,label\nnot,numbers,at,all,x\n")
        capsys.readouterr()
        code = main(["--config", str(config_file), "--out", str(out),
                     "train"])
        assert code == 2
        assert "rerun `imbloss synth`" in capsys.readouterr().err
        assert not (out / "runs").exists()
