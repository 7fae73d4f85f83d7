"""Tests for config parsing and the command-line workflows."""

import json

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

    @pytest.mark.parametrize("damage", [
        lambda text: text[:40],
        lambda text: b'{"status": "ok"}\n',
    ], ids=["truncated", "incomplete"])
    def test_damaged_metrics_retrains_only_that_run(self, config_file,
                                                    tmp_path, damage):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        main(["--config", str(config_file), "--out", str(out), "train"])
        files = sorted(p for p in (out / "runs").rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        victim, *others = sorted((out / "runs").rglob("metrics.json"))
        stamps = [p.stat().st_mtime_ns for p in others]
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

    def test_corrupt_dataset_is_runtime_error(self, config_file, tmp_path):
        out = tmp_path / "o"
        main(["--config", str(config_file), "--out", str(out), "synth"])
        csv = next((out / "datasets").rglob("train.csv"))
        csv.write_text("f0,f1,f2,f3,label\nnot,numbers,at,all,x\n")
        code = main(["--config", str(config_file), "--out", str(out),
                     "train"])
        assert code == 4
