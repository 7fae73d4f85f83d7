"""Smoke test for the benchmark harness: every workload and every metric row
at toy size, so the harness cannot rot unnoticed.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
COUNT_UNITS = ("count", "ratio")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return res


def result(workload: str, trace: int) -> dict:
    res = bench(workload, trace)
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], res.stdout[-3000:]
    assert out["attempted"] >= 1 and out["failed"] == 0
    return out


def check_rows(metrics: dict, rows: list[dict]) -> None:
    assert list(metrics) == [row["name"] for row in rows]
    for row in rows:
        got = metrics[row["name"]]
        assert got["unit"] == row["unit"]
        assert isinstance(got["value"], (int, float))


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_row(workload):
    untraced = result(workload, 0)
    check_rows(untraced["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, second = result(workload, 1), result(workload, 1)
    check_rows(first["metrics"], SPEC["per_layer"])
    counts = [row["name"] for row in SPEC["per_layer"]
              if row["unit"] in COUNT_UNITS]
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}

    spans = json.loads((ROOT / ".bench_build" / "perfbench" / "trace"
                        / f"{workload}-seed3-smoke.json").read_text())
    assert spans["workload"] == workload
    assert len(spans["name"]) == len(spans["start"]) == len(spans["end"]) \
        == len(spans["parent"]) > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("sweep", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert not res.stdout.strip()
