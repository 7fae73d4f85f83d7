"""The narrative demos run to completion, warning-free, and print the
pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# sha256 of each demo's stdout.
DEMOS = {
    "01_loss_zoo.py":
        "e304a1bfce27624d89745c0760e333b56a9a5ec2013dd15f38989ad7227698cb",
    "02_imbalanced_training.py":
        "b50830aec15336d515fdb06dae6ae5185e2abe76c9011a2c0884f031543af881",
    # written by the damped Newton conditional-error oracle
    "03_consistency_checks.py":
        "e85c7cfda9591585f4c3878ddb8b4516d228dad80b72463249164124d2e6ec5d",
    "04_margin_bound.py":
        "c4031493597e75250b313af9e10dff082834b02e7555bae08f1575514b080092",
    "05_bounded_counterexample.py":
        "d7050a43e14aa98d1d94b0cb7d341570abe0f39569fb7af43541d77a907d4365",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    # pytest's filterwarnings does not reach a subprocess; -W error does
    done = subprocess.run([sys.executable, "-W", "error",
                           str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[demo]
