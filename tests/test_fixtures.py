"""The committed fixtures are what tools/gen_fixtures.py computes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REGENERATE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import gen_fixtures
print(json.dumps({"la_witness.json": gen_fixtures.la_witness(),
                  "figure1_oracle.json": gen_fixtures.figure1_oracle()}))
"""


def test_single_threaded_regeneration_matches_the_committed_fixtures(
        tmp_path):
    # Criterion 7 recomputes the figure-1 angles at the default BLAS
    # thread count; this regenerates both fixtures under one BLAS thread,
    # in a fresh process so that the setting takes effect.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, "-c", REGENERATE,
                           str(ROOT / "tools")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    payloads = json.loads(done.stdout)
    assert sorted(payloads) == ["figure1_oracle.json", "la_witness.json"]
    for name, payload in payloads.items():
        committed = json.loads((ROOT / "tests" / "fixtures" / name).read_text())
        assert payload == committed, name
