"""Each demo script runs to completion from a temporary working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
# Optional output arguments, so that the demos' write paths run too (into the cwd).
ARGS = {"02_synthetic_scenes.py": ["dataset"], "04_localize_phrase.py": ["heatmap"]}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
