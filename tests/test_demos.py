"""The demos run to the end, with every warning an error.

Each demo is copied into a temporary directory and run from there, so
what it writes next to itself (phase_diagram_demo.csv) stays out of the
tree.  `many_body_statics.py` is left out: it takes about 15 s with one
BLAS thread, against about 1 s for each demo run here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["entanglement_dynamics.py", "phase_diagram_quartet.py",
                                  "wave_packet_slide.py"])
def test_demo_runs(tmp_path, name):
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
