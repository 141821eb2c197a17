"""The demos run to the end, with every warning an error.

Each demo is copied into a temporary directory and run from there, so
what it writes next to itself (phase_diagram_demo.csv) stays out of the
tree.  `many_body_statics.py` is not run whole: it takes about 15 s with
one BLAS thread, against about 1 s for each demo run here.  Its
ground-state helper is loaded and checked at the smallest chain instead.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhchain import ModelParams, build_fock_basis, build_many_body, cdw_order

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["entanglement_dynamics.py", "phase_diagram_quartet.py",
                                  "wave_packet_slide.py"])
def test_demo_runs(tmp_path, name):
    script = shutil.copy(ROOT / "demos" / name, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_many_body_statics_ground_o_dw():
    # the demo's ground-state line at check 08's L=9, V=4 point (dim 126),
    # against the g = 0 chain's ground state, which under OBC has the same
    # biorthogonal density
    spec = importlib.util.spec_from_file_location("many_body_statics",
                                                  ROOT / "demos" / "many_body_statics.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    basis = build_fock_basis(9, 5)
    H0 = build_many_body(ModelParams(L=9, N=5, V=4.0, bc="obc"), basis).dense()
    ground = np.linalg.eigh(H0)[1][:, 0]
    reference = cdw_order(basis.occupations().T @ ground**2)
    assert demo.ground_o_dw(9, 4.0) == pytest.approx(reference, abs=1e-10)
    assert round(reference, 4) == 0.4555      # check 08's L=9 value, as `ground-state` prints it
