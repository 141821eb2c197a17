"""A fixed computation that measures how fast the machine runs right now.

The machine the benchmark was tuned on is shared with other tenants.
The same unit of work runs at different speeds from one minute to the
next, by up to 1.5x for minutes at a time, and process CPU time moves
with wall time, so the slowdown is contention for the core itself.  The
run therefore times a calibration before the first unit and after every
unit, in its own process, and scales each unit's wall time by
REF_S / (the mean of the calibrations around it).  The result is the
unit's time at the speed the machine had when the calibration took
REF_S.

A slowdown does not hit all kinds of work alike, so there are two
calibrations, each made of the kinds of work its workloads do:
- "python": Python loops, many small numpy operations and 89x89 complex
  LUs, like the winding loop of the sweep;
- "numeric": complex LUs of 89x89 and 400x400, dense 600x600 complex
  mat-vecs, a CSR mat-vec at dim 48620, inner products and updates of
  vectors of that length, and SVDs of 256x256, like the many-body
  statics and the dense Krylov workload.
A workload whose units kept their time while every calibration slowed
(the many-body quench) is not normalized: dividing by a calibration
would only add the calibration's own noise.  Set-up times are scaled
the same way by the median of the run's "python" calibrations, in every
workload: a set-up imports nhchain and builds inputs in Python.

The calibrations do not touch nhchain, so a change to the program moves
the unit time and not the calibration.  Their inputs are fixed; their
arrays are made for each call and freed after it.  At their peak they
add under 10 MB to the process, well below what any workload's unit
adds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

QUENCH_DIM = 48_620          # the Fock dimension of the L=18, N=9 quench


def _complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, 2 * cols)).view(np.complex128)


def _python(rng) -> None:
    table = {}
    acc = 0.0
    for i in range(400_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += float(i) ** 0.5


def _small_arrays(rng) -> None:
    x = np.zeros(89)
    for _ in range(40_000):
        x = x * 0.5 + np.abs(x) - 1.0


def _lu_small(rng) -> None:
    a = _complex(rng, 89, 89)
    for _ in range(1_000):
        sla.lu_factor(a)


def _lu_mid(rng) -> None:
    a = _complex(rng, 400, 400)
    for _ in range(20):
        sla.lu_factor(a)


def _dense_matvec(rng) -> None:
    a = _complex(rng, 600, 600)
    w = _complex(rng, 1, 600)[0]
    for _ in range(400):
        w = a @ w
        w /= np.linalg.norm(w)


def _csr_matvec(rng) -> None:
    n, per_row = QUENCH_DIM, 8
    a = sps.csr_matrix((rng.standard_normal(n * per_row),
                        rng.integers(0, n, n * per_row, dtype=np.int32),
                        np.arange(0, n * per_row + 1, per_row, dtype=np.int32)), shape=(n, n))
    v = rng.standard_normal(n)
    for _ in range(250):
        v = a @ v
        v /= np.linalg.norm(v)


def _vector_ops(rng) -> None:
    basis = _complex(rng, 4, QUENCH_DIM)
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    w = basis[0].copy()
    for _ in range(120):
        for q in basis:
            w -= np.vdot(q, w) * q
        w /= np.linalg.norm(w)


def _svd(rng) -> None:
    a = _complex(rng, 256, 256)
    for _ in range(10):
        np.linalg.svd(a, compute_uv=False)


# The numeric parts run twice, in turn: one pass varied by +-15% from
# call to call, more than the units of its workloads did.
MIXES = {
    "python": (_python, _small_arrays, _lu_small),
    "numeric": (_lu_small, _lu_mid, _dense_matvec, _csr_matvec, _vector_ops, _svd) * 2,
}

# Each mix's typical time on the reference machine (2-core x86 VM, one
# BLAS thread).  Only ratios of normalized times matter; the constants
# make them read as seconds of that machine.
REF_S = {"python": 0.3, "numeric": 1.5}

# Set-ups import nhchain and build inputs in Python, whatever the workload.
SETUP_MIX = "python"


def calibrate(mix: str) -> float:
    """Seconds the fixed work of `mix` takes now."""
    rng = np.random.default_rng(0)
    t0 = perf_counter()
    for part in MIXES[mix]:
        part(rng)
    return perf_counter() - t0


def normalized(walls: list, cals: list, ref_s: float) -> list:
    """Each wall time scaled by ref_s over the calibrations around it.

    cals[0] precedes unit 0 and cals[i + 1] follows unit i, so unit i
    uses the mean of cals[i] and cals[i + 1].
    """
    if len(cals) != len(walls) + 1:
        raise ValueError(f"{len(walls)} units need {len(walls) + 1} calibrations, got {len(cals)}")
    return [wall * ref_s / (0.5 * (cals[i] + cals[i + 1])) for i, wall in enumerate(walls)]
