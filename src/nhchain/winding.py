"""Spectral winding number over a flux loop that follows the phase.

The winding number counts how often det[H(phi) - E0] encircles zero as
the boundary twist runs through 2*pi; it exists only when E0 lies in a
point gap.  The loop starts as the grid phi_k = 2*pi*k/FLUX_POINTS, and
the phase differences between consecutive points are unwrapped into
(-pi, pi].  Every step above pi/2 is bisected, up to REFINE_LEVELS
times, so the grid is as fine as the phase needs and a winding accepted
on the base grid keeps its points.  WindingIllDefinedError reports a
step still above pi/2 after that (an eigenvalue crosses E0: on a
Hermitian ring det is real and each sign change is a pi step at any
spacing) and a determinant that underflows, at phi = 0 or at any other
flux point.

`winding_result` factors one matrix per flux loop by LU.  Only the wrap
bond carries the flux (`model.wrap_hops`), so with z = e^{i phi},

    H(phi) - E0 = A + U D(z) V^T,   A = H(0) - E0,
    D(z) = diag((z - 1) * a_+, (1/z - 1) * a_-)
         = (z - 1) * diag(a_+, -a_- / z),

where U and V select the rows and columns of the 2r wrap hops (r per
direction: 1 for one particle, C(L-2, N-1) in the Fock basis) and a_+-
are their amplitudes per unit twist.  The matrix determinant lemma
gives det[H(phi) - E0] = det A * det(I + D(z) M) with the 2r x 2r
matrix M = V^T A^{-1} U, and pulling diag(1, 1/z) out of D(z) gives

    det(I + D(z) M) = z^{-r} * det(I + (z - 1) X),
    X = diag(0, I_r) + diag(a_+ I_r, -a_- I_r) M.

M is solved for RHS_BLOCK columns of U at a time into X's own
Fortran-ordered memory, so the LU of A never sits beside the whole
dim x 2r right-hand side, and the LU is freed before the flux points.
X is reduced once per flux loop, in place, to upper Hessenberg form by
an orthogonal similarity, which leaves every det(I + s X) unchanged and
is backward stable.  `log_det_phase` then takes all the flux points'
determinants at once (and each bisection level's midpoints, on the same
X) by Gaussian elimination with partial pivoting,
O(r^2) per point, in log form so that no dimension overflows.  Its
working row is one C-ordered (columns left, shifts) block updated in
place, because strided slices and a fresh temporary per column cost
several times the arithmetic.  The factor z^{-r} adds -r phi to each
phase exactly, and the phase of det A cancels in the step differences.
With real E0, A is real: it is factored in real arithmetic and M and X
are real.  H(-phi) is then the conjugate of H(phi), so det at
2*pi - phi is the conjugate of det at phi and only the half loop
0 <= phi <= pi is evaluated and refined; the point at 2*pi - phi takes
the negated phase, and the step across pi is bisected at pi itself, its
own mirror.  A complex E0 evaluates and refines the whole loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lu_solve

from .model import (FockBasis, ModelParams, build_fock_basis, build_many_body, build_single_particle,
                    wrap_hops)

DET_FLOOR = 1e-300

# Columns of U per solve, so that no dim x 2r right-hand side sits beside
# the LU.  OpenBLAS takes a solve's columns in groups (12 at dim 924, with
# 1 thread), and blocks on those group boundaries give the bits of one
# whole solve; a multiple of 12 and 24 keeps them.
RHS_BLOCK = 48

# The base flux grid phi_k = 2*pi*k/FLUX_POINTS (odd: its half loop stops short
# of pi), and how often a step above pi/2 is bisected before it is refused.
FLUX_POINTS = 201
REFINE_LEVELS = 10


class WindingIllDefinedError(RuntimeError):
    """E0 lies on the spectral curve: a phase jump that bisection does not shrink, or
    det[H(phi) - E0] underflowed."""


@dataclass
class WindingResult:
    """Integer winding plus diagnostics (raw phase sum, per-step terms)."""

    nu: int
    raw: float                  # accumulated phase / (2*pi), unrounded
    steps: np.ndarray = field(repr=False)   # per-step phase differences


def _principal(phase):
    """Phase reduced to (-pi, pi]."""
    phase = np.remainder(phase, 2.0 * np.pi)
    return np.where(phase > np.pi, phase - 2.0 * np.pi, phase)


def _checked_lu(A: np.ndarray, e0: complex):
    """LU factors of A (overwritten when Fortran-ordered), pivots checked."""
    # LAPACK's getrf as lu_factor calls it, minus lu_factor's warning on an
    # exactly singular A: that is ours to report, through the pivot check below.
    getrf = scipy.linalg.get_lapack_funcs("getrf", (A,))
    lu, piv, _ = getrf(np.asarray_chkfinite(A), overwrite_a=True)
    mags = np.abs(np.diag(lu))
    if np.any(mags < DET_FLOOR) or not np.all(np.isfinite(mags)):
        raise WindingIllDefinedError(f"E0={e0} is an eigenvalue of H(0) (pivot underflow in its LU), "
                                     "so it lies on the spectral curve")
    return lu, piv


def _shifted(A: np.ndarray, e0: complex) -> np.ndarray:
    """A - e0 on the diagonal, in place; a real A is made complex only
    when e0 has an imaginary part."""
    e0 = complex(e0)
    if e0.imag:
        A = A.astype(complex, copy=False)
    if e0:
        A[np.diag_indices_from(A)] -= e0 if e0.imag else e0.real
    return A


def log_det_phase(hess: np.ndarray, shifts: np.ndarray) -> tuple:
    """(log|det|, principal phase) of I + s * hess for each shift s.

    `hess` is an n x n upper Hessenberg matrix (entries below the first
    subdiagonal are not read); both results have the shape of the 1-d
    `shifts`.  Gaussian elimination with partial pivoting runs for all
    shifts at once: below the working row only row k + 1 has an entry
    in column k, so those two rows alone compete for the k-th pivot and
    each shift costs O(n^2).  The working row of every shift is held as
    one C-ordered (columns, shifts) block and updated in place, with row
    k + 1's share written into one preallocated spare block: each
    column's update then runs over contiguous memory without a fresh
    temporary.  WindingIllDefinedError is raised when any |det| drops
    below DET_FLOOR.
    """
    hess, shifts = np.asarray(hess), np.asarray(shifts, dtype=complex)
    if hess.ndim != 2 or hess.shape[0] != hess.shape[1] or hess.size == 0 or shifts.ndim != 1:
        raise ValueError("need a square matrix, n >= 1, and a 1-d array of shifts")
    if not (np.isfinite(hess).all() and np.isfinite(shifts).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = len(hess)
    pivots = np.empty((n, len(shifts)), dtype=complex)
    swaps = np.zeros(len(shifts), dtype=int)          # each row swap flips the determinant's sign
    spare = np.empty((n - 1, len(shifts)), dtype=complex)   # row k + 1's share, per column
    # a zero pivot turns log|det| non-finite, which is checked below
    with np.errstate(all="ignore"):
        row = np.multiply.outer(hess[0], shifts)      # the working row: columns k.. by shifts
        row[0] += 1.0
        for k in range(n - 1):
            below = shifts * hess[k + 1, k]              # row k + 1 of I + s * hess at column k
            swap = np.abs(below) > np.abs(row[0])
            pivots[k] = pivot = np.where(swap, below, row[0])
            swaps += swap
            m = np.where(swap, row[0], below) / pivot
            # the row left over: a * (working row) + b * (row k + 1), past column k
            a, b = np.where(swap, 1.0, -m), np.where(swap, -m, 1.0)
            row = row[1:]
            row *= a
            row += np.multiply.outer(hess[k + 1, k + 1:], b * shifts, out=spare[:n - k - 1])
            row[0] += b
        pivots[n - 1] = row[0]
        logabs = np.log(np.abs(pivots)).sum(axis=0)
    if not (np.isfinite(logabs).all() and logabs.min() >= np.log(DET_FLOOR)):
        raise WindingIllDefinedError("determinant underflow at a flux point")
    return logabs, _principal(np.angle(pivots).sum(axis=0) + np.pi * swaps)


def _from_phases(phases: np.ndarray) -> WindingResult:
    """The winding from the unwrapped flux steps; a step above pi/2 makes it ill-defined."""
    steps = _principal(np.diff(phases))
    jump = np.abs(steps).max()
    if jump > np.pi / 2:
        raise WindingIllDefinedError(
            f"flux step phase jump {jump:.3f} exceeds pi/2 on a {len(steps)}-step loop: "
            "an eigenvalue crosses E0, so E0 lies on the spectral curve")
    raw = float(steps.sum() / (2.0 * np.pi))
    return WindingResult(nu=int(np.rint(raw)), raw=raw, steps=steps)


def _flux_phases(params: ModelParams, basis: Optional[FockBasis], e0: complex) -> Callable:
    """Reduces X once; returns phi -> phases of det[H(phi) - E0] / det[H(0) - E0], 0 <= phi <= 2*pi."""
    ref = replace(params, phi=0.0)
    H = build_single_particle(ref) if basis is None else build_many_body(ref, basis)
    # A = H(0) - E0 is real when H and E0 are; A.T is Fortran-ordered, so it
    # is factored in its own memory, and trans=1 below then solves with A itself.
    lu_piv = _checked_lu(_shifted(H.dense(), e0).T, e0)

    # at phi = 0 the amplitudes are the coefficients of z and 1/z
    (rows_p, cols_p, amp_p), (rows_m, cols_m, amp_m) = wrap_hops(ref, basis)
    rows, cols = np.concatenate([rows_p, rows_m]), np.concatenate([cols_p, cols_m])
    k = np.arange(len(rows))
    # X starts as M = V^T A^{-1} U, solved for RHS_BLOCK columns of U at a time
    X = np.empty((len(rows), len(rows)), dtype=lu_piv[0].dtype, order="F")
    for block in np.split(k, range(RHS_BLOCK, len(k), RHS_BLOCK)):
        U = np.zeros((H.dim, len(block)), dtype=X.dtype, order="F")
        U[rows[block], block - block[0]] = 1.0
        X[:, block] = lu_solve(lu_piv, U, trans=1, overwrite_b=True)[cols]
    del H, lu_piv, U          # free the full-dimension arrays before the flux points

    r = len(rows_p)
    X *= np.repeat(np.real([amp_p, -amp_m]), r)[:, None]      # in M's memory
    X[k[r:], k[r:]] += 1.0
    hess = scipy.linalg.hessenberg(X, overwrite_a=True)

    def phases(phi: np.ndarray) -> np.ndarray:
        z = np.exp(1j * np.remainder(phi, 2.0 * np.pi))   # the flux as ModelParams reduces it
        return log_det_phase(hess, z - 1.0)[1] - r * phi

    return phases


def _refined(phases_at: Callable, phi: np.ndarray, mirrored: bool) -> np.ndarray:
    """The phases around the loop through phi, each step above pi/2 bisected up to REFINE_LEVELS times.

    A mirrored loop is evaluated on its half 0 <= phi <= pi only, and the far half
    takes the phase -p at 2*pi - phi; the step across pi is bisected at pi, its own mirror."""
    phases = phases_at(phi)
    for level in range(REFINE_LEVELS + 1):
        crossing = bool(mirrored and phi[-1] != np.pi)     # the half's last step runs to its mirror
        loop = np.concatenate([phases, -phases[::-1][1 - crossing:]]) if mirrored else phases
        big = np.flatnonzero(np.abs(_principal(np.diff(loop[:len(phi) + crossing]))) > np.pi / 2)
        if not big.size or level == REFINE_LEVELS:
            return loop
        mid = np.array([(phi[k] + phi[k + 1]) / 2 if k + 1 < len(phi) else np.pi for k in big])
        phi, phases = np.insert(phi, big + 1, mid), np.insert(phases, big + 1, phases_at(mid))


def winding_result(params: ModelParams, e0: complex = 0.0) -> WindingResult:
    """Integer winding number of the model at base energy e0, with diagnostics.

    The sector follows params.N: one particle when it is None, the
    N-particle Fock space otherwise.  Factors H(0) - E0 once, takes the
    phases on the base grid from the low-rank wrap-bond update (module
    docstring) and bisects every step above pi/2 (`_refined`);
    `_from_phases` refuses a step still above it.
    """
    if params.bc != "pbc":
        raise ValueError("winding requires periodic boundaries")
    if not np.isfinite(e0):
        raise ValueError(f"e0 must be finite, got {e0}")
    basis = build_fock_basis(params.L, params.N) if params.many_body else None
    # with a real E0, H(0) - E0 is real: the phase at 2*pi - phi is minus that at phi
    mirrored = bool(np.imag(e0) == 0.0)
    phi = 2.0 * np.pi * np.arange((FLUX_POINTS // 2 if mirrored else FLUX_POINTS) + 1) / FLUX_POINTS
    return _from_phases(_refined(_flux_phases(params, basis, e0), phi, mirrored))
