"""Spectral winding number over a discretized flux loop.

The winding number counts how often det[H(phi) - E0] encircles zero as
the boundary twist runs through 2*pi; it exists only when E0 lies in a
point gap.  The phase differences between consecutive flux points are
unwrapped into (-pi, pi].  WindingIllDefinedError reports a step above
pi/2 (an eigenvalue crossed E0, or the grid is too coarse to follow the
phase) and a determinant that underflows on the grid and again on one
retry grid shifted by half a step.

`winding_result` factors one matrix per flux loop by LU.  Only the wrap
bond carries the flux (`model.wrap_hops`), so with z = e^{i phi} and z0
the first grid point,

    H(phi) - E0 = A + U D(z) V^T,   A = H(phi0) - E0,
    D(z) = diag((z - z0) * a_+, (1/z - 1/z0) * a_-),

where U and V select the rows and columns of the 2r wrap hops (r per
direction: 1 for one particle, C(L-2, N-1) in the Fock basis) and a_+-
are their amplitudes per unit twist.  The matrix determinant lemma
gives det[H(phi) - E0] = det A * det(I + D(z) M) with the 2r x 2r
matrix M = V^T A^{-1} U, so each flux point costs one small determinant
(`log_det_phase` takes a stack of them at once, in log form so that no
dimension overflows) and the phase of det A cancels in the step
differences.  On the unshifted grid (phi0 = 0) with real E0, A is real:
it is factored in real arithmetic and M is real.  H(-phi) is then the
conjugate of H(phi), so det at 2*pi - phi is the conjugate of det at
phi and only the half loop 0 <= phi <= pi is evaluated; grid point
n - k takes the negated phase of point k.  The half-step retry grid and
complex E0 evaluate every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lu_solve

from .model import (FockBasis, ModelParams, build_fock_basis, build_many_body, build_single_particle,
                    wrap_hops)

DET_FLOOR = 1e-300

# Largest stack of flux-point determinants handed to log_det_phase at
# once: a whole single-particle grid (the 101 points of the half loop at
# a real base energy, all 202 at a complex one), two at dim 924.
BATCH_BYTES = 8 << 20


class SingularBaseEnergyError(RuntimeError):
    """det[H(phi) - E0] underflowed: E0 collides with an eigenvalue."""


class WindingIllDefinedError(RuntimeError):
    """E0 lies on the spectral curve: a phase jump, or singular on two flux grids."""


@dataclass(frozen=True)
class WindingConfig:
    n_points: int = 201
    e0: complex = 0.0

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValueError(f"n_points must be >= 3, got {self.n_points}")


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
        raise SingularBaseEnergyError(f"pivot underflow at e0={e0}")
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


def log_det_phase(stack: np.ndarray) -> tuple:
    """(log|det|, principal phase) of each matrix of a stack (..., n, n).

    One batched determinant call; both results are arrays of shape (...).
    SingularBaseEnergyError is raised when any member's |det| drops
    below DET_FLOOR.
    """
    if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError("need a stack of square matrices, shape (..., n, n)")
    if not np.all(np.isfinite(stack)):
        raise ValueError("array must not contain infs or NaNs")
    sign, logabs = np.linalg.slogdet(stack)
    if not np.all(np.isfinite(logabs)) or np.any(np.exp(logabs) < DET_FLOOR):
        raise SingularBaseEnergyError("determinant underflow in a stack member")
    return logabs, _principal(np.angle(sign))


def _from_phases(phases: np.ndarray) -> WindingResult:
    """The winding from the unwrapped flux steps; a step above pi/2 makes it ill-defined."""
    steps = np.remainder(np.diff(phases), 2.0 * np.pi)
    steps[steps > np.pi] -= 2.0 * np.pi
    jump = np.abs(steps).max()
    if jump > np.pi / 2:
        raise WindingIllDefinedError(f"flux step phase jump {jump:.3f} exceeds pi/2: E0 lies on "
                                     "the spectral curve or the flux grid is too coarse")
    raw = float(steps.sum() / (2.0 * np.pi))
    return WindingResult(nu=int(np.rint(raw)), raw=raw, steps=steps)


def _winding(phases_on: Callable[[np.ndarray], np.ndarray], cfg: WindingConfig) -> WindingResult:
    """Winding from det phases on the n_points + 1 flux grid [phi0, phi0 + 2*pi].

    Retries once on a grid shifted by half a step if any point is
    singular; a second singular pass means E0 sits on the spectral curve
    and the winding is reported ill-defined.
    """
    n = cfg.n_points
    for offset in (0.0, np.pi / n):
        try:
            phases = phases_on(2.0 * np.pi * np.arange(n + 1) / n + offset)
        except SingularBaseEnergyError as exc:
            error = exc
            continue
        return _from_phases(phases)
    raise WindingIllDefinedError(
        f"E0={cfg.e0} lies on the spectral curve (singular on two flux grids)"
    ) from error


def _low_rank_phases(
    params: ModelParams,
    basis: Optional[FockBasis],
    cfg: WindingConfig,
    grid: np.ndarray,
) -> np.ndarray:
    """Phases of det[H(phi) - E0] / det[H(grid[0]) - E0] over the grid."""
    ref = params.with_flux(grid[0])
    H = build_single_particle(ref) if basis is None else build_many_body(ref, basis)
    A = _shifted(H.dense(), cfg.e0)              # real LU and real M when H and E0 are real
    # A.T is Fortran-ordered, so it is factored in place; trans=1 below
    # then solves with A itself.
    lu_piv = _checked_lu(A.T, cfg.e0)

    # at phi = 0 the amplitudes are the coefficients of z and 1/z
    (rows_p, cols_p, amp_p), (rows_m, cols_m, amp_m) = wrap_hops(params.with_flux(0.0), basis)
    rows, cols = np.concatenate([rows_p, rows_m]), np.concatenate([cols_p, cols_m])
    k = np.arange(len(rows))
    U = np.zeros((H.dim, len(rows)), dtype=A.dtype, order="F")
    U[rows, k] = 1.0
    M = lu_solve(lu_piv, U, trans=1, overwrite_b=True)[cols]     # V^T A^{-1} U
    del A, H, lu_piv, U          # free the full-dimension arrays before the batches

    z = np.exp(1j * np.remainder(grid, 2.0 * np.pi))   # the flux as ModelParams reduces it
    d = np.empty((len(grid), len(rows)), dtype=complex)
    d[:, :len(rows_p)] = ((z - z[0]) * amp_p)[:, None]
    d[:, len(rows_p):] = ((1.0 / z - 1.0 / z[0]) * amp_m)[:, None]
    phases = np.empty(len(grid))
    batch = max(1, BATCH_BYTES // (16 * M.size))       # complex stack members
    for start in range(0, len(grid), batch):
        stack = d[start:start + batch, :, None] * M          # D(z) M, one per flux point
        stack[:, k, k] += 1.0
        phases[start:start + batch] = log_det_phase(stack)[1]
    return phases


def winding_result(params: ModelParams, cfg: Optional[WindingConfig] = None) -> WindingResult:
    """Integer winding number of the model at base energy cfg.e0, with diagnostics.

    The sector follows params.N: one particle when it is None, the
    N-particle Fock space otherwise.  Factors H(phi0) - E0 once per flux
    grid and takes every flux point's determinant phase from the
    low-rank wrap-bond update (module docstring); `_winding` runs the
    grid, the retry and the phase-jump check.
    """
    if params.bc != "pbc":
        raise ValueError("winding requires periodic boundaries")
    basis = build_fock_basis(params.L, params.N) if params.many_body else None
    cfg = cfg or WindingConfig()

    def phases_on(grid: np.ndarray) -> np.ndarray:
        if grid[0] != 0.0 or np.imag(cfg.e0) != 0.0:
            return _low_rank_phases(params, basis, cfg, grid)
        # H(0) - E0 is real, so the phase at 2*pi - phi is minus that at phi
        n = len(grid) - 1
        half = _low_rank_phases(params, basis, cfg, grid[:n // 2 + 1])
        phases = np.empty(n + 1)
        phases[:n // 2 + 1] = half
        phases[n - np.arange(n // 2 + 1)] = -half
        return phases

    return _winding(phases_on, cfg)
