"""Biorthogonal eigendecomposition and static observables.

`decompose` returns eigenvalues sorted by (Re, Im) together with right
eigenvectors (unit columns) and left eigenvectors stored as rows scaled
so that left @ right = I.  Three routes are dispatched on the model
parameters:

* Hermitian (g = 0): one symmetric solve, left = conjugate of right.
* Open boundaries with g != 0: the chain is gauge equivalent to a
  Hermitian one via the diagonal similarity D = diag(e^{-g S}), with S
  the site index (single-particle) or the summed occupied-site index
  (many-body).  Every open-chain hop changes S by +-1, so D^{-1} H D is
  exactly the g = 0 chain: the route solves that real symmetric matrix
  and maps its eigenvectors back with D.  The spectrum is exactly real
  and the left/right pair exactly biorthogonal, where a general solver
  would return spurious complex parts.
* Everything else (periodic, g != 0): a general two-sided solve with the
  left/right overlap rescaled; eigenvalue collisions below 1e-12 are
  reported instead of silently mispairing.

`eigenvalues` takes the same three routes without eigenvectors:
`eigvalsh` of the matrix or of its g = 0 chain, and otherwise `eigvals`
followed by the same collision check.

Every dense solve gets `HamiltonianMatrix.dense()`, which is real when
the stored entries are, so a matrix at zero flux (every sweep matrix) is
solved in real arithmetic on all three routes.  A real general solve
returns real eigenvalues exactly real and complex ones in exact
conjugate pairs, whose gap 2|Im| is checked like any other: a pair just
off the real axis (|Im| < COLLISION_GAP / 2) is refused.  At dim 924
(L=12, N=6, periodic) the two-sided real solve takes 0.8-1.0 s against
2.3-2.9 s for the complex one (1 BLAS thread).

Observables: IPR, Fock-space IPR, imaginary-eigenvalue fraction f_im
(which needs eigenvalues only), per-site density (right-vector
expectation by default, biorthogonal variant behind a flag), and the
staggered charge-density-wave order parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .model import (FockBasis, HamiltonianMatrix, ModelParams, build_fock_basis,
                    build_many_body, build_single_particle)

# Eigenvalue pairs closer than this cannot be reliably biorthogonalized
# (proximity to an exceptional point).
COLLISION_GAP = 1e-12

# imag_fraction's bound on |Im|.  It decides only for complex input: a real
# solve refuses a pair with 0 < |Im| <= IM_THRESHOLD as a collision (module docstring).
IM_THRESHOLD = 1e-13


class BiorthogonalizationError(RuntimeError):
    """Left/right pairing failed: eigenvalues collide or overlaps vanish."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigen-triplets: eigenvalues[n], right[:, n], left[n, :]."""

    eigenvalues: np.ndarray     # complex, ascending (Re, then Im)
    right: np.ndarray           # columns, unit 2-norm
    left: np.ndarray            # rows, scaled so left @ right = I

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _decompose_hermitian(H: np.ndarray) -> SpectralDecomposition:
    w, v = scipy.linalg.eigh(H)
    return SpectralDecomposition(
        eigenvalues=w.astype(complex), right=v, left=v.conj().T
    )


def _decompose_similarity(H0: np.ndarray, S: np.ndarray, g: float) -> SpectralDecomposition:
    # H0 = D^{-1} H D with D = diag(e^{-g S}): the real symmetric g = 0 chain.
    w, v = scipy.linalg.eigh(H0)
    d = np.exp(-g * (S - S.min()))       # offset only rescales columns
    right = d[:, None] * v
    norms = np.linalg.norm(right, axis=0)
    right = right / norms
    left = (v / d[:, None]).T * norms[:, None]
    return SpectralDecomposition(eigenvalues=w.astype(complex), right=right, left=left)


def _min_gap(w: np.ndarray) -> float:
    """Smallest |w_i - w_j| among pairs closer than COLLISION_GAP in Re (inf if none).

    Every pair closer than COLLISION_GAP is such a pair, whatever the
    order of the eigenvalues.
    """
    z = w[np.argsort(w.real, kind="stable")]
    # z[i + k] is within COLLISION_GAP of z[i] in Re for 0 < k < reach[i]
    reach = np.searchsorted(z.real, z.real + COLLISION_GAP, side="right") - np.arange(len(z))
    gap = np.inf
    for k in range(1, reach.max(initial=1)):
        near = reach[:-k] > k
        gap = min(gap, np.abs(z[k:] - z[:-k])[near].min(initial=np.inf))
    return gap


def _check_gap(w: np.ndarray) -> None:
    gap = _min_gap(w)
    if gap < COLLISION_GAP:
        raise BiorthogonalizationError(
            f"eigenvalue gap {gap:.3e} below {COLLISION_GAP:.0e}; "
            "pairing ambiguous (near an exceptional point)"
        )


def _decompose_general(H: np.ndarray) -> SpectralDecomposition:
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    _check_gap(w)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    overlap = np.sum(vl.conj() * vr, axis=0)
    if np.abs(overlap).min() < COLLISION_GAP:
        raise BiorthogonalizationError(
            "left/right overlap underflow; cannot rescale to biorthogonality"
        )
    left = vl.conj().T / overlap[:, None]
    return SpectralDecomposition(eigenvalues=w, right=vr, left=left)


def _gauge_free(params: ModelParams) -> tuple:
    """D^{-1} H D of the open chain `params`, which is its g = 0 matrix
    (dense and real), and the weights S of D = diag(e^{-g S})."""
    p = replace(params, g=0.0)
    if p.many_body:
        basis = build_fock_basis(p.L, p.N)
        return build_many_body(p, basis).dense(), basis.site_weight()
    return build_single_particle(p).dense(), np.arange(p.L, dtype=float)


def decompose(H: HamiltonianMatrix) -> SpectralDecomposition:
    """Full eigendecomposition with biorthogonal left/right pairing.

    The open-chain route (g != 0) solves the g = 0 chain of H.params,
    so H must be the model matrix of its params there.
    """
    p = H.params
    if p.g == 0.0:
        # Hermitian for any W and flux: the twist enters conjugately.
        return _decompose_hermitian(H.dense())
    if p.bc == "obc":
        return _decompose_similarity(*_gauge_free(p), p.g)
    return _decompose_general(H.dense())


def eigenvalues(H: HamiltonianMatrix) -> np.ndarray:
    """The eigenvalues of decompose(H), without eigenvectors, sorted by (Re, Im).

    Same routes as decompose; a real matrix is solved in real
    arithmetic.  Raises BiorthogonalizationError where decompose's
    collision check would.
    """
    p = H.params
    if p.g == 0.0:
        return scipy.linalg.eigvalsh(H.dense()).astype(complex)
    if p.bc == "obc":
        return scipy.linalg.eigvalsh(_gauge_free(p)[0]).astype(complex)
    w = scipy.linalg.eigvals(H.dense())
    _check_gap(w)
    return w[np.lexsort((w.imag, w.real))]


def _weights(states) -> np.ndarray:
    """|psi|^2 normalized along axis 0: of one state, or of each column."""
    p = np.abs(np.asarray(states)) ** 2
    total = p.sum(axis=0)
    if np.any(total < 1e-300):
        raise ValueError("a zero vector has no normalized weights")
    return p / total


def ipr(state: np.ndarray) -> float:
    """Inverse participation ratio sum_j |psi_j|^4 (defensively normalized)."""
    p = _weights(state)
    return float(np.sum(p * p))


def ipr_per_state(decomp: SpectralDecomposition) -> np.ndarray:
    p = _weights(decomp.right)
    return np.sum(p * p, axis=0)


def imag_fraction(spectrum) -> float:
    """Fraction of eigenvalues with |Im eps| above IM_THRESHOLD.

    `spectrum` is a SpectralDecomposition or an array of eigenvalues.
    """
    w = spectrum.eigenvalues if isinstance(spectrum, SpectralDecomposition) else spectrum
    return float(np.mean(np.abs(np.imag(w)) > IM_THRESHOLD))


def density_profile(
    state: np.ndarray,
    basis: Optional[FockBasis] = None,
    left_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-site occupation of a normalized state, or of each column of a
    matrix of states.

    Single-particle (no basis): |psi_j|^2.  Many-body: sum of |c_s|^2
    over states occupying site j.  Passing `left_state` (the matching
    left eigenvector) switches to the biorthogonal expectation
    Re(sum_s l_s c_s n_j(s)) instead of the right-vector default.
    """
    if left_state is not None:
        weights = (np.asarray(left_state) * np.asarray(state)).real
    else:
        weights = _weights(state)
    return weights if basis is None else basis.occupations().T @ weights


def cdw_order(density: np.ndarray) -> float:
    """Staggered density amplitude (1/L)|sum_j (-1)^j n_j|."""
    density = np.asarray(density)
    signs = (-1.0) ** np.arange(len(density))
    return float(abs(np.sum(signs * density)) / len(density))


def static_observables(
    decomp: SpectralDecomposition,
    basis: Optional[FockBasis] = None,
) -> np.ndarray:
    """Eigenstate-averaged per-site occupation of one decomposition
    (right-vector densities); `cdw_order` of it is the sweep's o_dw."""
    return density_profile(decomp.right, basis).mean(axis=1)
