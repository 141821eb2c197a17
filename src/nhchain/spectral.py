"""Biorthogonal eigendecomposition and static observables.

`decompose` returns eigenvalues sorted by (Re, Im) together with right
eigenvectors (unit columns) and left eigenvectors stored as rows scaled
so that left @ right = I.  Three routes are dispatched on the model
parameters:

* Hermitian (g = 0): one symmetric solve, left = conjugate of right.
* Open boundaries with g != 0: the chain is gauge equivalent to a
  Hermitian one via the diagonal similarity D = diag(e^{-g S}), with S
  the site index (single-particle) or the summed occupied-site index
  (many-body).  Every open-chain hop H[r, c] is -e^{g (S[c] - S[r])}, so
  D^{-1} H D is H with every hop set to -1, exactly the g = 0 chain: the
  route checks each hop, solves that real symmetric matrix and maps its
  eigenvectors back with D.  The spectrum is exactly real and the
  left/right pair exactly biorthogonal, where a general solver would
  return spurious complex parts.
* Everything else (periodic, g != 0): a general two-sided solve with the
  left/right overlap rescaled; eigenvalue collisions below 1e-12 are
  reported instead of silently mispairing.

`eigenvalues` takes the same three routes without eigenvectors:
`eigvalsh` of the matrix or of its gauged form, and otherwise `eigvals`
followed by the same collision check.

Every dense solve gets `HamiltonianMatrix.dense()`, which is real when
the stored entries are, so a matrix at zero flux (every sweep matrix) is
solved in real arithmetic on all three routes.  A real general solve
returns real eigenvalues exactly real and complex ones in exact
conjugate pairs, whose gap 2|Im| is checked like any other: a pair just
off the real axis (|Im| < COLLISION_GAP / 2) is refused.  At dim 924
(L=12, N=6, periodic) the two-sided real solve takes 0.8-1.0 s against
2.3-2.9 s for the complex one (1 BLAS thread).

Each solve works in one copy of its matrix, the one dense() has just
made.  The symmetric solves hand LAPACK its transpose, which is the
same matrix in Fortran order, to overwrite; for a complex Hermitian
matrix that is its conjugate, with the same eigenvalues and conjugate
eigenvectors, and the Hermitian route writes right, their conjugate,
into the overwritten matrix's memory.  The general route calls
geev with the optimal workspace from geev_lwork, as scipy.linalg.eig
does (the workspace size sets LAPACK's blocking); scipy copies the
C-ordered matrix to Fortran order for it, and the route frees its copy
as soon as geev returns (a complex matrix goes through
scipy.linalg.eig).  The sorted eigenvectors are built straight from
LAPACK's arrays, each freed once its sorted copy exists, left is
conjugated and scaled in place, and the column sums (overlaps, norms)
run a block of columns at a time with the pairwise sums of one
whole-array product.  So every route returns right Fortran-ordered and
left C-ordered, bit for bit what the whole-array expressions gave, and
at dim 924 the general route peaks one real n x n array above its
result, the similarity route 0.5 MB above it.

Observables: IPR, Fock-space IPR, imaginary-eigenvalue fraction f_im
(which needs eigenvalues only), the right-vector per-site density, the
ground state with its biorthogonal density, and the staggered
charge-density-wave order parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .model import LOG_FLOAT_MAX, FockBasis, HamiltonianMatrix, build_fock_basis

# Eigenvalue pairs closer than this cannot be reliably biorthogonalized
# (proximity to an exceptional point).
COLLISION_GAP = 1e-12

# imag_fraction's bound on |Im|.  It decides only for complex input: a real
# solve refuses a pair with 0 < |Im| <= IM_THRESHOLD as a collision (module docstring).
IM_THRESHOLD = 1e-13

# Columns per block of the column sums: a block's n x COLUMN_BLOCK product
# stands in for the n x n one.
COLUMN_BLOCK = 64


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
    # H.T is conj(H) (H itself when real), with H's eigenvalues and conjugate
    # vectors v: so left is v.T, and right = conj(v) goes into H's memory,
    # which eigh has overwritten
    w, v = scipy.linalg.eigh(H.T, overwrite_a=True)
    right = np.conjugate(v, out=H.T)
    return SpectralDecomposition(eigenvalues=w.astype(complex), right=right, left=v.T)


def _decompose_similarity(H: HamiltonianMatrix) -> SpectralDecomposition:
    # A = D^{-1} H D with D = diag(e^{-g S}): the real symmetric g = 0 chain.
    A, S = _gauge_free(H)
    g = H.params.g
    span = abs(g) * (S.max() - S.min())
    if span > LOG_FLOAT_MAX:
        raise BiorthogonalizationError(
            f"|g| * (max S - min S) = {span:.6g} exceeds ln(float max) = {LOG_FLOAT_MAX:.2f}: "
            "the open chain's similarity e^(-g S) overflows")
    w, v = scipy.linalg.eigh(A.T, overwrite_a=True)     # A == A.T, solved in its own memory
    del A
    d = np.exp(-g * (S - S.min()))       # offset only rescales columns
    right = d[:, None] * v
    norms = np.sqrt(_column_dots(right, right))
    right /= norms
    v /= d[:, None]                      # left = (v / d).T * norms, in v's memory
    v *= norms
    return SpectralDecomposition(eigenvalues=w.astype(complex), right=right, left=v.T)


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a.conj() * b, axis=0) of two Fortran-ordered arrays, a block of
    columns at a time: each column's pairwise sum as the whole product
    would give it, without the n x n product."""
    return np.concatenate([np.sum(a[:, k:k + COLUMN_BLOCK].conj() * b[:, k:k + COLUMN_BLOCK], axis=0)
                           for k in range(0, a.shape[1], COLUMN_BLOCK)])


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
    if np.iscomplexobj(H):
        w, vl, vr = scipy.linalg.eig(H, left=True, right=True, overwrite_a=True)
    else:
        w, vl, vr = _real_geev(H)
    del H                                # freed here when the caller passed its only reference
    _check_gap(w)
    order = np.lexsort((w.imag, w.real))
    right = _sorted_vectors(w, vr, order)
    del vr
    left = _sorted_vectors(w, vl, order)
    del vl
    overlap = _column_dots(left, right)
    if np.abs(overlap).min() < COLLISION_GAP:
        raise BiorthogonalizationError(
            "left/right overlap underflow; cannot rescale to biorthogonality"
        )
    np.conjugate(left, out=left)
    left /= overlap
    return SpectralDecomposition(eigenvalues=w[order], right=right, left=left.T)


def _real_geev(H: np.ndarray) -> tuple:
    """Eigenvalues and LAPACK's real left and right vectors of a real H, as
    scipy.linalg.eig calls geev: with the optimal workspace, whose size sets
    LAPACK's blocking (with f2py's default 4n, geev took 1.56 s instead of
    0.71 s at dim 924)."""
    H = np.asarray_chkfinite(H)
    geev, geev_lwork = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), (H,))
    work, info = geev_lwork(len(H))
    if info == 0:
        wr, wi, vl, vr, info = geev(H, lwork=int(work), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"eig algorithm (geev) failed: info = {info}")
    return wr + 1j * wi, vl, vr


def _sorted_vectors(w: np.ndarray, v: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The vectors of eigenvalues w[order] as the columns of a new Fortran-ordered array.

    A complex v is taken as it is.  A real v from geev stores a conjugate
    pair w[i], w[i + 1] as v[:, i] +- 1j v[:, i + 1], which is unpacked as
    scipy's eig does it (including its guard against a lone negative
    Im w[i + 1]); without complex eigenvalues the vectors stay real.
    """
    if np.iscomplexobj(v) or not np.any(w.imag):
        return v[:, order]
    first = w.imag > 0
    first[:-1] |= w.imag[1:] < 0
    out = np.empty(v.shape, dtype=complex, order="F")
    for k, j in enumerate(order):
        col = out[:, k]
        if first[j]:
            col.real, col.imag = v[:, j], v[:, j + 1]
        elif j and first[j - 1]:
            col.real, col.imag = v[:, j - 1], -v[:, j]
        else:
            col.real, col.imag = v[:, j], 0.0
    return out


def _gauge_free(H: HamiltonianMatrix) -> tuple:
    """D^{-1} H D of the open chain H and the weights S of D = diag(e^{-g S}).

    Every hop H[r, c] must be -e^{g (S[c] - S[r])} exactly, as the builders
    make it, so that D^{-1} H D is H with every hop set to -1."""
    p = H.params
    S = build_fock_basis(p.L, p.N).site_weight() if p.many_body else np.arange(p.L, dtype=float)
    A = H.dense()
    rows, cols = np.nonzero(A)
    hop = rows != cols
    rows, cols = rows[hop], cols[hop]
    gauged = np.array_equal(A[rows, cols], -np.exp(p.g * (S[cols] - S[rows])))
    A[rows, cols] = -1.0
    if not (gauged and np.isrealobj(A) and np.array_equal(A, A.T)):
        raise ValueError(f"H is not an open chain of g={p.g:g}: a hop is not -e^(g (S[c] - S[r])), "
                         "or D^-1 H D is not real symmetric")
    return A, S


def decompose(H: HamiltonianMatrix) -> SpectralDecomposition:
    """Full eigendecomposition with biorthogonal left/right pairing."""
    p = H.params
    if p.g == 0.0:
        # Hermitian for any W and flux: the twist enters conjugately.
        return _decompose_hermitian(H.dense())
    if p.bc == "obc":
        return _decompose_similarity(H)
    return _decompose_general(H.dense())


def eigenvalues(H: HamiltonianMatrix) -> np.ndarray:
    """The eigenvalues of decompose(H), without eigenvectors, sorted by (Re, Im).

    Same routes as decompose; a real matrix is solved in real
    arithmetic.  Raises BiorthogonalizationError where decompose's
    collision check would.
    """
    p = H.params
    if p.g == 0.0:
        return scipy.linalg.eigvalsh(H.dense().T, overwrite_a=True).astype(complex)
    if p.bc == "obc":
        return scipy.linalg.eigvalsh(_gauge_free(H)[0].T, overwrite_a=True).astype(complex)
    w = scipy.linalg.eigvals(H.dense(), overwrite_a=True)
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


def _site_sum(weights: np.ndarray, basis: Optional[FockBasis]) -> np.ndarray:
    """Per-site totals of per-state weights (the weights themselves for one particle)."""
    return weights if basis is None else basis.occupations().T @ weights


def density_profile(state: np.ndarray, basis: Optional[FockBasis] = None) -> np.ndarray:
    """Per-site occupation of a normalized state, or of each column of a
    matrix of states.

    Single-particle (no basis): |psi_j|^2.  Many-body: sum of |c_s|^2
    over states occupying site j.
    """
    return _site_sum(_weights(state), basis)


def ground_state(decomp: SpectralDecomposition, basis: Optional[FockBasis] = None) -> tuple:
    """The lowest-Re eigenvalue E0, its right vector and its biorthogonal
    per-site density Re(sum_s l_s c_s n_j(s)).

    On an open chain with g != 0 the right vector alone shows the skin
    pile-up; the biorthogonal density is that of the g = 0 chain.
    """
    right = decomp.right[:, 0]      # eigenvalues ascend in Re
    return decomp.eigenvalues[0], right, _site_sum((decomp.left[0] * right).real, basis)


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
