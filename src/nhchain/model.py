"""Lattice model construction for the interacting Hatano-Nelson chain.

The model is a 1D tight-binding chain of spinless fermions with asymmetric
nearest-neighbor hopping (amplitudes -e^{+g} and -e^{-g}), an optional
nearest-neighbor density-density interaction V, and a quasi-periodic
(Aubry-Andre) onsite potential

    W_j = W * cos(2*pi*theta*j + theta0),   j = 0 .. L-1,

with theta = THETA, the inverse golden ratio.  Both a single-particle
matrix builder and a fixed-N many-body (occupation basis) builder are
provided, under open or periodic boundaries with an optional flux twist
on the wrap bond.

Conventions, fixed once here and relied on everywhere else:

* The amplified hop -e^{+g} moves a particle toward LOWER site index, so
  for g > 0 eigenstates pile up on the left edge under open boundaries.
* Under periodic boundaries the full twist e^{i*phi} sits on the single
  wrap bond (L-1 <-> 0); distributing it per bond is gauge equivalent
  for every observable computed in this package.  `wrap_hops` lists
  those entries for both builders and for the winding number.
* Fock states are L-bit integers, bit j = occupation of site j, listed
  in ascending integer order.  With this ascending Jordan-Wigner
  ordering, bulk nearest-neighbor hops carry no fermionic sign; only the
  periodic wrap hop picks up (-1)^(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite
from typing import Optional

import numpy as np
import scipy.sparse as sparse

# Inverse golden ratio, the canonical irrational wavenumber for the
# quasi-periodic potential.
THETA = (np.sqrt(5.0) - 1.0) / 2.0

# Refuse to enumerate Fock bases larger than this.
BASIS_SIZE_CAP = 10**7

TWO_PI = 2.0 * np.pi

# The largest |g| whose hop amplitude e^|g| is a finite float.
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class ModelParams:
    """All Hamiltonian knobs in one immutable record.

    `N` selects the many-body sector; leave it None for single-particle
    work, where V must be 0.  g, V, W, theta0 and phi must be finite,
    and e^|g| too.
    `phi` is reduced to [0, 2*pi); an open chain has no wrap bond to
    twist, so it refuses a nonzero one.
    """

    L: int
    g: float = 0.0
    V: float = 0.0
    W: float = 0.0
    theta0: float = 0.0
    bc: str = "obc"
    phi: float = 0.0
    N: Optional[int] = None

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        for name in ("g", "V", "W", "theta0", "phi"):   # phi before it is reduced
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(self.g) > LOG_FLOAT_MAX:
            raise ValueError(f"g={self.g:g} is too large: e^|g| overflows")
        if self.bc not in ("obc", "pbc"):
            raise ValueError(f"bc must be 'obc' or 'pbc', got {self.bc!r}")
        if self.W < 0:
            raise ValueError(f"W must be >= 0, got {self.W}")
        object.__setattr__(self, "phi", float(np.remainder(self.phi, TWO_PI)))
        if self.phi and self.bc == "obc":
            raise ValueError(f"a flux (phi={self.phi:g}) needs bc='pbc': an open chain has no wrap bond")
        if self.V != 0 and self.N is None:
            raise ValueError(f"V={self.V} needs a particle number N: one particle has no interaction")
        if self.N is not None:
            _check_sector(self.L, self.N)

    @property
    def many_body(self) -> bool:
        return self.N is not None


@dataclass(frozen=True)
class FockBasis:
    """Ordered fixed-N occupation basis.

    The index of a word is its position in `states`, found with
    np.searchsorted(basis.states, word).
    """

    L: int
    N: int
    states: np.ndarray          # int64 words, strictly ascending

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupations(self) -> np.ndarray:
        """(dim, L) 0/1 matrix: row s, column j = occupation of site j."""
        j = np.arange(self.L)
        return ((self.states[:, None] >> j[None, :]) & 1).astype(float)

    def site_weight(self) -> np.ndarray:
        """Sum of occupied site indices per state (the skin-gauge weight)."""
        return self.occupations() @ np.arange(self.L, dtype=float)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """A built Hamiltonian together with the parameters that produced it.

    Only this module knows how `entries` are stored: other modules read
    them through `dense()` or `csr()`.  They must be square in the params'
    sector (L, or C(L, N)): the solvers index site weights by H's indices.
    """

    entries: object             # ndarray (single-particle) or scipy CSR (many-body)
    params: ModelParams

    def __post_init__(self) -> None:
        p = self.params
        size = comb(p.L, p.N) if p.many_body else p.L
        if self.entries.shape != (size, size):
            sector = f"C(L, N) = C({p.L}, {p.N})" if p.many_body else f"L = {p.L}"
            raise ValueError(f"entries of shape {self.entries.shape}, need ({size}, {size}): "
                             f"the params' sector size is {sector}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        """The entries as a new C-ordered ndarray, for the dense solvers.

        The array is real when every stored entry is (decided on the
        nonzeros of CSR entries), so a real matrix reaches the solvers in
        real arithmetic without a complex dim x dim intermediate.
        """
        stored = sparse.issparse(self.entries)
        real = not np.any((self.entries.data if stored else self.entries).imag)
        entries = self.entries.real if real else self.entries
        return entries.toarray() if stored else np.array(entries, order="C")

    def csr(self) -> sparse.csr_matrix:
        """The entries as CSR, for mat-vecs; CSR entries are shared, not copied."""
        return sparse.csr_matrix(self.entries)


def potential(params: ModelParams) -> np.ndarray:
    """Onsite quasi-periodic potential W*cos(2*pi*theta*j + theta0), j = 0..L-1."""
    j = np.arange(params.L)
    return params.W * np.cos(TWO_PI * THETA * j + params.theta0)


def build_single_particle(params: ModelParams) -> HamiltonianMatrix:
    """L x L matrix of the asymmetric-hopping chain with onsite potential.

    H[j, j+1] = -e^{+g} (hop toward lower index, amplified for g > 0),
    H[j+1, j] = -e^{-g}; under periodic boundaries the wrap bond carries
    the full twist: H[L-1, 0] = -e^{+g} e^{+i phi}, H[0, L-1] = conjugate
    hop amplitude -e^{-g} e^{-i phi}.
    """
    L = params.L
    H = np.zeros((L, L), dtype=complex)
    np.fill_diagonal(H, potential(params))
    j = np.arange(L - 1)
    H[j, j + 1] = -np.exp(params.g)
    H[j + 1, j] = -np.exp(-params.g)
    if params.bc == "pbc":
        for rows, cols, amp in wrap_hops(params):
            H[rows, cols] += amp
    return HamiltonianMatrix(entries=H, params=params)


def _check_sector(L: int, N: int) -> None:
    """Refuse a Fock sector that cannot be enumerated: N outside 0 < N < L,
    over 63 sites (occupation words are int64) or over BASIS_SIZE_CAP states."""
    if not 0 < N < L:
        raise ValueError(f"N must satisfy 0 < N < L, got N={N}, L={L}")
    if L > 63:
        raise ValueError(f"a Fock sector holds at most 63 sites (its occupation words are int64), got L={L}")
    if comb(L, N) > BASIS_SIZE_CAP:
        raise ValueError(f"basis size C({L},{N}) exceeds cap {BASIS_SIZE_CAP}")


def build_fock_basis(L: int, N: int) -> FockBasis:
    """Enumerate all C(L, N) occupation words, ascending as integers.

    One pass over the sites: words[k] holds the ascending k-particle words
    on the sites seen so far, and site j appends words[k-1] with bit j
    set.  Every appended word exceeds every word already in words[k], so
    the concatenation stays ascending; k runs downwards so that words[k-1]
    is still the previous site's, and only counts that can reach N are
    kept.
    """
    _check_sector(L, N)
    words = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * N
    for site in range(L):
        for k in range(min(site + 1, N), max(1, N - (L - site - 1)) - 1, -1):
            words[k] = np.concatenate((words[k], words[k - 1] | (1 << site)))
    return FockBasis(L=L, N=N, states=words[N])


def _bond_hops(states: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of source states with site b occupied / site a empty, and
    the integer words after moving the particle b -> a."""
    occ_b = (states >> b) & 1
    occ_a = (states >> a) & 1
    src = np.nonzero((occ_b == 1) & (occ_a == 0))[0]
    targets = states[src] - (1 << b) + (1 << a)
    return src, targets


def wrap_hops(params: ModelParams, basis: Optional[FockBasis] = None) -> tuple:
    """The flux-carrying wrap-bond hops (L-1 <-> 0) of the periodic chain.

    Returns two (rows, cols, amp) triplets, each hop adding amp to
    H[row, col]: the hops 0 -> L-1 with amp = -e^{+g} e^{+i phi}, then
    the reverse hops L-1 -> 0 with amp = -e^{-g} e^{-i phi}.  Rows and
    cols are basis indices; with `basis` None they are the sites of the
    single-particle chain.  In the Fock basis each direction is a
    one-to-one map between C(L-2, N-1) states, and amp carries the
    fermionic sign (-1)^(N-1).  Every other matrix entry is independent
    of phi.
    """
    L = params.L
    up = -np.exp(params.g) * np.exp(1j * params.phi)
    down = -np.exp(-params.g) * np.exp(-1j * params.phi)
    if basis is None:
        first, last = np.array([0]), np.array([L - 1])
    else:
        up, down = up * (-1.0) ** (basis.N - 1), down * (-1.0) ** (basis.N - 1)
        # states with a particle on site 0 and none on L-1, and their images
        first, moved = _bond_hops(basis.states, L - 1, 0)
        last = np.searchsorted(basis.states, moved)
    return (last, first, up), (first, last, down)


def build_many_body(params: ModelParams, basis: FockBasis) -> HamiltonianMatrix:
    """Fixed-N Hamiltonian in the occupation basis.

    The diagonal carries sum_j V n_j n_{j+1} + sum_j W_j n_j (interaction
    wraps under periodic boundaries); off-diagonals move one particle
    across a bond with the single-particle amplitudes.  Bulk hops are
    sign-free in the ascending Jordan-Wigner ordering; the periodic wrap
    hop is multiplied by (-1)^(N-1).  The entries are CSR at every
    dimension.
    """
    if params.N != basis.N or params.L != basis.L:
        raise ValueError("basis does not match params (L, N)")
    L = params.L
    states = basis.states
    dim = basis.dim
    occ = basis.occupations()

    diag = occ @ potential(params)
    for j in range(L - 1):
        diag = diag + params.V * occ[:, j] * occ[:, j + 1]
    if params.bc == "pbc":
        diag = diag + params.V * occ[:, L - 1] * occ[:, 0]

    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag.astype(complex)]
    up, down = -np.exp(params.g), -np.exp(-params.g)
    for j in range(L - 1):
        for (a, b), amp in (((j, j + 1), up), ((j + 1, j), down)):
            # b -> a; the amplified hop `up` moves toward the lower index
            src, tgt = _bond_hops(states, a, b)
            rows.append(np.searchsorted(states, tgt))
            cols.append(src)
            vals.append(np.full(len(src), amp, dtype=complex))
    if params.bc == "pbc":
        for r, c, amp in wrap_hops(params, basis):
            rows.append(r)
            cols.append(c)
            vals.append(np.full(len(r), amp, dtype=complex))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    H = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return HamiltonianMatrix(entries=H, params=params)
