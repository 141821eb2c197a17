"""Non-unitary time evolution and entanglement diagnostics.

Two propagators are provided.  `evolve_exact` expands the initial state
over the biorthogonal modes, attaches e^{-i eps_n t} factors and resums;
the exponentials are rescaled by the largest imaginary part before
resummation so arbitrarily long times never overflow (the rescaling is a
positive factor and drops out of the normalized state).  `arnoldi_step`
advances a state over a time interval in Krylov sub-steps.  Each one
orthonormalizes {psi, H psi, ..., H^{m-1} psi} by block classical
Gram-Schmidt run twice (each pass one projection onto and one
subtraction of all earlier basis vectors), exponentiates the small
Hessenberg matrix by a Taylor series with scaling and squaring, and maps
back.  The dimension m is the first whose a-posteriori error estimate is
at or below KRYLOV_TOL (Saad 1992; Niesen & Wright 2012 adapt m the same
way), up to the cap M that the caller passes.  One sub-step covers the
whole interval unless its basis reaches M above the tolerance; then the
sub-step is shortened on that basis until the estimate passes, and
further sub-steps cover the rest (Expokit's step-size control, Sidje
1998).  Both return a unit-norm state, mirroring how a non-unitary
evolution is turned into a physical state.

`run` records observables on a time grid into an `ObservableSeries`
held as columns: the record times and one (times x width) array per
observable (width L for the density, 1 for a scalar).  Its CSV rows
(t, observable, index, value) are built from those arrays on demand.

The half-chain entanglement entropy of a fixed-N state reads the
singular values of the (left pattern) x (right pattern) amplitude
matrix, one block per particle number left of the cut.  Splitting an
occupation word at the cut needs a fermionic reordering sign in general;
with the ascending site ordering used throughout, left-block operators
already precede right-block ones, so the sign is +1 for every word
(asserted here once in the comment rather than recomputed).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

import numpy as np

from .model import FockBasis, HamiltonianMatrix, ModelParams, build_fock_basis, build_many_body, build_single_particle
from .spectral import SpectralDecomposition, decompose, density_profile, ipr

BREAKDOWN_TOL = 1e-14
KRYLOV_TOL = 1e-12
TAYLOR_TERMS = 18        # terms of exp(A) at ||A||_1 <= 1: 1/19! < 2^-53
STEP_SAFETY = 0.9        # Expokit's gamma: aim a sub-step below the length the estimate allows
MAX_STEP_GROWTH = 5.0    # largest factor by which a sub-step may exceed the one before
MAX_SUBSTEPS = 10_000    # a step refuses sub-steps shorter than dt / MAX_SUBSTEPS


@dataclass(frozen=True)
class EvolverConfig:
    """How `run` evolves: the method, the Krylov cap M (at least 2), and
    the record grid t = k * dt for every record_stride-th k up to t_max.

    dt is the unit of the record grid, not the propagator's step: the
    Krylov method takes one `arnoldi_step` per record interval
    (record_stride * dt), which splits the interval only where the cap M
    cannot meet KRYLOV_TOL in one sub-step.
    """

    method: str = "krylov"           # "exact" | "krylov"
    M: int = 25                      # largest Krylov dimension a sub-step may use
    dt: float = 0.2
    t_max: float = 10.0
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("exact", "krylov"):
            raise ValueError(f"method must be 'exact' or 'krylov', got {self.method!r}")
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class ObservableSeries:
    """Record times t and, per observable, one (len(t), width) block of values.

    The width is L for `density` and 1 for the scalar observables; blocks
    keep the order in which the observables were requested.
    """

    t: np.ndarray
    blocks: dict

    def values(self, name: str) -> np.ndarray:
        """(t, value) pairs of a scalar observable."""
        return np.column_stack([self.t, self.blocks[name]])

    def profile_at(self, name: str, t: float) -> np.ndarray:
        """The values of `name` recorded at time t (to 1e-9)."""
        hits = np.flatnonzero(np.abs(self.t - t) < 1e-9)
        if hits.size == 0:
            raise ValueError(f"no record at t={t}")
        return self.blocks[name][hits[0]]

    @property
    def records(self) -> list:
        """The CSV data rows (t, observable, index, value): time-major,
        then observables in requested order, then index."""
        rows = []
        blocks = [(name, block.tolist()) for name, block in self.blocks.items()]
        for k, t in enumerate(self.t.tolist()):
            for name, block in blocks:
                rows.extend((t, name, j, v) for j, v in enumerate(block[k]))
        return rows

    def write_csv(self, path: str) -> None:
        """The header and `records` as CSV, byte for byte what csv.writer
        writes: repr of each value and CRLF line ends (the observable
        names need no quoting).  Each time and index is formatted once."""
        fields = [([f",{name},{j}," for j in range(block.shape[1])], block.tolist())
                  for name, block in self.blocks.items()]
        with open(path, "w", newline="") as fh:
            fh.write("t,observable,index,value\r\n")
            for k, t in enumerate(self.t.tolist()):
                t = repr(t)
                fh.write("".join([f"{t}{head}{v!r}\r\n" for heads, block in fields
                                  for head, v in zip(heads, block[k])]))


def initial_localized(L: int, j0: int) -> np.ndarray:
    """Delta state at site j0."""
    if not 0 <= j0 < L:
        raise ValueError(f"j0 must be in 0..{L - 1}, got {j0}")
    psi = np.zeros(L, dtype=complex)
    psi[j0] = 1.0
    return psi


def initial_domain_wall(basis: FockBasis) -> np.ndarray:
    """Product state with the N highest-index sites occupied."""
    psi = np.zeros(basis.dim, dtype=complex)
    psi[np.searchsorted(basis.states, ((1 << basis.N) - 1) << (basis.L - basis.N))] = 1.0
    return psi


def evolve_exact(
    decomp: SpectralDecomposition,
    psi0: np.ndarray,
    t: float,
) -> np.ndarray:
    """Biorthogonal mode expansion sum_n c_n e^{-i eps_n t} |n>, normalized."""
    c = decomp.left @ psi0
    w = decomp.eigenvalues
    growth = w.imag * t
    growth = growth - growth.max()   # positive rescale, dropped by normalization
    amps = np.exp(growth) * np.exp(-1j * w.real * t)
    psi = decomp.right @ (c * amps)
    norm = np.linalg.norm(psi)
    if norm < 1e-300 or not np.isfinite(norm):
        raise FloatingPointError(
            "evolved state norm left the representable range; mode "
            "coefficients span too many orders (use the Krylov stepper)")
    return psi / norm


def _expm_e1(Hm: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt Hm) e1, the first column of the small propagator: with
    A = -i dt Hm and the smallest j >= 0 that gives ||A / 2^j||_1 <= 1,
    TAYLOR_TERMS terms of exp(A / 2^j), squared j times (Moler & Van Loan,
    SIAM Review 45, 2003).  The cost grows with log dt, and the accuracy
    does not depend on the conditioning of Hm's eigenvectors."""
    A = -1j * dt * np.asarray(Hm)
    j = max(int(np.frexp(np.abs(A).sum(axis=0).max())[1]), 0)   # 0 for a non-finite norm
    A /= 2.0 ** j
    term = expA = np.eye(len(A), dtype=complex)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ A / k
        expA = expA + term
    for _ in range(j):
        expA = expA @ expA
    return expA[:, 0]


def _krylov_error(y: np.ndarray, beta: float) -> float:
    """Saad's a-posteriori error of the Krylov step V_m y with y = exp(-i dt H_m) e1,
    relative to the step's norm: beta |y_m| / ||y||, where beta = h_{m+1,m}
    (Saad, SIAM J. Numer. Anal. 29, 1992)."""
    return beta * abs(y[-1]) / np.linalg.norm(y)


def _krylov_substep(op, psi: np.ndarray, M: int, tau: float, dt: float) -> tuple:
    """One Krylov sub-step from psi of length t <= tau, in a step of dt:
    the normalized state V_m exp(-i t H_m) V_m^dagger psi, t, its error
    estimate (`_krylov_error`), and m.

    The recursion stops at the first m whose estimate at tau is at or
    below KRYLOV_TOL, at the cap M, or at an Arnoldi residual below
    BREAKDOWN_TOL (an invariant subspace, where the propagator is exact).
    The estimate is taken only once the a-priori proxy prod_k h_{k+1,k}
    tau / k (the first Taylor term that the m vectors leave out) has
    fallen to the tolerance, and goes on from any estimate above it.

    A basis that reaches M above the tolerance is kept: t shrinks on it
    by `_step_factor`, or halves while the exponential's norm overflows,
    until the estimate passes (Expokit's loop, Sidje 1998).  A t below
    dt / MAX_SUBSTEPS (the cap cannot meet the tolerance in practical
    sub-steps) and a non-finite basis raise FloatingPointError.
    """
    n = len(psi)
    M = min(M, n)
    V = np.zeros((n, M), dtype=complex, order="F")   # contiguous Krylov vectors
    h = np.zeros((M, M), dtype=complex)
    V[:, 0] = psi / np.linalg.norm(psi)
    err = 1.0      # prod_k h_{k+1,k} tau / k, continued from the last estimate taken
    for j in range(M):
        w = op @ V[:, j]
        Vj = V[:, :j + 1]
        for _ in range(2):       # the second pass recovers orthogonality lost to cancellation
            # (w^H Vj)^* = Vj^H w without an n x (j+1) conjugate copy of Vj
            coef = (w.conj() @ Vj).conj()
            w -= Vj @ coef
            h[:j + 1, j] += coef
        beta = np.linalg.norm(w)
        m = j + 1
        err *= beta * tau / m
        last = m == M or beta < BREAKDOWN_TOL
        if last or err <= KRYLOV_TOL:
            y = _expm_e1(h[:m, :m], tau)
            err = _krylov_error(y, beta)
            if last or err <= KRYLOV_TOL:
                break
        h[m, j] = beta
        V[:, m] = w / beta
    if not np.isfinite(beta):
        raise FloatingPointError("non-finite entries in Krylov step")
    while not (err <= KRYLOV_TOL and np.isfinite(np.linalg.norm(y))):
        # an exponential whose norm overflows gives no estimate to scale by: halve
        tau *= _step_factor(err, m) if np.isfinite(np.linalg.norm(y)) else 0.5
        if tau * MAX_SUBSTEPS < dt:
            raise FloatingPointError(
                f"the Krylov step of {dt:.6g} needs sub-steps below {tau:.3g} at the cap M={m} "
                f"(estimate {err:.2e} above KRYLOV_TOL): more than {MAX_SUBSTEPS} of them")
        y = _expm_e1(h[:m, :m], tau)
        err = _krylov_error(y, beta)
    out = V[:, :m] @ y
    return out / np.linalg.norm(out), tau, err, m


def _step_factor(err: float, m: int) -> float:
    """Expokit's step-length factor STEP_SAFETY (KRYLOV_TOL / err)^(1/m):
    the estimate of an m-vector step scales as dt^m (Sidje, ACM TOMS 24, 1998)."""
    return STEP_SAFETY * (KRYLOV_TOL / max(err, 1e-300)) ** (1.0 / m)


def arnoldi_step(
    H,
    psi: np.ndarray,
    M: int,
    dt: float,
) -> np.ndarray:
    """Evolve psi over dt in Krylov sub-steps; the normalized state.

    H may be a HamiltonianMatrix, dense array, or sparse matrix; only
    mat-vec products are taken.  Each sub-step (`_krylov_substep`) builds
    and uses one basis of adaptive dimension m <= M.  The first tries all
    of dt; each next one is longer by `_step_factor` at the m used (1- to
    MAX_STEP_GROWTH-fold), and the last ends on dt.

    Every call ends.  M must be at least 2, since at m = 1 the estimate
    is h_21 at every length, and a sub-step shorter than dt / MAX_SUBSTEPS
    raises FloatingPointError.  dt=0 returns a copy of psi.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if M < 2:
        raise ValueError("M must be >= 2: at m = 1 the error estimate does not shrink with the step")
    op = H.entries if isinstance(H, HamiltonianMatrix) else H
    psi = np.array(psi, dtype=complex, copy=True)
    if dt == 0:
        return psi
    if np.linalg.norm(psi) < 1e-300:
        raise ValueError("zero state")
    left, tau = dt, dt
    with np.errstate(over="ignore", invalid="ignore"):   # `_krylov_substep` handles both
        while left > 0:
            psi, tau, err, m = _krylov_substep(op, psi, M, min(tau, left), dt)
            left -= tau
            tau *= min(max(_step_factor(err, m), 1.0), MAX_STEP_GROWTH)
    return psi


def entanglement_entropy(psi: np.ndarray, basis: FockBasis) -> float:
    """Half-chain von Neumann entanglement entropy: the first L // 2 sites against the rest.

    The amplitude matrix (left pattern) x (right pattern) is block
    diagonal in the particle number k left of the cut, so its singular
    values are those of the C(cut, k) x C(L - cut, N - k) blocks.
    """
    psi = np.asarray(psi)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state norm {norm:.3e} deviates from 1 beyond 1e-8")
    cut = basis.L // 2
    # Ascending Jordan-Wigner ordering: the left-block creation operators
    # already precede the right-block ones in every word, so the split
    # sign is +1 throughout.
    # Words ascend as (right pattern, left pattern) and hold every pair of
    # a k-particle left and an (N - k)-particle right pattern, so the words
    # with k particles left of the cut, kept in order, are block k row by
    # row (one row per right pattern).
    k_of = np.bitwise_count(basis.states & ((1 << cut) - 1))
    blocks = np.split(psi[np.argsort(k_of, kind="stable")], np.cumsum(np.bincount(k_of))[:-1])
    s = [np.linalg.svd(block.reshape(-1, comb(cut, k)), compute_uv=False)
         for k, block in enumerate(blocks) if block.size]
    s2 = np.sort(np.concatenate(s))[::-1] ** 2      # descending, as one dense SVD orders them
    s2 = s2[s2 > 1e-16]
    return float(-np.sum(s2 * np.log(s2)) + 0.0)   # + 0.0 folds -0.0 into 0.0


def run(
    params: ModelParams,
    config: EvolverConfig,
    initial: np.ndarray,
    observables: Iterable[str] = ("density",),
    basis: Optional[FockBasis] = None,
) -> ObservableSeries:
    """Evolve `initial` to t_max, recording observables on a time grid.

    The grid is t = k * dt for k = 0, stride, 2*stride, ..., plus a last
    record at t_max: when t_max is not a multiple of dt (to 1e-9
    relative), the last record interval is shortened to end on it.  The
    Krylov method takes one `arnoldi_step` per record interval, and the
    exact method evaluates each record time from `initial`; either way
    the state is normalized at every record.
    """
    measure = {   # basis is bound below, before the first record
        "density": lambda psi: density_profile(psi, basis),
        "ipr": ipr,
        "s_ee": lambda psi: entanglement_entropy(psi, basis),
    }
    names = list(dict.fromkeys(observables))
    unknown = set(names) - set(measure)
    if not names:
        raise ValueError(f"no observables given; known: {', '.join(measure)}")
    if unknown:
        raise ValueError(f"unknown observables: {sorted(unknown)}; known: {', '.join(measure)}")
    if params.many_body and basis is None:
        basis = build_fock_basis(params.L, params.N)
    if not params.many_body and "s_ee" in names:
        raise ValueError("s_ee needs a many-body state")

    if params.many_body:
        H = build_many_body(params, basis)
    else:
        H = build_single_particle(params)
        basis = None

    decomp = decompose(H) if config.method == "exact" else None

    dt = config.dt
    k_last = int(round(config.t_max / dt))
    off_grid = abs(k_last * dt - config.t_max) > 1e-9 * config.t_max
    if off_grid:
        # whole multiples of dt up to the last one below t_max, then t_max itself
        k_last = int(config.t_max // dt) + 1
    record_at = sorted({*range(0, k_last + 1, config.record_stride), k_last})
    times = np.array(record_at) * dt
    intervals = np.diff(record_at) * dt      # one Krylov step each
    if off_grid:
        times[-1] = config.t_max
        intervals[-1] = config.t_max - times[-2]
    blocks = {name: np.empty((len(record_at), params.L if name == "density" else 1))
              for name in names}

    psi0 = np.asarray(initial, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    psi = psi0
    for row, t in enumerate(times):
        if row and config.method == "exact":
            psi = evolve_exact(decomp, psi0, t)
        elif row:
            psi = arnoldi_step(H, psi, config.M, intervals[row - 1])
        for name in names:
            blocks[name][row] = measure[name](psi)
    return ObservableSeries(t=times, blocks=blocks)
