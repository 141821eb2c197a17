"""Biorthogonal decompositions and derived static observables."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from scipy.optimize import linear_sum_assignment

import nhchain.spectral as spectral
from nhchain.model import wrap_hops

from nhchain import (
    BiorthogonalizationError,
    HamiltonianMatrix,
    ModelParams,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    cdw_order,
    decompose,
    density_profile,
    eigenvalues,
    ground_state,
    imag_fraction,
    ipr,
    ipr_per_state,
    static_observables,
)


def biorth_residual(d):
    return np.abs(d.left @ d.right - np.eye(d.dim)).max()


def completeness_residual(d):
    return np.abs(d.right @ d.left - np.eye(d.dim)).max()


def test_two_site_obc_eigenvalues_unit():
    # H = [[0, -e^g], [-e^-g, 0]] has eigenvalues +-1 for every g
    for g in (0.0, 0.3, 1.5):
        d = decompose(build_single_particle(ModelParams(L=2, g=g, bc="obc")))
        assert np.allclose(np.sort(d.eigenvalues.real), [-1.0, 1.0], atol=1e-14)
        assert np.all(d.eigenvalues.imag == 0.0)


def test_hermitian_left_equals_right_dagger():
    d = decompose(build_single_particle(ModelParams(L=13, g=0.0, W=1.3, bc="pbc")))
    assert np.array_equal(d.left, d.right.conj().T)
    assert biorth_residual(d) < 1e-12


def test_similarity_route_biorthogonal_exactly():
    # left entries grow like e^{g S}, so completeness carries that scale
    d = decompose(build_single_particle(ModelParams(L=20, g=1.0, W=3.0, bc="obc")))
    assert biorth_residual(d) < 1e-10
    assert completeness_residual(d) < 1e-8


@pytest.mark.parametrize("L", [9, 11, 13])
def test_similarity_route_biorthogonal_fock(L):
    basis = build_fock_basis(L, (L + 1) // 2)
    p = ModelParams(L=L, N=basis.N, g=0.5, V=2.0, W=0.5, theta0=0.3, bc="obc")
    assert biorth_residual(decompose(build_many_body(p, basis))) <= 1e-10


# ------------------------------------------------ the open-chain gauge

def _build(p):
    return build_many_body(p, build_fock_basis(p.L, p.N)) if p.many_body else build_single_particle(p)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("L, N", [(2, None), (21, None), (89, None), (3, 1), (9, 5), (12, 6)])
def test_gauged_open_chain_is_the_g0_build_bit_for_bit(L, N):
    # the stored ipr_obc references sit near W = 2e^g, where the last bits decide
    for g in (0.1, 0.5, 1.0, -0.7):
        for W in (0.0, 3.0625):
            for V in ((0.0, 2.0) if N else (0.0,)):
                p = ModelParams(L=L, N=N, g=g, V=V, W=W, theta0=0.3, bc="obc")
                A, _ = spectral._gauge_free(_build(p))
                assert _same_bits(A, _build(replace(p, g=0.0)).dense()), p


@pytest.mark.parametrize("L, N", [(13, None), (8, 4)])
def test_open_chain_route_solves_the_entries_it_is_handed(L, N):
    # entries built at W = 1 under params that say W = 0 are solved as W = 1
    p = ModelParams(L=L, N=N, g=0.5, V=1.0 if N else 0.0, W=1.0, theta0=0.3, bc="obc")
    built = _build(p)
    H = replace(built, params=replace(p, W=0.0))
    assert np.array_equal(eigenvalues(H), eigenvalues(built))
    d, ref = decompose(H), decompose(built)
    for field in ("eigenvalues", "right", "left"):
        assert np.array_equal(getattr(d, field), getattr(ref, field))
    assert not np.allclose(eigenvalues(H), eigenvalues(_build(replace(p, W=0.0))))


@pytest.mark.parametrize("N", [None, 4])
def test_open_chain_route_refuses_entries_off_the_gauge(N):
    p = ModelParams(L=8, N=N, g=0.5, V=1.0 if N else 0.0, W=1.0, bc="obc")
    built = _build(p)
    dense = built.entries.toarray() if N else built.entries
    one_way = dense.copy()
    one_way[1, 0] = 0.0                                      # a hop without its reverse
    for H in (replace(_build(replace(p, g=0.6)), params=p),  # hops of g = 0.6 under g = 0.5
              replace(built, entries=one_way),
              replace(built, entries=dense + 1e-3j * np.eye(built.dim))):   # a complex diagonal
        for solve in (decompose, eigenvalues):
            with pytest.raises(ValueError, match="is not an open chain of g=0.5"):
                solve(H)


def test_hamiltonian_matrix_refuses_a_dim_off_its_sector():
    # the open-chain route indexes site weights by H's indices: a 10-site chain
    # under L=8 failed there with IndexError, and a 6-site one gave 6 eigenvalues
    for L in (6, 10):
        with pytest.raises(ValueError, match=r"entries of shape \((\d+), \1\), need \(8, 8\): "
                                             r"the params' sector size is L = 8"):
            replace(build_single_particle(ModelParams(L=L, g=0.5)), params=ModelParams(L=8, g=0.5))
    fock = build_many_body(ModelParams(L=8, N=3, g=0.5), build_fock_basis(8, 3))     # dim 56
    with pytest.raises(ValueError, match=r"entries of shape \(56, 56\), need \(70, 70\): "
                                         r"the params' sector size is C\(L, N\) = C\(8, 4\)"):
        replace(fock, params=ModelParams(L=8, N=4, g=0.5))


def test_hamiltonian_matrix_refuses_entries_off_its_dim():
    p = ModelParams(L=8, g=0.5)
    for entries in (np.eye(6), np.ones((8, 7)), np.ones(8), sparse.identity(10, format="csr")):
        with pytest.raises(ValueError, match=r"entries of shape .*, need \(8, 8\)"):
            HamiltonianMatrix(entries=entries, params=p)


def _multiset_distance(a, b):
    """Largest |a_i - b_pi(i)| under the best one-to-one matching pi."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@pytest.mark.parametrize("L, N", [(13, None), (89, None), (10, 5)])
@pytest.mark.parametrize("g, bc", [(0.0, "pbc"), (0.5, "obc"), (0.5, "pbc")])
def test_eigenvalues_match_decompose(L, N, g, bc):
    # a multiset: conjugate pairs may swap places where their real parts tie
    p = ModelParams(L=L, N=N, g=g, V=2.0 if N else 0.0, W=1.0, theta0=0.3, bc=bc)
    H = build_many_body(p, build_fock_basis(L, N)) if N else build_single_particle(p)
    w = eigenvalues(H)
    assert len(w) == H.dim
    assert _multiset_distance(w, decompose(H).eigenvalues) <= 1e-10


def test_f_im_from_eigenvalues_equals_decompose():
    for W in np.arange(0.0, 8.01, 0.5):
        for s in range(3):
            H = build_single_particle(ModelParams(L=89, g=0.5, W=W, theta0=2 * np.pi * s / 3,
                                                  bc="pbc"))
            assert imag_fraction(eigenvalues(H)) == imag_fraction(decompose(H))


@pytest.mark.parametrize("seed", [20250813])
def test_general_route_residuals_random_points(seed):
    rng = np.random.default_rng(seed)
    worst_b = worst_c = 0.0
    for _ in range(20):
        g = rng.uniform(0.05, 1.0)
        W = rng.uniform(0.0, 8.0)
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        p = ModelParams(L=55, g=g, W=W, theta0=theta0, bc="pbc")
        d = decompose(build_single_particle(p))
        worst_b = max(worst_b, biorth_residual(d))
        worst_c = max(worst_c, completeness_residual(d))
    assert worst_b < 1e-12
    assert worst_c < 1e-11


@pytest.mark.parametrize("L, N, g, passes", [
    (89, None, 8.0, True), (89, None, 10.0, False), (89, None, -10.0, False),
    (12, 6, 19.7, True), (12, 6, 20.0, False),
])
def test_open_chain_refuses_a_similarity_that_overflows(L, N, g, passes):
    # |g| (max S - min S) against ln(float max) = 709.78: 704 and 880 at L = 89
    # (S = 0 .. 88), 709.2 and 720 in the Fock sector (12, 6) (S = 15 .. 51).
    # Past it e^(-g S) held inf and nan: a density of nan, and RuntimeWarnings
    p = ModelParams(L=L, N=N, g=g, V=1.0 if N else 0.0, W=1.0, bc="obc")
    H = build_many_body(p, build_fock_basis(L, N)) if N else build_single_particle(p)
    if passes:
        d = decompose(H)
        assert np.isfinite(d.left).all() and np.isfinite(d.right).all()
    else:
        with pytest.raises(BiorthogonalizationError, match=r"exceeds ln\(float max\) = 709\.78"):
            decompose(H)
    assert np.isfinite(eigenvalues(H)).all()       # forms no similarity


def test_vanishing_left_right_overlap_raises():
    # a 4-cycle with 1e-30 on its wrap: eigenvalues 1e-7.5 i^k, far apart, but
    # next to a Jordan block, so each left/right overlap is of order 1e-22
    A = np.eye(4, k=1)
    A[3, 0] = 1e-30
    H = HamiltonianMatrix(entries=A, params=ModelParams(L=4, g=0.5, bc="pbc"))
    with pytest.raises(BiorthogonalizationError, match="overlap underflow"):
        decompose(H)


def test_eigenvalue_collision_raises():
    # hand-built defective-adjacent spectrum pushed through the general route
    p = ModelParams(L=2, g=0.5, bc="pbc")
    H = HamiltonianMatrix(entries=np.diag([1.0, 1.0 + 1e-13]).astype(complex), params=p)
    with pytest.raises(BiorthogonalizationError):
        decompose(H)


def test_eigenvalue_collision_found_in_any_order():
    # 0+1j and 1e-13+1j collide, but 6e-14-5j sits between them in (Re, Im) order
    p = ModelParams(L=4, g=0.5, bc="pbc")
    w = np.array([0.0 + 1.0j, 1e-13 + 1.0j, 6e-14 - 5.0j, 2.0])
    H = HamiltonianMatrix(entries=np.diag(w), params=p)
    for solve in (decompose, eigenvalues):
        with pytest.raises(BiorthogonalizationError, match="gap 1.000e-13"):
            solve(H)


@pytest.mark.parametrize("eps", [1e-14, 1e-13, 4e-13, 6e-13])
def test_a_real_solve_refuses_a_pair_barely_off_the_real_axis(eps):
    # a real matrix gives a complex pair as exact conjugates, +-i*eps, so the pair's
    # gap is 2*eps: below COLLISION_GAP / 2 the solve refuses it, and a pair that
    # passes is far above IM_THRESHOLD, which therefore decides nothing here
    p = ModelParams(L=2, g=0.5, bc="pbc")
    H = HamiltonianMatrix(entries=np.array([[0.0, 1.0], [-eps**2, 0.0]]), params=p)
    if 2 * eps < spectral.COLLISION_GAP:
        for solve in (decompose, eigenvalues):
            with pytest.raises(BiorthogonalizationError, match="eigenvalue gap"):
                solve(H)
    else:
        assert eps > spectral.IM_THRESHOLD
        assert imag_fraction(eigenvalues(H)) == imag_fraction(decompose(H)) == 1.0


def test_ipr_bounds():
    assert ipr(np.ones(8) / np.sqrt(8)) == pytest.approx(1.0 / 8.0)
    delta = np.zeros(8)
    delta[3] = 1.0
    assert ipr(delta) == pytest.approx(1.0)
    assert ipr(np.array([2.0, 0.0])) == pytest.approx(1.0)   # normalizes defensively
    with pytest.raises(ValueError):
        ipr(np.zeros(4))


def test_skin_state_ipr_large_chain():
    # localized regime on top of the skin effect keeps states compact
    d = decompose(build_single_particle(ModelParams(L=55, g=1.0, W=0.5, bc="obc")))
    lowest = d.right[:, int(np.argmin(d.eigenvalues.real))]
    assert ipr(lowest) > 0.3


def test_imag_fraction_transition():
    low = decompose(build_single_particle(ModelParams(L=89, g=0.5, W=0.1, bc="pbc")))
    high = decompose(build_single_particle(ModelParams(L=89, g=0.5, W=6.0, bc="pbc")))
    assert imag_fraction(low) > 0.95
    assert imag_fraction(high) == 0.0


def test_density_profile_fock_state():
    basis = build_fock_basis(8, 4)
    wall = np.zeros(basis.dim, dtype=complex)
    wall[np.searchsorted(basis.states, 0b11110000)] = 1.0
    dens = density_profile(wall, basis)
    assert np.allclose(dens, [0, 0, 0, 0, 1, 1, 1, 1], atol=1e-15)


def test_density_profile_single_particle():
    psi = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(density_profile(psi), [0.5, 0.5, 0.0, 0.0], atol=1e-15)
    # the columns of a matrix of states, each normalized on its own
    both = density_profile(np.column_stack([psi, 3.0 * psi[::-1]]))
    assert np.allclose(both, [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]], atol=1e-15)
    with pytest.raises(ValueError):
        density_profile(np.column_stack([psi, np.zeros(4)]))


def test_density_profile_biorthogonal_ground_state():
    # Under OBC the non-reciprocity is a similarity transform diagonal in the
    # Fock basis, so the biorthogonal density is the Hermitian (g=0) one.
    basis = build_fock_basis(8, 4)

    def ground(g, W):
        p = ModelParams(L=8, N=4, g=g, V=2.0, W=W, theta0=0.3, bc="obc")
        return ground_state(decompose(build_many_body(p, basis)), basis)

    _, _, dens = ground(0.5, 0.7)
    _, right0, _ = ground(0.0, 0.7)
    assert np.allclose(dens, density_profile(right0, basis), atol=1e-10)
    assert dens.sum() == pytest.approx(4.0, abs=1e-12)
    # even L, W=0: reflection swaps the sublattices of the unique ground state
    clean = ground(0.5, 0.0)[2]
    assert abs(np.sum((-1.0) ** np.arange(8) * clean)) < 1e-12


def test_average_density_skews_left_for_positive_g():
    basis = build_fock_basis(8, 4)
    p = ModelParams(L=8, N=4, g=0.5, V=2.0, W=0.0, bc="obc")
    density = static_observables(decompose(build_many_body(p, basis)), basis)
    left = density[:4].sum()
    assert density.sum() == pytest.approx(4.0, abs=1e-9)
    assert left == pytest.approx(3.058, abs=2e-3)
    assert left > 4.0 - left


def test_fock_ipr_scale_separation():
    basis = build_fock_basis(12, 6)
    p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=0.5, bc="obc")
    mb = float(np.mean(ipr_per_state(decompose(build_many_body(p, basis)))))
    sp = float(np.mean(ipr_per_state(decompose(build_single_particle(
        ModelParams(L=12, g=0.5, W=0.5, bc="obc"))))))
    assert mb == pytest.approx(0.1641, abs=2e-3)
    assert sp == pytest.approx(0.4635, abs=2e-3)
    assert mb < sp   # Fock-space spreading dilutes single-state weight
    assert ipr(np.ones(basis.dim) / np.sqrt(basis.dim)) == pytest.approx(1.0 / basis.dim)


def test_cdw_order():
    assert cdw_order(np.array([1.0, 0.0, 1.0, 0.0])) == pytest.approx(0.5)
    assert cdw_order(np.full(6, 0.5)) == pytest.approx(0.0)


def test_static_observables_shapes():
    p = ModelParams(L=10, g=0.5, W=1.0, bc="pbc")
    d = decompose(build_single_particle(p))
    density = static_observables(d)
    assert density.shape == (10,)
    assert np.array_equal(density, density_profile(d.right).mean(axis=1))
    assert cdw_order(density) >= 0.0


def test_mode_coefficients_invert_expansion():
    # biorthogonal completeness: right @ left = I, so c = left @ psi resums to psi
    p = ModelParams(L=12, g=0.4, W=0.8, bc="pbc")
    d = decompose(build_single_particle(p))
    rng = np.random.default_rng(3)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert np.allclose(d.right @ (d.left @ psi), psi, atol=1e-10)


# ------------------------------------------------ real arithmetic at zero flux

def _pbc_matrix(L, N, fermionic_wrap=True, phi=0.0):
    """The periodic chain; with fermionic_wrap False, its wrap hops carry the
    opposite of the fermionic sign (-1)^(N-1) that the model builds."""
    p = ModelParams(L=L, N=N, g=0.5, V=2.0 if N else 0.0, W=0.5 if N else 1.0, theta0=0.3,
                    bc="pbc", phi=phi)
    if N is None:
        return build_single_particle(p), None
    basis = build_fock_basis(L, N)
    H = build_many_body(p, basis)
    if not fermionic_wrap:
        for rows, cols, amp in wrap_hops(p, basis):
            H = replace(H, entries=H.entries - sparse.csr_matrix(
                (np.full(len(rows), 2.0 * amp), (rows, cols)), shape=H.entries.shape))
    return H, basis


@pytest.mark.parametrize("L, N, fermionic_wrap", [
    (13, None, True), (89, None, True),
    (10, 4, True), (10, 5, True), (10, 5, False), (12, 6, True), (12, 6, False),
])
def test_real_general_route_matches_complex_solve(L, N, fermionic_wrap):
    # wrap sign (-1)^(N-1) with the fermionic sign (-1 at N = 4 and 6), its opposite without
    H, basis = _pbc_matrix(L, N, fermionic_wrap)
    assert H.dense().dtype == np.float64
    real = decompose(H)
    ref = spectral._decompose_general(H.dense().astype(complex))
    assert _multiset_distance(real.eigenvalues, ref.eigenvalues) <= 1e-10
    assert biorth_residual(real) <= 1e-10
    assert np.mean(ipr_per_state(real)) == pytest.approx(np.mean(ipr_per_state(ref)), rel=1e-10)
    assert (cdw_order(static_observables(real, basis))
            == pytest.approx(cdw_order(static_observables(ref, basis)), rel=1e-10))
    # complex eigenvalues of a real matrix come in exact conjugate pairs
    w = real.eigenvalues
    assert np.any(w.imag != 0.0)
    assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))


def test_real_matrices_reach_the_solvers_real(monkeypatch):
    seen = []
    for name in ("_decompose_general", "_decompose_hermitian"):
        solve = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda A, solve=solve: seen.append(A.dtype) or solve(A))
    for phi, g, dtype in ((0.0, 0.5, np.float64), (0.7, 0.5, np.complex128),
                          (0.0, 0.0, np.float64), (0.7, 0.0, np.complex128)):
        for N in (None, 4):
            seen.clear()
            p = ModelParams(L=8, N=N, g=g, V=1.0 if N else 0.0, W=1.0, bc="pbc", phi=phi)
            decompose(build_many_body(p, build_fock_basis(8, 4)) if N else build_single_particle(p))
            assert seen == [dtype]


def test_dense_of_real_csr_builds_no_complex_array():
    H, _ = _pbc_matrix(12, 6)
    assert sparse.issparse(H.entries) and H.entries.dtype == np.complex128
    tracemalloc.start()
    try:
        A = H.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.dtype == np.float64 and A.flags.c_contiguous
    assert peak < 1.25 * H.dim**2 * 8          # a complex dim x dim array is twice that
    assert np.array_equal(A, H.entries.toarray())


def test_dense_is_a_new_array():
    H, _ = _pbc_matrix(6, None)
    A = H.dense()
    assert A.dtype == np.float64 and not np.shares_memory(A, H.entries)
    B, _ = _pbc_matrix(6, None, phi=0.7)
    C = B.dense()
    assert C.dtype == np.complex128 and not np.shares_memory(C, B.entries)
    assert np.array_equal(C, B.entries)


# ------------------------------------------------ one working copy per solve

def whole_array_decompose(H):
    """(eigenvalues, right, left) of decompose(H) from scipy's whole-array
    expressions, each of which leaves an n x n copy behind: the reference for
    the bits and memory layouts of the routes, which build their results from
    LAPACK's own arrays."""
    p = H.params
    if p.g == 0.0:
        w, v = scipy.linalg.eigh(H.dense())
        return w.astype(complex), v, v.conj().T
    if p.bc == "obc":
        A, S = spectral._gauge_free(H)
        w, v = scipy.linalg.eigh(A)
        d = np.exp(-p.g * (S - S.min()))
        right = d[:, None] * v
        norms = np.linalg.norm(right, axis=0)
        return w.astype(complex), right / norms, (v / d[:, None]).T * norms[:, None]
    w, vl, vr = scipy.linalg.eig(H.dense(), left=True, right=True)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    overlap = np.sum(vl.conj() * vr, axis=0)
    return w, vr, vl.conj().T / overlap[:, None]


@pytest.mark.parametrize("g, bc, phi", [(0.5, "pbc", 0.0), (0.5, "pbc", 0.7), (0.5, "obc", 0.0),
                                        (0.0, "pbc", 0.0)])
def test_decompose_keeps_the_bits_and_layouts_of_the_whole_array_solve(g, bc, phi):
    # the real ring has conjugate pairs; a flux makes the ring complex
    p = ModelParams(L=8, N=4, g=g, V=2.0, W=0.5, theta0=0.3, bc=bc, phi=phi)
    H = build_many_body(p, build_fock_basis(8, 4))
    d = decompose(H)
    assert (g, bc, phi) != (0.5, "pbc", 0.0) or np.any(d.eigenvalues.imag != 0.0)
    for got, want in zip((d.eigenvalues, d.right, d.left), whole_array_decompose(H)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous


@pytest.mark.parametrize("bc, spare", [("pbc", np.complex128), ("obc", np.float64)])
def test_decompose_holds_one_spare_matrix_beside_its_result(bc, spare):
    # beside its result the general route holds at most one n x n complex
    # array, the similarity route one real one; the whole-array solve held
    # 2.6 and 3.1 of them (dim 252)
    p = ModelParams(L=10, N=5, g=0.5, V=2.0, W=0.5, theta0=0.3, bc=bc)
    H = build_many_body(p, build_fock_basis(10, 5))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = decompose(H)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    result = d.eigenvalues.nbytes + d.right.nbytes + d.left.nbytes
    assert peak <= result + H.dim**2 * np.dtype(spare).itemsize
